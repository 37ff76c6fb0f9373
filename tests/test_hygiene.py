"""No dead code in the library: every import is used and sits at module
level, and every function, class and method is referenced from somewhere
else in src/ or bench/, or is part of the public API (lockshift.__all__).
That list names only bound names, and every name __init__ imports."""
from __future__ import annotations

import ast
from pathlib import Path

import lockshift

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lockshift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references() -> tuple[dict, dict]:
    """Where each name is used across src/ and bench/, as two maps from
    name to [(path, line)]: bare uses and from-imports, and attribute uses."""
    bare: dict[str, list[tuple[Path, int]]] = {}
    attrs: dict[str, list[tuple[Path, int]]] = {}
    for path in SCANNED:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                bare.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bare.setdefault(alias.name, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((path, node.lineno))
    return bare, attrs


def _definitions(tree: ast.Module):
    """(node, is_method) for every function and class, nested ones too."""
    methods = {id(stmt) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for stmt in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, id(node) in methods


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_module_level_import_is_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append("%s: %s" % (path.name, bound))
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_import_inside_a_function():
    nested = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update("%s:%d" % (path.name, stmt.lineno)
                              for stmt in ast.walk(node)
                              if isinstance(stmt, (ast.Import, ast.ImportFrom)))
    assert not nested, "imports inside functions:\n" + "\n".join(sorted(nested))


def test_every_definition_is_referenced_elsewhere():
    bare, attrs = _references()
    public = set(lockshift.__all__)
    dead = []
    for path in MODULES:
        for node, is_method in _definitions(_tree(path)):
            name = node.name
            if _is_dunder(name) or name in public:
                continue
            # A method is reached only as an attribute; a function or class
            # also by name or import. Uses inside the definition itself
            # (recursion) do not count.
            uses = attrs.get(name, []) + ([] if is_method else bare.get(name, []))
            inside = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in inside for where, line in uses):
                dead.append("%s:%d: %s" % (path.name, node.lineno, name))
    assert not dead, "referenced nowhere else:\n" + "\n".join(dead)


def test_the_public_api_list_matches_the_package():
    unbound = [name for name in lockshift.__all__ if not hasattr(lockshift, name)]
    assert not unbound, "in __all__ but not bound: %s" % unbound
    imported = {alias.asname or alias.name
                for stmt in _tree(PACKAGE / "__init__.py").body
                if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
                for alias in stmt.names}
    unlisted = sorted(imported - set(lockshift.__all__))
    assert not unlisted, "imported by __init__ but not in __all__: %s" % unlisted


def test_lock_path_text_is_parsed_only_by_the_summary_reader():
    """Dotted lock-path text is the summary's JSON format; every other
    module hands LockPath values around and never parses text."""
    allowed = {"ast.py", "summary.py"}
    uses = ["%s:%d" % (path.name, node.lineno)
            for path in sorted(PACKAGE.glob("*.py")) if path.name not in allowed
            for node in ast.walk(_tree(path))
            if (isinstance(node, ast.Name) and node.id == "path_of")
            or (isinstance(node, ast.Attribute) and node.attr == "path_of")
            or (isinstance(node, ast.ImportFrom)
                and any(a.name == "path_of" for a in node.names))]
    assert not uses, "path_of outside ast.py and summary.py:\n" + "\n".join(uses)
