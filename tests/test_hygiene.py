"""No dead code in the library: every import is used and sits at module
level, and every function, class and method is referenced from somewhere
else in src/ or bench/. Being part of the public API (lockshift.__all__)
does not count as a use: __init__.py is not scanned. That list names only
bound names, and every name __init__ imports."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import lockshift
from lockshift import ast as nodes
from lockshift import cfg, guardcheck, parser, printer
from lockshift.pipeline import LockSets

from helpers import record_classes

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lockshift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Where a use counts: re-exporting a name from __init__.py is not a use.
SCANNED = MODULES + sorted((ROOT / "bench").glob("*.py"))


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
    dead = []
    for path in MODULES:
        for node, is_method in _definitions(_tree(path)):
            name = node.name
            if _is_dunder(name):
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


def _uses_outside(name: str, allowed: set[str]) -> list[str]:
    """Where a module of the package other than those in allowed names
    name: a bare use, an attribute or a from-import."""
    return ["%s:%d" % (path.name, node.lineno)
            for path in sorted(PACKAGE.glob("*.py")) if path.name not in allowed
            for node in ast.walk(_tree(path))
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.ImportFrom)
                and any(a.name == name for a in node.names))]


def test_lock_path_text_is_parsed_only_by_the_summary_reader():
    """Dotted lock-path text is the summary's JSON format; every other
    module hands LockPath values around and never parses text."""
    uses = _uses_outside("path_of", {"ast.py", "summary.py"})
    assert not uses, "path_of outside ast.py and summary.py:\n" + "\n".join(uses)


def test_argument_places_are_taken_only_by_the_resolver():
    """The resolver records each call argument's place on Call.arg_paths,
    and ast.to_caller and ast.to_callee are the one binding between a
    callee's parameters and a caller's arguments; no other module
    canonicalizes an argument again."""
    uses = _uses_outside("place_path", {"ast.py", "parser.py"})
    assert not uses, "place_path outside ast.py and parser.py:\n" + "\n".join(uses)


def test_the_held_set_rules_have_one_home():
    """PLS = ELS - MELS and the held set avail_in + PLS are stated once, in
    flowanalysis (propagated_set, held_set); no other module takes a
    lock-set difference of its own."""
    uses = _uses_outside("minus", {"flowanalysis.py"})
    assert not uses, "minus outside flowanalysis.py:\n" + "\n".join(uses)


def test_json_is_written_only_by_write_json():
    """summary.write_json renders every JSON file the library writes, the
    summary and the --dump-flow file, in one canonical form; json.dumps
    with an indent runs json's pure-Python encoder."""
    uses = _uses_outside("dumps", set())
    assert not uses, "json.dumps in the library:\n" + "\n".join(uses)


DECLARATION_LISTS = {"globals", "structs", "functions", "fields"}


def _is_name_of(node: ast.expr, target: str) -> bool:
    """Whether node is `target.name`."""
    return (isinstance(node, ast.Attribute) and node.attr == "name"
            and isinstance(node.value, ast.Name) and node.value.id == target)


def _is_or_is_of(node: ast.expr | None, target: str) -> bool:
    """Whether node is `target` or an attribute of it, such as `target.ty`."""
    if isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == target


def _by_name_tables(tree: ast.Module) -> list[int]:
    """Lines that build a table of declarations by name from a declaration
    list (`p.globals`, `p.structs`, `p.functions`, `s.fields`): a set of
    their names, or a dict from each name to the declaration or one of its
    attributes, by a comprehension over the list, or by a loop that stores
    the declaration or one of its attributes under `d.name` (by assignment
    or setdefault) or adds `d.name` to a set."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.SetComp, ast.DictComp)):
            key = node.elt if isinstance(node, ast.SetComp) else node.key
            for gen in node.generators:
                if (isinstance(gen.iter, ast.Attribute) and gen.iter.attr in DECLARATION_LISTS
                        and isinstance(gen.target, ast.Name)
                        and _is_name_of(key, gen.target.id)
                        and (isinstance(node, ast.SetComp)
                             or _is_or_is_of(node.value, gen.target.id))):
                    lines.append(node.lineno)
        elif (isinstance(node, ast.For) and isinstance(node.iter, ast.Attribute)
              and node.iter.attr in DECLARATION_LISTS and isinstance(node.target, ast.Name)):
            d = node.target.id
            for inner in ast.walk(node):
                stored = (isinstance(inner, ast.Assign) and _is_or_is_of(inner.value, d)
                          and any(isinstance(t, ast.Subscript) and _is_name_of(t.slice, d)
                                  for t in inner.targets))
                added = (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                         and inner.args and _is_name_of(inner.args[0], d)
                         and (inner.func.attr == "add" or inner.func.attr == "setdefault"
                              and len(inner.args) > 1 and _is_or_is_of(inner.args[1], d)))
                if stored or added:
                    lines.append(inner.lineno)
    return lines


def test_declarations_are_indexed_by_name_only_in_the_ast():
    """ast.Program indexes its globals, functions and structs by name, and
    a StructDef its fields; every phase reads those indexes, and no other
    module builds a table of its own. Per-function scopes, such as a
    function's parameters, are not declaration lists and stay allowed."""
    tables = ["%s:%d" % (path.name, line) for path in MODULES if path.name != "ast.py"
              for line in _by_name_tables(_tree(path))]
    assert not tables, "by-name declaration tables outside ast.py:\n" + "\n".join(tables)
    # The rule sees the forms it forbids, and lets per-function results be.
    assert len(_by_name_tables(ast.parse(
        "a = {g.name: g.ty for g in p.globals}\nb = {s.name for s in p.structs}\n"
        "for f in p.functions:\n    c[f.name] = f\n    d.add(f.name)\n"
        "    t.setdefault(f.name, f)\n"))) == 5
    assert not _by_name_tables(ast.parse(
        "a = {q.name: q.ty for q in fn.params}\nfor f in p.functions:\n"
        "    out[f.name] = build(f)\n    t.setdefault(f.name, set()).add(x)\n"))


# Made once per run or per error, these keep their dict: Program for its
# cached by-name indexes, the others for having a few instances at most.
PER_RUN_SINGLETONS = {"Program", "LockSummary", "AnalysisResult", "CallGraph",
                      "OwnershipError"}


def test_every_record_class_is_slotted_but_the_per_run_singletons():
    """A slotted instance has no per-instance dict; the library builds
    records by the thousand, so each of them is slotted. The record
    classes are the subclasses of ast.Record, 43 with the parser's
    `_AcquireExpr` marker and the per-function FlowGraph, and LockSets."""
    classes = record_classes(*(import_module("lockshift." + p.stem) for p in MODULES))
    assert len(classes) >= 43
    unslotted = {c.__name__ for c in [*classes, LockSets] if c.__dictoffset__}
    assert unslotted == PER_RUN_SINGLETONS


# Generated code: each of these compiles source text while the package is
# imported, or while it runs.
CODE_GENERATORS = {"dataclasses", "NamedTuple", "namedtuple", "exec", "eval"}


def _code_generators(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each import of dataclasses, each use of NamedTuple or
    namedtuple, and each call of exec or eval."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [node.func.id] if node.func.id in ("exec", "eval") else []
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            names = [name] if name in ("NamedTuple", "namedtuple") else []
        else:
            continue
        out += [(node.lineno, n) for n in names if n in CODE_GENERATORS]
    return out


def test_the_library_generates_no_code():
    """Every record class is written out: src/lockshift imports no
    dataclasses, defines no named tuple and calls neither exec nor eval."""
    found = ["%s:%d: %s" % (path.name, line, name) for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _code_generators(_tree(path))]
    assert not found, "code generators in the library:\n" + "\n".join(found)
    # The rule sees each form it forbids.
    sample = ast.parse("import dataclasses\nfrom dataclasses import field\n"
                       "from typing import NamedTuple\nimport collections\n"
                       "P = collections.namedtuple('P', 'x')\nexec(s)\neval(s)\n")
    assert sorted(name for _, name in _code_generators(sample)) == [
        "NamedTuple", "dataclasses", "dataclasses", "eval", "exec", "namedtuple"]


# Run in a fresh interpreter: counts the source the import compiles from a
# string, the text every generated method is made from.
COLD_IMPORT = """\
import sys
compiled = []
sys.addaudithook(lambda event, args: compiled.append(args[1])
                 if event == "compile" and args[1] == "<string>" else None)
import lockshift
print(len(compiled), "dataclasses" in sys.modules, "inspect" in sys.modules)
"""


def test_importing_the_package_compiles_no_string_and_loads_no_dataclasses():
    """`import lockshift` generates no method: it compiles no `<string>`
    source, and loads neither dataclasses nor the inspect module that
    dataclasses pulls in."""
    done = subprocess.run([sys.executable, "-c", COLD_IMPORT], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False", "False"]


def test_only_the_fixpoint_drivers_take_a_collector():
    """The lock-set fixpoints only compute. A dropped path is reported once,
    after its fixpoint has converged, by the driver that ran it; no step
    inside a fixpoint takes a warnings collector, which would need a buffer
    to drop what it said about a set that later changed."""
    drivers = {"analyze_scc", "analyze_program_flow", "propagate"}
    takers = set()
    for name in ("flowanalysis.py", "propagation.py"):
        for node in ast.walk(_tree(PACKAGE / name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                if any(a.arg == "diags" for a in (*args.posonlyargs, *args.args,
                                                  *args.kwonlyargs)):
                    takers.add(node.name)
    assert takers == drivers


# Parameters kept for their callers: bench/layers.py passes a collector to
# both of these, which report nothing.
UNREAD_PARAMETERS = {("callgraph.py", "build_call_graph", "diags"),
                     ("datalock.py", "infer_data_locks", "diags")}


def _unread_parameters(tree: ast.Module, module: str,
                       handlers: set[str]) -> list[tuple[str, int, str, str]]:
    """(module, line, function, parameter) for each parameter that its
    function's body never reads, but the first two of a dispatch handler
    (one of handlers): `self` and the node it is called with, which its
    type already decides, or the node and the kind of access it is read
    as, which some node types override for their operands."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  *filter(None, (args.vararg, args.kwarg)))]
        name = getattr(node, "name", "<lambda>")
        if name in handlers:
            params = params[2:]  # self, node
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(module, node.lineno, name, p) for p in params
                if p not in read and p not in ("self", "cls")]
    return out


def test_every_parameter_is_used():
    handlers = {f.__name__ for table in (parser._RESOLVE_STMT, parser._RESOLVE_EXPR,
                                         nodes._ACCESSES)
                for f in table.values()}
    unread = [u for path in MODULES + [PACKAGE / "__init__.py"]
              for u in _unread_parameters(_tree(path), path.name, handlers)]
    unused = ["%s:%d: %s(%s)" % u for u in unread if (u[0], u[2], u[3]) not in UNREAD_PARAMETERS]
    assert not unused, "parameters never read:\n" + "\n".join(unused)
    # Each allowed one is still there, and still unread.
    assert {(u[0], u[2], u[3]) for u in unread} >= UNREAD_PARAMETERS
    # The rule sees an unread parameter, of a lambda too, and a dispatch
    # handler's others.
    sample = ast.parse("def f(a, b):\n    return a\ng = lambda x, y: y\n"
                       "def resolve_nothing(self, node, extra): pass\n")
    assert sorted((u[2], u[3]) for u in _unread_parameters(
        sample, "sample.py", {"resolve_nothing"})) == [
        ("<lambda>", "x"), ("f", "b"), ("resolve_nothing", "extra")]


def test_every_node_type_has_its_resolver():
    """Every statement class of the ast has a _RESOLVE_STMT handler, every
    expression class but PayloadInit (a lock global's initializer, checked
    with its global) a _RESOLVE_EXPR one, and no handler is keyed by a class
    the ast does not define, but the parser's own `acquire()` marker. A form
    added or removed without its handler fails here, not as a KeyError."""
    classes = [c for c in vars(nodes).values()
               if isinstance(c, type) and c.__module__ == nodes.__name__]
    stmts = {c for c in classes if issubclass(c, nodes.Stmt) and c is not nodes.Stmt}
    exprs = {c for c in classes if issubclass(c, nodes.Expr)
             and c not in (nodes.Expr, nodes.PayloadInit)}
    assert set(parser._RESOLVE_STMT) == stmts
    assert set(parser._RESOLVE_EXPR) == exprs | {parser._AcquireExpr}


# The node types each back-end dispatch table leaves to its walker's
# default: numbers, guards and the payload initializer touch no datum; the
# transformer's input is plain, with no guarded form (a tuple is
# guarded-only too), and a number has nothing to rewrite; names and numbers
# use no guard, and a block none of its own; a simple statement is one
# step of the flow walk and one line of the printer's, and a block,
# if or while has no one-line text.
SIMPLE_STMTS = {nodes.Assign, nodes.CallAssign, nodes.AcquireAssign, nodes.DropCall}
PASS_THROUGH = {
    "ast._ACCESSES": {nodes.IntLit, nodes.GuardRef, nodes.PayloadInit},
    "transform._REWRITE_STMT": {nodes.AcquireAssign, nodes.DropCall},
    "transform._REWRITE_EXPR": {nodes.IntLit, nodes.GuardRef, nodes.PayloadAccess,
                                nodes.TupleExpr, nodes.PayloadInit},
    "printer._EXPR_TEXT": set(),
    "guardcheck._EVENTS": {nodes.Var, nodes.IntLit, nodes.PayloadInit},
    "guardcheck._STMT_EVENTS": {nodes.Block},
    "cfg._FLOW": SIMPLE_STMTS,
    "printer._STMT_TEXT": {nodes.Block, nodes.If, nodes.While},
    "printer._EMIT_STMT": SIMPLE_STMTS | {nodes.Return},
}


def test_every_node_type_has_its_back_end_handler_or_passes_through():
    """Each back-end table dispatches with `.get(type(node))`, so a form
    with no handler silently takes its walker's default. So every
    statement or expression class of the ast has a handler in each table,
    or is on that table's pass-through list, and never both; and no table
    is keyed by a class the ast does not define."""
    classes = [c for c in vars(nodes).values()
               if isinstance(c, type) and c.__module__ == nodes.__name__]
    stmts = {c for c in classes if issubclass(c, nodes.Stmt) and c is not nodes.Stmt}
    exprs = {c for c in classes if issubclass(c, nodes.Expr) and c is not nodes.Expr}
    transform = import_module("lockshift.transform")
    tables = {
        "ast._ACCESSES": (nodes._ACCESSES, exprs),
        "transform._REWRITE_STMT": (transform._REWRITE_STMT, stmts),
        "transform._REWRITE_EXPR": (transform._REWRITE_EXPR, exprs),
        "printer._EXPR_TEXT": (printer._EXPR_TEXT, exprs),
        "guardcheck._EVENTS": (guardcheck._EVENTS, exprs),
        "guardcheck._STMT_EVENTS": (guardcheck._STMT_EVENTS, stmts),
        "cfg._FLOW": (cfg._FLOW, stmts),
        "printer._STMT_TEXT": (printer._STMT_TEXT, stmts),
        "printer._EMIT_STMT": (printer._EMIT_STMT, stmts),
    }
    assert set(tables) == set(PASS_THROUGH)
    for name, (table, forms) in tables.items():
        passed = PASS_THROUGH[name]
        assert not set(table) & passed, name
        assert set(table) | passed == forms, name
