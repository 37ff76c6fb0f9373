"""The lock summary: the JSON interchange format between analysis and
transformation.

Three maps: global_lock_map (protected global -> lock), struct_lock_map
(struct -> protected field -> lock field), and function_map (function ->
entry_lock / return_lock / lock_line). In memory a lock path is the tuple
of its names; only read_summary and write_summary turn it into dotted text
and back. A lock's held lines are the ascending tuple of their numbers,
the order write_summary writes them in.
Serialization is canonical so golden files and round-trips are byte-stable.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

from .ast import (KEYWORDS, FunctionDef, LockPath, Program, ValueRecord, holds_data,
                  lock_path_type, path_of, root_type)
from .diagnostics import SchemaError
from .lexer import IDENT


class FunctionSummary(ValueRecord):
    """One function's lock facts: its entry and return lock sets, and the
    lines on which each lock is surely held, by lock path, each an
    ascending tuple of distinct line numbers."""

    __slots__ = ("entry_lock", "return_lock", "lock_line")

    def __init__(self, entry_lock: frozenset[LockPath] = frozenset(),
                 return_lock: frozenset[LockPath] = frozenset(),
                 lock_line: dict[LockPath, tuple[int, ...]] | None = None):
        self.entry_lock = entry_lock
        self.return_lock = return_lock
        self.lock_line = {} if lock_line is None else lock_line

    def is_empty(self) -> bool:
        return not (self.entry_lock or self.return_lock or self.lock_line)


class LockSummary(ValueRecord):
    def __init__(self, global_lock_map: dict[str, str] | None = None,
                 struct_lock_map: dict[str, dict[str, str]] | None = None,
                 function_map: dict[str, FunctionSummary] | None = None):
        self.global_lock_map = {} if global_lock_map is None else global_lock_map
        self.struct_lock_map = {} if struct_lock_map is None else struct_lock_map
        self.function_map = {} if function_map is None else function_map

    def function(self, name: str) -> FunctionSummary:
        return self.function_map.get(name) or FunctionSummary()


def named_lock_paths(fn: FunctionDef, fs: FunctionSummary) -> set[LockPath]:
    """The lock paths fn names: those of its lock-API calls, its entry and
    return sets and its held lines."""
    paths = {c.lock for c in fn.calls if c.lock is not None}
    paths.update(fs.entry_lock, fs.return_lock, fs.lock_line)
    return paths


def build_summary(global_map: dict[str, str],
                  struct_map: dict[str, dict[str, str]],
                  functions: dict[str, FunctionSummary]) -> LockSummary:
    """Wrap the lock maps and the per-function records."""
    return LockSummary(global_map, struct_map, functions)


def write_summary(s: LockSummary) -> str:
    """Canonical JSON as write_json writes the three maps, without functions
    that have nothing to say; each distinct lock set is rendered once."""
    sets: dict[frozenset[LockPath], str] = {}
    functions = []
    for name in sorted(s.function_map):
        fs = s.function_map[name]
        if fs.is_empty():
            continue
        for paths in (fs.entry_lock, fs.return_lock):
            if paths not in sets:
                sets[paths] = _path_list(paths)
        lines = {".".join(p): ls for p, ls in fs.lock_line.items()}
        lock_line = [encode_basestring_ascii(t) + ": "
                     + _block(list(map(str, lines[t])), " " * 8, "[]")
                     for t in sorted(lines)]
        functions.append(encode_basestring_ascii(name) + ": " + _block(
            ['"entry_lock": ' + sets[fs.entry_lock],
             '"lock_line": ' + _block(lock_line, " " * 6, "{}"),
             '"return_lock": ' + sets[fs.return_lock]], " " * 4, "{}"))
    return _block(['"function_map": ' + _block(functions, "  ", "{}"),
                   '"global_lock_map": ' + write_json(s.global_lock_map, "  "),
                   '"struct_lock_map": ' + write_json(s.struct_lock_map, "  ")],
                  "", "{}") + "\n"


def _path_list(paths: frozenset[LockPath]) -> str:
    """An entry or return set as write_summary writes it, in path order."""
    return _block([encode_basestring_ascii(".".join(p)) for p in sorted(paths)], " " * 6, "[]")


def _block(items: list[str], pad: str, brackets: str) -> str:
    """Written items inside brackets, "[]" or "{}", one to a line one level
    deeper than pad, as json.dumps(indent=2) lays them out."""
    if not items:
        return brackets
    inner = pad + "  "
    return "%s\n%s%s\n%s%s" % (brackets[0], inner, (",\n" + inner).join(items), pad, brackets[1])


def write_json(value, pad: str = "") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, for
    dicts with string keys, lists, strings and ints; anything else is a
    TypeError. The canonical form of every JSON file the library writes
    (write_summary writes the function map itself). json's own encoder
    takes its pure-Python path whenever it indents."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        return _block([encode_basestring_ascii(k) + ": " + write_json(value[k], inner)
                       for k in sorted(value)], pad, "{}")
    if isinstance(value, list):
        return _block([write_json(v, inner) for v in value], pad, "[]")
    raise TypeError("cannot write %s as JSON" % type(value).__name__)


def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SchemaError(message, path)


def _str_map(value, path: str) -> dict[str, str]:
    _expect(isinstance(value, dict), "expected an object", path)
    out = {}
    for k, v in value.items():
        _expect(isinstance(v, str), "expected a string", "%s.%s" % (path, k))
        out[k] = v
    return out


def _is_name(segment: str) -> bool:
    return re.fullmatch(IDENT, segment) is not None and segment not in KEYWORDS


def _lock_path(text: str, path: str) -> LockPath:
    _expect(all(_is_name(seg) for seg in text.split(".")),
            "lock path %r is not a dotted list of identifiers" % text, path)
    return path_of(text)


def _path_set(value, path: str) -> frozenset[LockPath]:
    _expect(isinstance(value, list), "expected a list", path)
    for i, v in enumerate(value):
        _expect(isinstance(v, str), "expected a string", "%s[%d]" % (path, i))
    return frozenset(_lock_path(text, path) for text in sorted(set(value)))


def _line_map(value, path: str) -> dict[LockPath, tuple[int, ...]]:
    _expect(isinstance(value, dict), "expected an object", path)
    out = {}
    for k, lines in value.items():
        kpath = "%s.%s" % (path, k)
        _expect(isinstance(lines, list), "expected a list", kpath)
        for i, n in enumerate(lines):
            _expect(isinstance(n, int) and not isinstance(n, bool),
                    "expected an integer", "%s[%d]" % (kpath, i))
        out[_lock_path(k, path)] = tuple(sorted(set(lines)))
    return out


def read_summary(text: str) -> LockSummary:
    """Parse summary JSON; missing keys default empty, unknown keys and lock
    paths that are not dotted lists of identifiers are rejected with the
    offending JSON path. The one place lock-path text is read."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("invalid JSON: %s" % exc, "$") from None
    _expect(isinstance(data, dict), "summary must be an object", "$")
    for key in data:
        _expect(key in ("global_lock_map", "struct_lock_map", "function_map"),
                "unknown key %r" % key, "$.%s" % key)

    global_map = _str_map(data.get("global_lock_map", {}), "$.global_lock_map")

    struct_value = data.get("struct_lock_map", {})
    _expect(isinstance(struct_value, dict), "expected an object", "$.struct_lock_map")
    struct_map = {
        sname: _str_map(fields, "$.struct_lock_map.%s" % sname)
        for sname, fields in struct_value.items()
    }

    fn_value = data.get("function_map", {})
    _expect(isinstance(fn_value, dict), "expected an object", "$.function_map")
    function_map: dict[str, FunctionSummary] = {}
    for fname, body in fn_value.items():
        fpath = "$.function_map.%s" % fname
        _expect(isinstance(body, dict), "expected an object", fpath)
        for key in body:
            _expect(key in ("entry_lock", "return_lock", "lock_line"),
                    "unknown key %r" % key, "%s.%s" % (fpath, key))
        function_map[fname] = FunctionSummary(
            _path_set(body.get("entry_lock", []), "%s.entry_lock" % fpath),
            _path_set(body.get("return_lock", []), "%s.return_lock" % fpath),
            _line_map(body.get("lock_line", {}), "%s.lock_line" % fpath))

    return LockSummary(global_map, struct_map, function_map)


def _check_lock_map(lock_map: dict[str, str], decl_of, noun: str, path: str) -> None:
    """Each datum must hold data and its lock must be a mutex, both found by
    decl_of; `noun % name` names either in messages."""
    for datum, lock in lock_map.items():
        where = "%s.%s" % (path, datum)
        d = decl_of(datum)
        _expect(d is not None, "unknown " + noun % datum, where)
        # Moved into a lock's payload, these give guarded code that does
        # not check; the analysis never protects them.
        _expect(holds_data(d.ty), noun % datum + " holds no data a lock can protect", where)
        d = decl_of(lock)
        _expect(d is not None and d.ty.is_mutex(), noun % lock + " is not a mutex", where)


def validate_against_program(s: LockSummary, p: Program) -> None:
    """Check every name in the summary against the program. Each lock path
    of a function, each set in path order, must start at a global or one of
    its parameters and name a lock, as a guard's path must in guarded code."""
    _check_lock_map(s.global_lock_map, p.global_decl, "global %r", "$.global_lock_map")
    for sname, fields in s.struct_lock_map.items():
        spath = "$.struct_lock_map.%s" % sname
        sd = p.struct(sname)
        _expect(sd is not None, "unknown struct %r" % sname, spath)
        _check_lock_map(fields, sd.field_decl, "field %%r of struct %s" % sname, spath)
    # Whether a path rooted at a global names a lock: the same in every function.
    global_lock: dict[LockPath, bool] = {}

    def names_lock(lp: LockPath, params: dict) -> bool:
        if lp[0] in params:
            return lock_path_type(lp, params, p) is not None
        ok = global_lock.get(lp)
        if ok is None:
            ok = global_lock[lp] = lock_path_type(lp, params, p) is not None
        return ok

    for fname, fs in s.function_map.items():
        fn = p.function(fname)
        if fn is None:
            raise SchemaError("unknown function %r" % fname, "$.function_map.%s" % fname)
        params = {param.name: param.ty for param in fn.params}
        for which, paths in (("entry_lock", fs.entry_lock),
                             ("return_lock", fs.return_lock),
                             ("lock_line", fs.lock_line)):
            # A path that names a lock has a root, so the first path in
            # order that fails either check is the first that names no lock.
            bad = [lp for lp in paths if not names_lock(lp, params)]
            if not bad:
                continue
            lp, where = min(bad), "$.function_map.%s.%s" % (fname, which)
            if root_type(lp, params, p) is None:
                raise SchemaError("lock path %r names no global or parameter of %s"
                                  % (".".join(lp), fname), where)
            raise SchemaError("lock path %r of %s is not a lock" % (".".join(lp), fname), where)
    # A datum moved into a payload takes the lock paths through it along,
    # and they would name no lock.
    for fn in p.functions if s.global_lock_map or s.struct_lock_map else ():
        params = {param.name: param.ty for param in fn.params}
        moved = [lp for lp in named_lock_paths(fn, s.function(fn.name))
                 if len(lp) > 1 and _moved_through(lp, params, s, p)]
        if moved:
            lp = min(moved)
            raise SchemaError("this datum cannot move into a payload: lock path %r of %s "
                              "runs through it" % (".".join(lp), fn.name),
                              _moved_through(lp, params, s, p))


def _moved_through(lp: LockPath, params: dict, s: LockSummary, p: Program) -> str | None:
    """Where s maps the first datum that lock path lp, of two or more
    names, runs through to a lock, or None when it maps none."""
    if lp[0] not in params and lp[0] in s.global_lock_map:
        return "$.global_lock_map.%s" % lp[0]
    ty = root_type(lp, params, p)
    for seg in lp[1:-1]:
        if seg in s.struct_lock_map.get(ty.name, ()):
            return "$.struct_lock_map.%s.%s" % (ty.name, seg)
        ty = p.struct(ty.name).field_decl(seg).ty
    return None
