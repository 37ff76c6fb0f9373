"""The lock summary: the JSON interchange format between analysis and
transformation.

Three maps: global_lock_map (protected global -> lock), struct_lock_map
(struct -> protected field -> lock field), and function_map (function ->
entry_lock / return_lock / lock_line). In memory a lock path is a LockPath;
only read_summary and write_summary turn it into dotted text and back.
Serialization is canonical so golden files and round-trips are byte-stable.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .ast import KEYWORDS, LockPath, Program, holds_data, lock_path_type, path_of
from .diagnostics import SchemaError
from .lexer import IDENT


@dataclass
class FunctionSummary:
    """One function's lock facts: its entry and return lock sets, and the
    lines on which each lock is surely held."""

    entry_lock: frozenset[LockPath] = frozenset()
    return_lock: frozenset[LockPath] = frozenset()
    lock_line: dict[LockPath, frozenset[int]] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not (self.entry_lock or self.return_lock or self.lock_line)


@dataclass
class LockSummary:
    global_lock_map: dict[str, str] = field(default_factory=dict)
    struct_lock_map: dict[str, dict[str, str]] = field(default_factory=dict)
    function_map: dict[str, FunctionSummary] = field(default_factory=dict)

    def function(self, name: str) -> FunctionSummary:
        return self.function_map.get(name, FunctionSummary())

    def lock_of(self, struct: str | None, name: str) -> str | None:
        """The lock beside datum name: of a global when struct is None,
        else of a field of that struct."""
        if struct is None:
            return self.global_lock_map.get(name)
        return self.struct_lock_map.get(struct, {}).get(name)


def build_summary(global_map: dict[str, str],
                  struct_map: dict[str, dict[str, str]],
                  functions: dict[str, FunctionSummary]) -> LockSummary:
    """Wrap the lock maps and the per-function records."""
    return LockSummary(global_map, struct_map, functions)


def write_summary(s: LockSummary) -> str:
    """Canonical JSON; functions with nothing to say are left out."""
    data = {
        "global_lock_map": s.global_lock_map,
        "struct_lock_map": s.struct_lock_map,
        "function_map": {
            name: {
                "entry_lock": [p.text for p in sorted(fs.entry_lock)],
                "return_lock": [p.text for p in sorted(fs.return_lock)],
                "lock_line": {p.text: sorted(lines)
                              for p, lines in fs.lock_line.items()},
            }
            for name, fs in s.function_map.items() if not fs.is_empty()
        },
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


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


def _line_map(value, path: str) -> dict[LockPath, frozenset[int]]:
    _expect(isinstance(value, dict), "expected an object", path)
    out = {}
    for k, lines in value.items():
        kpath = "%s.%s" % (path, k)
        _expect(isinstance(lines, list), "expected a list", kpath)
        for i, n in enumerate(lines):
            _expect(isinstance(n, int) and not isinstance(n, bool),
                    "expected an integer", "%s[%d]" % (kpath, i))
        out[_lock_path(k, path)] = frozenset(lines)
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


def _check_lock_map(lock_map: dict[str, str], decls, noun: str, path: str) -> None:
    """Each datum must hold data and its lock must be a mutex, both declared
    in decls; `noun % name` names either in messages."""
    types = {d.name: d.ty for d in decls}
    for datum, lock in lock_map.items():
        where = "%s.%s" % (path, datum)
        _expect(datum in types, "unknown " + noun % datum, where)
        # Moved into a lock's payload, these give guarded code that does
        # not check; the analysis never protects them.
        _expect(holds_data(types[datum]),
                noun % datum + " holds no data a lock can protect", where)
        _expect(lock in types and types[lock].is_mutex(),
                noun % lock + " is not a mutex", where)


def validate_against_program(s: LockSummary, p: Program) -> None:
    """Check every name in the summary against the program. Each lock path
    of a function, each set in path order, must start at a global or one of
    its parameters and name a lock, as a guard's path must in guarded code."""
    _check_lock_map(s.global_lock_map, p.globals, "global %r", "$.global_lock_map")
    for sname, fields in s.struct_lock_map.items():
        spath = "$.struct_lock_map.%s" % sname
        sd = p.struct(sname)
        _expect(sd is not None, "unknown struct %r" % sname, spath)
        _check_lock_map(fields, sd.fields, "field %%r of struct %s" % sname, spath)
    global_types = {g.name: g.ty for g in p.globals}
    structs = {sd.name: sd for sd in p.structs}
    for fname, fs in s.function_map.items():
        fpath = "$.function_map.%s" % fname
        fn = p.function(fname)
        _expect(fn is not None, "unknown function %r" % fname, fpath)
        scope = global_types | {param.name: param.ty for param in fn.params}
        for which, paths in (("entry_lock", fs.entry_lock),
                             ("return_lock", fs.return_lock),
                             ("lock_line", fs.lock_line)):
            where = "%s.%s" % (fpath, which)
            for lp in sorted(paths):
                _expect(lp.root in scope, "lock path %r names no global or "
                        "parameter of %s" % (lp.text, fname), where)
                _expect(lock_path_type(lp, scope[lp.root], structs) is not None,
                        "lock path %r of %s is not a lock" % (lp.text, fname), where)
