"""The lock summary: the JSON interchange format between analysis and
transformation.

Three maps: global_lock_map (protected global -> lock), struct_lock_map
(struct -> protected field -> lock field), and function_map (function ->
entry_lock / return_lock / lock_line). Serialization is canonical so golden
files and round-trips are byte-stable.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .ast import KEYWORDS, Program, path_of
from .diagnostics import SchemaError
from .lexer import IDENT
from .propagation import FunctionFlowSummary


@dataclass
class FunctionSummary:
    entry_lock: list[str] = field(default_factory=list)
    return_lock: list[str] = field(default_factory=list)
    lock_line: dict[str, list[int]] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not (self.entry_lock or self.return_lock or self.lock_line)


@dataclass
class LockSummary:
    global_lock_map: dict[str, str] = field(default_factory=dict)
    struct_lock_map: dict[str, dict[str, str]] = field(default_factory=dict)
    function_map: dict[str, FunctionSummary] = field(default_factory=dict)

    def function(self, name: str) -> FunctionSummary:
        return self.function_map.get(name, FunctionSummary())


def build_summary(global_map: dict[str, str],
                  struct_map: dict[str, dict[str, str]],
                  flow: dict[str, FunctionFlowSummary]) -> LockSummary:
    """Assemble the summary; functions with nothing to say are omitted."""
    function_map: dict[str, FunctionSummary] = {}
    for name in sorted(flow):
        s = flow[name]
        entry = sorted(p.text for p in s.els)
        ret = sorted(p.text for p in s.rls)
        lock_line = {p.text: sorted(set(lines)) for p, lines in s.lock_line.items()}
        fs = FunctionSummary(entry, ret, lock_line)
        if not fs.is_empty():
            function_map[name] = fs
    return LockSummary(
        {k: v for k, v in sorted(global_map.items())},
        {k: dict(sorted(v.items())) for k, v in sorted(struct_map.items())},
        function_map)


def write_summary(s: LockSummary) -> str:
    data = {
        "global_lock_map": s.global_lock_map,
        "struct_lock_map": s.struct_lock_map,
        "function_map": {
            name: {
                "entry_lock": fs.entry_lock,
                "return_lock": fs.return_lock,
                "lock_line": fs.lock_line,
            }
            for name, fs in s.function_map.items()
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


def _str_list(value, path: str) -> list[str]:
    _expect(isinstance(value, list), "expected a list", path)
    for i, v in enumerate(value):
        _expect(isinstance(v, str), "expected a string", "%s[%d]" % (path, i))
    return sorted(set(value))


def _line_map(value, path: str) -> dict[str, list[int]]:
    _expect(isinstance(value, dict), "expected an object", path)
    out = {}
    for k, lines in value.items():
        kpath = "%s.%s" % (path, k)
        _expect(isinstance(lines, list), "expected a list", kpath)
        for i, n in enumerate(lines):
            _expect(isinstance(n, int) and not isinstance(n, bool),
                    "expected an integer", "%s[%d]" % (kpath, i))
        out[k] = sorted(set(lines))
    return out


def read_summary(text: str) -> LockSummary:
    """Parse summary JSON; missing keys default empty, unknown keys are
    rejected with the offending JSON path."""
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
            _str_list(body.get("entry_lock", []), "%s.entry_lock" % fpath),
            _str_list(body.get("return_lock", []), "%s.return_lock" % fpath),
            _line_map(body.get("lock_line", {}), "%s.lock_line" % fpath))

    return LockSummary(global_map, struct_map, function_map)


def _is_name(segment: str) -> bool:
    return re.fullmatch(IDENT, segment) is not None and segment not in KEYWORDS


def validate_against_program(s: LockSummary, p: Program) -> None:
    """Check every name in the summary against the program."""
    global_types = {g.name: g.ty for g in p.globals}
    lock_names = {g.name for g in p.globals if g.ty.kind == "mutex" and g.ty.ptr == 0}
    for datum, lock in s.global_lock_map.items():
        gpath = "$.global_lock_map.%s" % datum
        _expect(datum in global_types, "unknown global %r" % datum, gpath)
        ty = global_types[datum]
        # The analysis never protects these; moved into a lock's payload they
        # give guarded code that does not check.
        _expect(ty.ptr > 0 or ty.kind not in ("mutex", "struct"),
                "global %r is a %s held by value, which no lock protects"
                % (datum, ty.kind), gpath)
        _expect(lock in lock_names, "unknown lock %r" % lock, gpath)
    for sname, fields in s.struct_lock_map.items():
        spath = "$.struct_lock_map.%s" % sname
        sd = p.struct(sname)
        _expect(sd is not None, "unknown struct %r" % sname, spath)
        field_types = {f.name: f.ty for f in sd.fields}
        for fname, lock in fields.items():
            _expect(fname in field_types, "unknown field %r" % fname,
                    "%s.%s" % (spath, fname))
            _expect(lock in field_types and field_types[lock].kind == "mutex",
                    "field %r is not a lock of struct %s" % (lock, sname),
                    "%s.%s" % (spath, fname))
    for fname, fs in s.function_map.items():
        fpath = "$.function_map.%s" % fname
        fn = p.function(fname)
        _expect(fn is not None, "unknown function %r" % fname, fpath)
        params = set(fn.param_names)
        for which, paths in (("entry_lock", fs.entry_lock),
                             ("return_lock", fs.return_lock),
                             ("lock_line", list(fs.lock_line))):
            for text in paths:
                where = "%s.%s" % (fpath, which)
                _expect(all(_is_name(seg) for seg in text.split(".")),
                        "lock path %r is not a dotted list of identifiers" % text,
                        where)
                root = path_of(text).root
                _expect(root in params or root in global_types,
                        "lock path %r names no global or parameter of %s"
                        % (text, fname), where)
