"""The output is the input plus guards: an erasure check.

Erasing the guards from a printed program must give back its source
(translation validation, Pnueli, Siegel & Singerman, TACAS 1998). Each
function erases statement by statement, with line numbers:

- `g = p.acquire()` is a lock of p and `drop(g)` an unlock of g's lock, as
  `pthread_mutex_lock(&p)` and `pthread_mutex_unlock(&p)` are on the
  source side, which drops its `pthread_mutex_init` calls;
- `(*g).f` and `p.get_mut().f` are the datum: p without its last segment,
  then f;
- guard arguments, guard targets, `_` targets and returned guards go, and
  so do guard parameters, returned guard types and a bare `return` that
  ends a body;
- both sides write `->` and `(*r).` as `.`, since a lock path drops `*`.

Each declaration erases too: a source global is printed unchanged, or it
is a field of its lock's payload, with its own initializer (`0` where it
had none); a `mutex<P>` is the `mutex_t` it was, and a struct keeps its
fields, some of them moved into the payload of one of its locks.
"""
from __future__ import annotations

import pytest

from lockshift.ast import (
    INIT_FN,
    LOCK_FN,
    UNLOCK_FN,
    AcquireAssign,
    AddrOf,
    Assign,
    Binary,
    Block,
    Call,
    CallAssign,
    Deref,
    Discard,
    DropCall,
    FieldAccess,
    GuardRef,
    If,
    IntLit,
    PayloadAccess,
    Return,
    TupleExpr,
    Type,
    Var,
    While,
)
from lockshift.parser import parse_guarded

from corpus import completed, run_program
from helpers import fixture_text

MUTEX = ("mutex", None, None, 0)
VOID = (("void", None, None, 0),)


def expr_text(e) -> str:
    """e with its guards erased, every operation in parentheses."""
    kind = type(e)
    if kind is IntLit:
        return str(e.value)
    if kind is Var:
        return e.name
    if kind is FieldAccess:
        base = e.base
        while type(base) is Deref:
            base = base.expr
        return "%s.%s" % (expr_text(base), e.fld)
    if kind is PayloadAccess:
        return ".".join(e.path[:-1] + (e.fld,))
    if kind is AddrOf:
        return "&(%s)" % expr_text(e.expr)
    if kind is Deref:
        return "*(%s)" % expr_text(e.expr)
    if kind is Binary:
        return "(%s %s %s)" % (expr_text(e.lhs), e.op, expr_text(e.rhs))
    if kind is Call:
        return "%s(%s)" % (e.name, ", ".join(_values(e.args)))
    raise AssertionError("%s does not erase" % kind.__name__)


def _values(items) -> list[str]:
    """The texts of the items that are no guard or `_`."""
    return [expr_text(x) for x in items if type(x) is not GuardRef and type(x) is not Discard]


def _stmts(stmts, guards, out: list) -> None:
    """Append (line, text) of each of stmts, erased, to out; a compound
    statement brackets its blocks with lines of its own."""
    for s in stmts:
        kind, line = type(s), s.line
        if kind is Assign:
            value = expr_text(s.value)
            out.append((line, value if s.place is None
                        else "%s = %s" % (expr_text(s.place), value)))
        elif kind is CallAssign:
            c = s.call
            if c.name == LOCK_FN or c.name == UNLOCK_FN:
                out.append((line, "%s %s" % ("lock" if c.name == LOCK_FN else "unlock",
                                             ".".join(c.lock))))
            elif c.name != INIT_FN:
                targets = _values(s.targets)
                out.append((line, "%s%s" % ("".join(t + " = " for t in targets),
                                            expr_text(c))))
        elif kind is AcquireAssign:
            out.append((line, "lock " + ".".join(s.path)))
        elif kind is DropCall:
            out.append((line, "unlock " + ".".join(guards[s.guard])))
        elif kind is Return:
            value = s.value
            items = value.items if type(value) is TupleExpr else [] if value is None else [value]
            out.append((line, " ".join(["return", *_values(items)])))
        elif kind is If:
            out.append((line, "if %s" % expr_text(s.cond)))
            _stmts(s.then.stmts, guards, out)
            if s.orelse is not None:
                out.append((line, "else"))
                _stmts(s.orelse.stmts, guards, out)
            out.append((line, "end if"))
        elif kind is While:
            out.append((line, "while %s" % expr_text(s.cond)))
            _stmts(s.body.stmts, guards, out)
            out.append((line, "end while"))
        elif kind is Block:
            out.append((line, "{"))
            _stmts(s.stmts, guards, out)
            out.append((line, "}"))
        else:
            raise AssertionError("%s does not erase" % kind.__name__)


def erase_function(fn) -> tuple:
    """fn's name, first line, parameters, returned types and statements,
    guards erased. The printer closes a block on the line of its last
    statement, so a function's last line is not kept."""
    guards = {d.guard: d.path for d in fn.guard_decls}
    guards.update((p.name, p.ty.path) for p in fn.params if p.ty.kind == "guard")
    body: list = []
    _stmts(fn.body.stmts, guards, body)
    if body and body[-1][1] == "return":
        body.pop()
    params = [(_type(p.ty), p.name) for p in fn.params if p.ty.kind != "guard"]
    rets = tuple([_type(t) for t in fn.rets if t.kind != "guard"]) or VOID
    return fn.name, fn.line_span[0], params, rets, body


def _type(ty: Type) -> tuple:
    """ty's fields, a `mutex<P>` erased to a `mutex_t`."""
    return MUTEX if ty.kind == "lock" else (ty.kind, ty.name, ty.path, ty.ptr)


def erase_declarations(p) -> tuple[dict, dict]:
    """p's globals, as (type, initializer text, line) by name, and its
    structs, as the set of (type, name) of their fields by name: each
    `mutex<P>` erased to a `mutex_t` and its payload's fields to the data
    it protects, a global's with the initializer the lock gives it."""
    payloads = {d.ty.name for d in [*p.globals, *(fd for sd in p.structs for fd in sd.fields)]
                if d.ty.kind == "lock"}
    globals_ = {}
    for g in p.globals:
        if g.ty.kind != "lock":
            globals_[g.name] = (_type(g.ty), None if g.init is None else expr_text(g.init),
                                g.line)
            continue
        globals_[g.name] = (MUTEX, None, g.line)
        inits = dict(g.init.inits) if g.init is not None else {}
        for fd in p.struct(g.ty.name).fields:
            init = inits.get(fd.name)
            globals_[fd.name] = (_type(fd.ty), None if init is None else expr_text(init), None)
    structs = {}
    for sd in p.structs:
        if sd.name in payloads:
            continue
        out = structs[sd.name] = set()
        for fd in sd.fields:
            out.add((_type(fd.ty), fd.name))
            if fd.ty.kind == "lock":
                out.update((_type(f.ty), f.name) for f in p.struct(fd.ty.name).fields)
    return globals_, structs


def erasure_mismatch(source, printed) -> str | None:
    """Where the erasure of printed, a guarded program, first differs
    from source, the plain program it came from; None when it gives
    source back."""
    if len(source.functions) != len(printed.functions):
        return "%d functions, not %d" % (len(printed.functions), len(source.functions))
    for fn, gn in zip(source.functions, printed.functions):
        want, got = erase_function(fn), erase_function(gn)
        if want[:4] != got[:4]:
            return "%s: signature %r != %r" % (fn.name, want[:4], got[:4])
        for w, g in zip(want[4] + [None], got[4] + [None]):
            if w != g:
                return "%s: %r != %r" % (fn.name, w, g)
    want_globals, want_structs = erase_declarations(source)
    got_globals, got_structs = erase_declarations(printed)
    if want_structs != got_structs:
        return "structs: %r != %r" % (want_structs, got_structs)
    for name, (ty, init, line) in want_globals.items():
        got = got_globals.get(name)
        if got is None:
            return "global %s is gone" % name
        if got[2] is None:  # a payload field: its line is its lock's
            want = (ty, "0" if init is None else init)
            if got[:2] != want:
                return "global %s: %r != %r" % (name, want, got[:2])
        elif got != (ty, init, line):
            return "global %s: %r != %r" % (name, (ty, init, line), got)
    extra = set(got_globals) - set(want_globals)
    return "globals %s are new" % sorted(extra) if extra else None


def test_every_printed_program_erases_to_its_source(corpus):
    """On every completed pinned program. The counts are of the corpus:
    programs, statement texts (the lines that bracket a block among them),
    lock operations, and globals and structs."""
    programs = statements = locks = declarations = 0
    for name, run in completed(corpus):
        assert run.reparsed is not None, name
        mismatch = erasure_mismatch(run.program, run.reparsed)
        assert mismatch is None, (name, mismatch)
        programs += 1
        for fn in run.program.functions:
            body = erase_function(fn)[4]
            statements += len(body)
            locks += sum(text.startswith(("lock ", "unlock ")) for _, text in body)
        declarations += len(run.program.globals) + len(run.program.structs)
    assert (programs, statements, locks, declarations) == (220, 4270, 1279, 1235)


@pytest.mark.parametrize("old, new", [
    ("n + 1; drop(m_guard); }", "n + 1; }"),
    ("(*m_guard).n = (*m_guard).n + 1; drop(m_guard); }",
     "drop(m_guard); (*m_guard).n = (*m_guard).n + 1; }"),
], ids=["dropped-statement", "drop-moved-by-one-statement"])
def test_the_erasure_check_sees_a_changed_statement(old, new):
    """Each change to listing1's output, on one line of f, leaves a
    program that parses but no longer erases to its source."""
    run = run_program(fixture_text("listing1.mc"))
    assert erasure_mismatch(run.program, run.reparsed) is None
    assert old in run.printed
    changed = parse_guarded(run.printed.replace(old, new, 1))
    assert erasure_mismatch(run.program, changed) is not None
