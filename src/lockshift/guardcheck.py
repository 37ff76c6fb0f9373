"""Ownership checking for guard variables.

Forward, path-insensitive flow per function: a guard is Uninit at its
declaration, Owned when acquired or received (parameter, call result),
Moved once dropped, passed on, or returned. Joining different states across
paths gives Conflict. Dereferencing requires Owned; moving requires Owned
and consumes. Assigning into a guard is never a use, so reacquiring in a
loop or overwriting an owned guard is fine.

The flow needs no graph: every function, one without guards too, is checked
by walking its Block/If/While/Return tree. Its n guards are numbered 0..n-1,
and the state at a program point is one int of three n-bit fields: bit i set
means guard i may be Uninit there, bit n+i that it may be Owned, bit 2n+i
that it may be Moved. Paths join by `|`, and a guard with two or more bits
set is in Conflict. A move or a receipt clears the guard's three bits and
sets one. After a return, and where no path reaches, the state is None.

A while head joins its entry with its body's exit until it stops growing.
Each loop keeps that head and the exit it gave, and a later visit whose
entry is already inside the head takes that exit without walking the body.
A head starts with at least n of its 3n bits and only grows. A visit that
walks the body grows it on entry (unless it is the first visit) and after
each walk but its last, so a body is walked at most 2n+1 times to find its
head, however deeply loops nest. The same walk, run once more from the
top with report set, then checks each statement's uses against its state
once the enclosing loop heads are at their fixpoint, and warns about each
statement no path reaches, as the analysis CFGs do.

The checker reports errors; it never throws. An empty list means accepted.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    AcquireAssign,
    AddrOf,
    Assign,
    Binary,
    Block,
    Call,
    CallAssign,
    Deref,
    DropCall,
    Expr,
    FieldAccess,
    FunctionDef,
    GuardRef,
    If,
    IntLit,
    PayloadAccess,
    Program,
    Return,
    Stmt,
    TupleExpr,
    Var,
    While,
    iter_stmts,
)
from .diagnostics import Diagnostics, gc_paused

USE_OF_UNINIT = "UseOfUninit"
USE_AFTER_MOVE = "UseAfterMove"
CONFLICTING_PATHS = "ConflictingPaths"


@dataclass(frozen=True)
class OwnershipError:
    kind: str
    guard: str
    function: str
    line: int

    def __str__(self) -> str:
        return "%s: %s at %s line %d" % (self.kind, self.guard, self.function, self.line)


def _expr_events(e: Expr | None, out: list[tuple[str, str]]) -> None:
    """Guard uses inside an expression, in evaluation order.

    ("move", g) consumes ownership (argument passing, returning);
    ("deref", g) requires ownership without consuming it.
    """
    # The forms are tested most frequent first; names and literals use no guard.
    if isinstance(e, PayloadAccess):
        if e.guard is not None:
            out.append(("deref", e.guard))
    elif isinstance(e, Binary):
        _expr_events(e.lhs, out)
        _expr_events(e.rhs, out)
    elif e is None or isinstance(e, (Var, IntLit)):
        return
    elif isinstance(e, GuardRef):
        out.append(("move", e.name))
    elif isinstance(e, FieldAccess):
        _expr_events(e.base, out)
    elif isinstance(e, (AddrOf, Deref)):
        _expr_events(e.expr, out)
    elif isinstance(e, Call):
        for a in e.args:
            _expr_events(a, out)
    elif isinstance(e, TupleExpr):
        for item in e.items:
            _expr_events(item, out)


def _stmt_events(s: Stmt) -> tuple[list[tuple[str, str]], list[str]]:
    """(uses in order, guards assigned ownership afterwards)."""
    uses: list[tuple[str, str]] = []
    gets: list[str] = []
    if isinstance(s, AcquireAssign):
        gets.append(s.guard)
    elif isinstance(s, DropCall):
        uses.append(("move", s.guard))
    elif isinstance(s, CallAssign):
        _expr_events(s.call, uses)
        for t in s.targets:
            if isinstance(t, GuardRef):  # a target receives its guard
                gets.append(t.name)
            elif isinstance(t, Expr):
                _expr_events(t, uses)
    elif isinstance(s, Assign):
        _expr_events(s.value, uses)
        _expr_events(s.place, uses)
    elif isinstance(s, (If, While)):
        _expr_events(s.cond, uses)
    elif isinstance(s, Return):
        _expr_events(s.value, uses)
    return uses, gets


class _Walk:
    """One function's check: its guards' bits, each loop's head and exit,
    and what the reporting walk found."""

    __slots__ = ("function", "bits", "loops", "errors", "diags")

    def __init__(self, function: str, bits: dict[str, tuple[int, int, int]],
                 diags: Diagnostics):
        self.function = function
        self.bits = bits
        self.loops: dict[int, tuple[int, int]] = {}
        self.errors: set[OwnershipError] = set()
        self.diags = diags


def _step(w: _Walk, s: Stmt, state: int, report: bool) -> int:
    """The state after s itself runs from state. With report, each guard
    use is checked against the state it meets."""
    uses, gets = _stmt_events(s)
    bits = w.bits
    for kind, name in uses:
        b = bits.get(name)
        if b is None:
            continue
        u, o, m = b
        if report:
            held = state & (u | o | m)
            if held != o:
                error = (USE_OF_UNINIT if held == u else USE_AFTER_MOVE if held == m
                         else CONFLICTING_PATHS)
                w.errors.add(OwnershipError(error, name, w.function, s.line))
        if kind == "move":
            state = state & ~(u | o | m) | m
    for name in gets:
        b = bits.get(name)
        if b is not None:
            u, o, m = b
            state = state & ~(u | o | m) | o
    return state


def _loop(w: _Walk, s: While, entry: int) -> tuple[int, int]:
    """(head, exit) of loop s entered in state entry: the head joins entry
    with the body's exit until it stops growing, and the exit is the head
    after the condition."""
    memo = w.loops.get(id(s))
    if memo is not None:
        head = memo[0]
        if entry | head == head:
            return memo
        head |= entry
    else:
        head = entry
    while True:
        out = _step(w, s, head, False)
        back = _flow(w, s.body.stmts, out, False)
        if back is None or back | head == head:
            break
        head |= back
    memo = w.loops[id(s)] = (head, out)
    return memo


def _either(a: int | None, b: int | None) -> int | None:
    """The state where two paths meet; None stands for no path."""
    return b if a is None else a if b is None else a | b


def _flow(w: _Walk, stmts: list[Stmt], state: int | None,
          report: bool) -> int | None:
    """The state after stmts run from state; None once every path returned.
    With report, the enclosing loop heads are at their fixpoint: each use is
    checked against the state it meets, and each statement no path reaches
    is warned about."""
    for s in stmts:
        if state is None:
            if not report:
                return None
            for d in iter_stmts(Block(stmts=[s])):
                if not isinstance(d, Block):
                    w.diags.warn("unreachable statement removed from flow graph",
                                 function=w.function, line=d.line)
        elif isinstance(s, Block):
            state = _flow(w, s.stmts, state, report)
        elif isinstance(s, While):
            head, state = _loop(w, s, state)
            if report:
                _step(w, s, head, True)
                _flow(w, s.body.stmts, state, True)
        elif isinstance(s, If):
            state = _step(w, s, state, report)
            then = _flow(w, s.then.stmts, state, report)
            if s.orelse is not None:
                state = _flow(w, s.orelse.stmts, state, report)
            state = _either(then, state)
        elif isinstance(s, Return):
            if not report:
                return None
            _step(w, s, state, True)
            state = None
        else:
            state = _step(w, s, state, report)
    return state


def _check_function(fn: FunctionDef, diags: Diagnostics) -> list[OwnershipError]:
    owned = {d.guard: False for d in fn.guard_decls}
    for p in fn.params:
        if p.ty.kind == "guard":
            owned[p.name] = True
    n = len(owned)
    bits: dict[str, tuple[int, int, int]] = {}
    state = 0
    for i, (name, is_owned) in enumerate(owned.items()):
        u, o, m = 1 << i, 1 << (n + i), 1 << (2 * n + i)
        bits[name] = (u, o, m)
        state |= o if is_owned else u
    w = _Walk(fn.name, bits, diags)
    _flow(w, fn.body.stmts, state, True)
    return sorted(w.errors, key=lambda e: (e.line, e.guard, e.kind))


@gc_paused
def check(gp: Program, diags: Diagnostics | None = None) -> list[OwnershipError]:
    """All ownership errors in the program, per function in program order."""
    if diags is None:
        diags = Diagnostics()
    errors: list[OwnershipError] = []
    for fn in gp.functions:
        errors.extend(_check_function(fn, diags))
    return errors
