"""Ownership checking for guard variables.

Forward, path-insensitive flow per function: a guard is Uninit at its
declaration, Owned when acquired or received (parameter, call result),
Moved once dropped, passed on, or returned. Joining different states across
paths gives Conflict. Dereferencing and lending (`&g`) require Owned;
moving requires Owned and consumes. A lent parameter `&guard<p>` is Owned
throughout, as the resolver lets nothing move or rebind it. Assigning into a guard is never a use, so reacquiring in a
loop or overwriting an owned guard is fine.

The flow needs no graph: each function, one without guards too, is one
cfg.flow walk with _step as its step. Its n guards are numbered 0..n-1,
and a state is one int of three n-bit fields: bit i set means guard i may
be Uninit there, bit n+i that it may be Owned, bit 2n+i that it may be
Moved. A guard with two or more bits set is in Conflict. A move or a
receipt clears the guard's three bits and sets one. A loop head starts
with at least n of its 3n bits, so each body is walked at most 2n+1 times
to find it; the report pass then checks each use against its state.

The checker reports errors; it never throws. An empty list means accepted.
"""
from __future__ import annotations

from .ast import (
    AcquireAssign,
    AddrOf,
    Assign,
    Binary,
    Call,
    CallAssign,
    Deref,
    DropCall,
    Expr,
    FieldAccess,
    FunctionDef,
    GuardRef,
    If,
    PayloadAccess,
    Program,
    Return,
    Stmt,
    TupleExpr,
    ValueRecord,
    While,
)
from .cfg import Walk, flow, warn_unreachable
from .diagnostics import Diagnostics, gc_paused

USE_OF_UNINIT = "UseOfUninit"
USE_AFTER_MOVE = "UseAfterMove"
CONFLICTING_PATHS = "ConflictingPaths"


class OwnershipError(ValueRecord):
    def __init__(self, kind: str, guard: str, function: str, line: int):
        self.kind = kind
        self.guard = guard
        self.function = function
        self.line = line

    def __hash__(self) -> int:
        return hash((self.kind, self.guard, self.function, self.line))

    def __str__(self) -> str:
        return "%s: %s at %s line %d" % (self.kind, self.guard, self.function, self.line)


def _expr_events(e: Expr | None, out: list[tuple[str, str]]) -> None:
    """Guard uses inside an expression, in evaluation order, by its type's
    handler in _EVENTS; names, numbers and None use no guard.

    ("move", g) consumes ownership (argument passing, returning);
    ("deref", g) and ("lend", g), `&g` in a call, require ownership
    without consuming it.
    """
    events = _EVENTS.get(type(e))
    if events is not None:
        events(e, out)


def _payload_events(e: PayloadAccess, out: list[tuple[str, str]]) -> None:
    if e.guard is not None:
        out.append(("deref", e.guard))


def _binary_events(e: Binary, out: list[tuple[str, str]]) -> None:
    _expr_events(e.lhs, out)
    _expr_events(e.rhs, out)


def _call_events(e: Call, out: list[tuple[str, str]]) -> None:
    for a in e.args:
        _expr_events(a, out)


def _tuple_events(e: TupleExpr, out: list[tuple[str, str]]) -> None:
    for item in e.items:
        _expr_events(item, out)


# The guard uses of each expression type that can hold a guard.
_EVENTS = {
    PayloadAccess: _payload_events,
    GuardRef: lambda e, out: out.append(("move", e.name)),
    Binary: _binary_events,
    FieldAccess: lambda e, out: _expr_events(e.base, out),
    AddrOf: lambda e, out: (out.append(("lend", e.expr.name)) if type(e.expr) is GuardRef
                            else _expr_events(e.expr, out)),
    Deref: lambda e, out: _expr_events(e.expr, out),
    Call: _call_events,
    TupleExpr: _tuple_events,
}


def _stmt_events(s: Stmt) -> tuple:
    """(uses in order, guards assigned ownership afterwards), by s's type's
    handler in _STMT_EVENTS; a Block has none of its own."""
    events = _STMT_EVENTS.get(type(s))
    return ((), ()) if events is None else events(s)


def _uses(*exprs: Expr | None) -> list[tuple[str, str]]:
    """The guard uses of exprs, in order."""
    uses: list[tuple[str, str]] = []
    for e in exprs:
        _expr_events(e, uses)
    return uses


def _call_assign_events(s: CallAssign) -> tuple[list[tuple[str, str]], list[str]]:
    uses = _uses(s.call)
    gets: list[str] = []
    for t in s.targets:
        if type(t) is GuardRef:  # a target receives its guard
            gets.append(t.name)
        else:  # a place; a Discard uses no guard
            _expr_events(t, uses)
    return uses, gets


# The guard uses and receipts of each statement type (_stmt_events).
_STMT_EVENTS = {
    AcquireAssign: lambda s: ((), (s.guard,)),
    DropCall: lambda s: ((("move", s.guard),), ()),
    CallAssign: _call_assign_events,
    Assign: lambda s: (_uses(s.value, s.place), ()),
    If: lambda s: (_uses(s.cond), ()),
    While: lambda s: (_uses(s.cond), ()),
    Return: lambda s: (_uses(s.value), ()),
}


class _Walk(Walk):
    """The flow walk with _step: its guards' bits, and the errors found."""

    __slots__ = ("bits", "errors")
    bits: dict[str, tuple[int, int, int]]
    errors: set[OwnershipError]


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


def _check_function(fn: FunctionDef) -> list[OwnershipError]:
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
    w = _Walk(fn.name, _step)
    w.bits, w.errors = bits, set()
    flow(w, fn.body.stmts, state, True)
    return sorted(w.errors, key=lambda e: (e.line, e.guard, e.kind))


@gc_paused
def check(gp: Program, diags: Diagnostics | None = None) -> list[OwnershipError]:
    """All ownership errors in the program, per function in program order.
    The statements the resolver cut as unreachable are warned about."""
    errors: list[OwnershipError] = []
    for fn in gp.functions:
        warn_unreachable(diags, fn)
        errors.extend(_check_function(fn))
    return errors
