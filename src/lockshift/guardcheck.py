"""Ownership checking for guard variables.

Forward, path-insensitive flow per function: a guard is Uninit at its
declaration, Owned when acquired or received (parameter, call result),
Moved once dropped, passed on, or returned. Joining different states across
paths gives Conflict. Dereferencing requires Owned; moving requires Owned
and consumes. Assigning into a guard is never a use, so reacquiring in a
loop or overwriting an owned guard is fine.

The checker reports errors; it never throws. An empty list means accepted.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    ExprStmt,
    FieldAccess,
    FunctionDef,
    GuardDeref,
    GuardRef,
    GuardTarget,
    GuardedProgram,
    If,
    Return,
    Stmt,
    TupleExpr,
    While,
)
from .cfg import build_cfg, solve
from .diagnostics import Diagnostics

UNINIT = "uninit"
OWNED = "owned"
MOVED = "moved"
CONFLICT = "conflict"

USE_OF_UNINIT = "UseOfUninit"
USE_AFTER_MOVE = "UseAfterMove"
CONFLICTING_PATHS = "ConflictingPaths"

_ERROR_OF_STATE = {
    UNINIT: USE_OF_UNINIT,
    MOVED: USE_AFTER_MOVE,
    CONFLICT: CONFLICTING_PATHS,
}


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
    if e is None:
        return
    if isinstance(e, GuardRef):
        out.append(("move", e.name))
    elif isinstance(e, GuardDeref):
        out.append(("deref", e.guard))
    elif isinstance(e, FieldAccess):
        _expr_events(e.base, out)
    elif isinstance(e, (AddrOf, Deref)):
        _expr_events(e.expr, out)
    elif isinstance(e, Binary):
        _expr_events(e.lhs, out)
        _expr_events(e.rhs, out)
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
            if isinstance(t, GuardTarget):
                gets.append(t.name)
            elif isinstance(t, Expr):
                _expr_events(t, uses)
    elif isinstance(s, Assign):
        _expr_events(s.place, uses)
        _expr_events(s.value, uses)
    elif isinstance(s, ExprStmt):
        _expr_events(s.expr, uses)
    elif isinstance(s, (If, While)):
        _expr_events(s.cond, uses)
    elif isinstance(s, Return):
        _expr_events(s.value, uses)
    return uses, gets


def _transfer(s: Stmt, state: dict[str, str],
              errors: set[OwnershipError] | None, fn_name: str) -> dict[str, str]:
    state = dict(state)
    uses, gets = _stmt_events(s)
    for kind, name in uses:
        current = state.get(name)
        if current is None:
            continue
        if current != OWNED and errors is not None:
            errors.add(OwnershipError(_ERROR_OF_STATE[current], name, fn_name, s.line))
        if kind == "move":
            state[name] = MOVED
    for name in gets:
        if name in state:
            state[name] = OWNED
    return state


def _join(a: dict[str, str] | None, b: dict[str, str]) -> dict[str, str]:
    if a is None:
        return dict(b)
    return {g: (a[g] if a[g] == b[g] else CONFLICT) for g in a}


def _check_function(fn: FunctionDef, diags: Diagnostics) -> list[OwnershipError]:
    guards = {d.guard: UNINIT for d in fn.guard_decls}
    for p in fn.params:
        if p.ty.kind == "guard":
            guards[p.name] = OWNED
    if not guards:
        return []
    g = build_cfg(fn, diags)
    in_state: dict = {n: None for n in g.nodes}
    in_state[g.entry] = dict(guards)

    def step(n):
        if in_state[n] is None:
            return ()
        out = (_transfer(n, in_state[n], None, fn.name)
               if isinstance(n, Stmt) else in_state[n])
        changed = []
        for s in g.succ[n]:
            joined = _join(in_state[s], out)
            if joined != in_state[s]:
                in_state[s] = joined
                changed.append(s)
        return changed

    solve(g.nodes, step)

    errors: set[OwnershipError] = set()
    for n in g.nodes:
        if isinstance(n, Stmt) and in_state[n] is not None:
            _transfer(n, in_state[n], errors, fn.name)
    return sorted(errors, key=lambda e: (e.line, e.guard, e.kind))


def check(gp: GuardedProgram, diags: Diagnostics | None = None) -> list[OwnershipError]:
    """All ownership errors in the program, per function in program order."""
    if diags is None:
        diags = Diagnostics()
    errors: list[OwnershipError] = []
    for fn in gp.functions:
        errors.extend(_check_function(fn, diags))
    return errors
