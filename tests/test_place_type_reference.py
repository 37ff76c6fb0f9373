"""Differential test of the types the resolver's expression handlers return.

Each handler of `parser._RESOLVE_EXPR` resolves one expression and returns
its type, which the handler above it reads. The reference below is the
second walk those returns replaced, `_Resolver.place_type`: the type of a
place or a place's address, computed again from the resolved subtree.
For every expression the resolver dispatches, in every pinned program,
plain and printed guarded, and in the guarded fixtures, both must give
the same type, or both none.
"""
from __future__ import annotations

import pytest

from lockshift import parser
from lockshift.ast import (
    AddrOf,
    CallAssign,
    Deref,
    Expr,
    FieldAccess,
    GuardRef,
    PayloadAccess,
    Record,
    TupleExpr,
    Type,
    Var,
    lock_path_type,
)
from lockshift.diagnostics import LockshiftError
from lockshift.parser import parse, parse_guarded

from corpus import completed, programs
from helpers import FIXTURES, fields


def reference_place_type(resolver, e: Expr) -> Type | None:
    kind = type(e)
    if kind is Var or kind is FieldAccess:
        return e.ty
    if kind is PayloadAccess:
        lock = lock_path_type(e.path, resolver.params, resolver.program)
        return resolver.program.tags[lock.name].field_decl(e.fld).ty
    if kind is Deref:
        inner = reference_place_type(resolver, e.expr)
        if inner is not None and inner.ptr > 0:
            return Type(inner.kind, inner.name, inner.path, inner.ptr - 1)
        return None
    if kind is AddrOf:
        inner = reference_place_type(resolver, e.expr)
        if inner is not None:
            return Type(inner.kind, inner.name, inner.path, inner.ptr + 1)
        return None
    return None


def _fields(ty: Type | None):
    return None if ty is None else (ty.kind, ty.name, ty.path, ty.ptr)


def _dispatched(program) -> set[int]:
    """The ids of the expressions the resolver types: every expression of
    a function but the call of a call statement, which it matches to the
    statement's targets, a guard target, and a tuple, whose items it types
    one by one. A global's initializer is a constant it checks without
    typing. The walk goes through every field of every record, so it
    reaches the statements the resolver typed and then cut as unreachable
    (FunctionDef.unreachable)."""
    out: set[int] = set()
    stack = [program.functions]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, Record) and not isinstance(x, Type):
            if isinstance(x, CallAssign):
                stack.append(x.call.args)
                stack.extend(t for t in x.targets if type(t) is not GuardRef)
                continue
            if isinstance(x, Expr) and not isinstance(x, TupleExpr):
                out.add(id(x))
            stack.extend(v for name, v in fields(x).items() if name != "calls")
    return out


@pytest.fixture
def typed(monkeypatch):
    """Wraps every expression handler: each return is compared with the
    reference at once, and the expression recorded."""
    seen: dict[int, Expr] = {}
    mismatches: list[str] = []

    def wrap(handler):
        def checked(resolver, e, *args, **kwargs):
            ty = handler(resolver, e, *args, **kwargs)
            want = reference_place_type(resolver, e)
            if _fields(ty) != _fields(want):
                mismatches.append("%s: %r != %r" % (type(e).__name__, _fields(ty), _fields(want)))
            seen[id(e)] = e
            return ty
        return checked

    for node_type, handler in list(parser._RESOLVE_EXPR.items()):
        monkeypatch.setitem(parser._RESOLVE_EXPR, node_type, wrap(handler))
    # Called directly too: the operands of a lock-API call.
    for name in ("resolve_addr_of", "resolve_var"):
        monkeypatch.setattr(parser._Resolver, name, wrap(getattr(parser._Resolver, name)))
    return seen, mismatches


def _sources(corpus):
    for name, source in programs().items():
        yield name, parse, source
    for name, run in completed(corpus):
        yield name + " (printed)", parse_guarded, run.printed
    for path in sorted(FIXTURES.glob("**/*.gmc")):
        yield path.name, parse_guarded, path.read_text()


def test_each_handler_returns_the_type_of_its_expression(corpus, typed):
    seen, mismatches = typed
    checked = programs_checked = 0
    for name, parse_fn, source in _sources(corpus):
        seen.clear()
        try:
            program = parse_fn(source)
        except LockshiftError:
            continue
        assert not mismatches, (name, mismatches[:3])
        assert set(seen) == _dispatched(program), name
        checked += len(seen)
        programs_checked += 1
    assert programs_checked == 546 + 2
    assert checked > 25_000
