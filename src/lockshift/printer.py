"""Source printers for both dialects.

Printing is line-aware: every statement is emitted on the line recorded in the
AST (padding with blank lines, sharing a line when several statements carry the
same number), so a transformed program lines up with its input and a parse ->
print -> parse round trip preserves statement lines.
"""
from __future__ import annotations

from .ast import (
    BIN_PREC,
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
    Expr,
    FieldAccess,
    FunctionDef,
    GlobalDecl,
    GuardRef,
    If,
    IntLit,
    PayloadAccess,
    PayloadInit,
    Program,
    Return,
    Stmt,
    StructDef,
    TupleExpr,
    Type,
    Var,
    While,
)

_PREC_UNARY = 4  # binds tighter than every binary operator in BIN_PREC
_PREC_POSTFIX = 5
_PREC_PRIMARY = 6


_BASE_TEXT = {"int": "int", "void": "void", "mutex": "mutex_t", "thread": "thread_t"}


def type_text(ty: Type) -> str:
    if ty.kind in _BASE_TEXT:
        base = _BASE_TEXT[ty.kind]
    elif ty.kind == "struct":
        base = "struct %s" % ty.name
    elif ty.kind == "lock":
        base = "mutex<%s>" % ty.name
    elif ty.kind == "guard":
        base = "guard<%s>" % ty.path.text
    else:
        raise ValueError("unprintable type kind %r" % ty.kind)
    return base + "*" * ty.ptr


def decl_text(ty: Type, name: str) -> str:
    text = type_text(ty)  # the stars go with the name: int *p
    return "%s %s%s" % (text[:len(text) - ty.ptr], "*" * ty.ptr, name)


def expr_text(e: Expr, min_prec: int = 0) -> str:
    text, prec = _expr(e)
    if prec < min_prec:
        return "(%s)" % text
    return text


def _expr(e: Expr) -> tuple[str, int]:
    if isinstance(e, IntLit):
        return str(e.value), _PREC_PRIMARY
    if isinstance(e, (Var, GuardRef)):
        return e.name, _PREC_PRIMARY
    if isinstance(e, FieldAccess):
        if e.arrow:
            return "%s->%s" % (expr_text(e.base, _PREC_POSTFIX), e.fld), _PREC_POSTFIX
        if isinstance(e.base, Deref):
            return "(*%s).%s" % (expr_text(e.base.expr), e.fld), _PREC_POSTFIX
        return "%s.%s" % (expr_text(e.base, _PREC_POSTFIX), e.fld), _PREC_POSTFIX
    if isinstance(e, PayloadAccess):
        if e.guard is None:
            return "%s.get_mut().%s" % (e.path.text, e.fld), _PREC_POSTFIX
        return "(*%s).%s" % (e.guard, e.fld), _PREC_POSTFIX
    if isinstance(e, AddrOf):
        return "&" + expr_text(e.expr, _PREC_UNARY), _PREC_UNARY
    if isinstance(e, Deref):
        return "*" + expr_text(e.expr, _PREC_UNARY), _PREC_UNARY
    if isinstance(e, Binary):
        prec = BIN_PREC[e.op]
        lhs = expr_text(e.lhs, prec)
        rhs = expr_text(e.rhs, prec + 1)
        return "%s %s %s" % (lhs, e.op, rhs), prec
    if isinstance(e, Call):
        args = ", ".join(expr_text(a) for a in e.args)
        return "%s(%s)" % (e.name, args), _PREC_PRIMARY
    if isinstance(e, TupleExpr):
        return "(%s)" % ", ".join(expr_text(i) for i in e.items), _PREC_PRIMARY
    if isinstance(e, PayloadInit):
        inits = ", ".join(name if init is None else "%s = %s" % (name, expr_text(init))
                          for name, init in e.inits)
        return "%s { %s }" % (e.payload, inits), _PREC_PRIMARY
    raise ValueError("unprintable expression %r" % e)


def stmt_text(s: Stmt) -> str:
    """Single-statement text without trailing brace context (simple forms only)."""
    if isinstance(s, Assign):
        if s.place is None:
            return "%s;" % expr_text(s.value)
        return "%s = %s;" % (expr_text(s.place), expr_text(s.value))
    if isinstance(s, Return):
        if s.value is None:
            return "return;"
        return "return %s;" % expr_text(s.value)
    if isinstance(s, AcquireAssign):
        return "%s = %s.acquire();" % (s.guard, s.path.text)
    if isinstance(s, DropCall):
        return "drop(%s);" % s.guard
    if isinstance(s, CallAssign):
        call = expr_text(s.call)
        if not s.targets:
            return "%s;" % call
        targets = ", ".join("_" if isinstance(t, Discard) else expr_text(t)
                            for t in s.targets)
        if len(s.targets) == 1:
            return "%s = %s;" % (targets, call)
        return "(%s) = %s;" % (targets, call)
    raise ValueError("not a simple statement: %r" % s)


class _Sink:
    """Output lines. After any put the last line holds content, and only
    the padding before a line holds none."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def put(self, line: int, text: str, depth: int) -> None:
        line = max(line, 1)
        lines = self.lines
        if len(lines) < line:
            lines.extend([""] * (line - 1 - len(lines)))
            lines.append("    " * depth + text)
        else:
            lines[-1] += " " + text

    def append_to_last(self, text: str) -> None:
        # Only ever called after a put, so the last line holds content.
        self.lines[-1] += " " + text

    def render(self) -> str:
        lines = self.lines
        if not lines:
            return ""
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)


def _emit_block_stmts(sink: _Sink, block: Block, depth: int) -> None:
    for s in block.stmts:
        _emit_stmt(sink, s, depth)


def _emit_stmt(sink: _Sink, s: Stmt, depth: int) -> None:
    if isinstance(s, Block):
        sink.put(s.line, "{", depth)
        _emit_block_stmts(sink, s, depth + 1)
        sink.append_to_last("}")
        return
    if isinstance(s, If):
        sink.put(s.line, "if (%s) {" % expr_text(s.cond), depth)
        _emit_block_stmts(sink, s.then, depth + 1)
        sink.append_to_last("}")
        if s.orelse is not None:
            sink.append_to_last("else {")
            _emit_block_stmts(sink, s.orelse, depth + 1)
            sink.append_to_last("}")
        return
    if isinstance(s, While):
        sink.put(s.line, "while (%s) {" % expr_text(s.cond), depth)
        _emit_block_stmts(sink, s.body, depth + 1)
        sink.append_to_last("}")
        return
    sink.put(s.line, stmt_text(s), depth)


def _emit_function(sink: _Sink, f: FunctionDef) -> None:
    if len(f.rets) == 1:
        ret = type_text(f.rets[0])
    else:
        ret = "(%s)" % ", ".join(type_text(t) for t in f.rets)
    params = ", ".join(decl_text(p.ty, p.name) for p in f.params)
    sink.put(f.line_span[0], "%s %s(%s) {" % (ret, f.name, params), 0)
    for d in f.guard_decls:
        sink.put(d.line, "guard<%s> %s;" % (d.path.text, d.guard), 1)
    _emit_block_stmts(sink, f.body, 1)
    sink.append_to_last("}")


def _emit_global(sink: _Sink, g: GlobalDecl) -> None:
    init = "" if g.init is None else " = " + expr_text(g.init)
    sink.put(g.line, "%s%s;" % (decl_text(g.ty, g.name), init), 0)


def _emit_struct(sink: _Sink, s: StructDef) -> None:
    fields = " ".join("%s;" % decl_text(f.ty, f.name) for f in s.fields)
    if fields:
        sink.put(s.line, "struct %s { %s };" % (s.name, fields), 0)
    else:
        sink.put(s.line, "struct %s { };" % s.name, 0)


def print_source(p: Program) -> str:
    """Render a program, in either dialect, back to source text."""
    # By line; the sort is stable, so declarations that share a line keep
    # their order: globals, then structs, then functions.
    items = sorted([(g.line, g) for g in p.globals] + [(s.line, s) for s in p.structs]
                   + [(f.line_span[0], f) for f in p.functions], key=lambda it: it[0])
    sink = _Sink()
    for _, item in items:
        if isinstance(item, GlobalDecl):
            _emit_global(sink, item)
        elif isinstance(item, StructDef):
            _emit_struct(sink, item)
        else:
            _emit_function(sink, item)
    return sink.render()


# One printer serves both dialects; this name reads better at guarded call sites.
print_guarded = print_source
