"""Source printers for both dialects.

Printing is line-aware: every statement is emitted on the line recorded in the
AST (padding with blank lines, sharing a line when several statements carry the
same number), so a transformed program lines up with its input and a parse ->
print -> parse round trip preserves statement lines.

After each top-level declaration the finished lines are joined and
appended to the output text, so the output is never held as one string
per line, nor as chunks beside their join.

Text comes from module tables keyed by type(node): _EXPR_TEXT for an
expression, _STMT_TEXT for a one-line statement, and _EMIT_STMT for a
block, if or while, whose body spans lines.
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
        base = "%sguard<%s>" % ("&" if ty.lent else "", ".".join(ty.path))
    else:
        raise ValueError("unprintable type kind %r" % ty.kind)
    return base + "*" * ty.ptr


def decl_text(ty: Type, name: str) -> str:
    text = type_text(ty)  # the stars go with the name: int *p
    return "%s %s%s" % (text[:len(text) - ty.ptr], "*" * ty.ptr, name)


def expr_text(e: Expr, min_prec: int = 0) -> str:
    """e's text by its type's handler in _EXPR_TEXT, parenthesized when
    it binds looser than min_prec."""
    text_of = _EXPR_TEXT.get(type(e))
    if text_of is None:
        raise ValueError("unprintable expression %r" % e)
    text, prec = text_of(e)
    if prec < min_prec:
        return "(%s)" % text
    return text


def _field_text(e: FieldAccess) -> tuple[str, int]:
    if e.arrow:
        return "%s->%s" % (expr_text(e.base, _PREC_POSTFIX), e.fld), _PREC_POSTFIX
    if type(e.base) is Deref:
        return "(*%s).%s" % (expr_text(e.base.expr), e.fld), _PREC_POSTFIX
    return "%s.%s" % (expr_text(e.base, _PREC_POSTFIX), e.fld), _PREC_POSTFIX


def _payload_text(e: PayloadAccess) -> tuple[str, int]:
    if e.guard is None:
        return "%s.get_mut().%s" % (".".join(e.path), e.fld), _PREC_POSTFIX
    return "(*%s).%s" % (e.guard, e.fld), _PREC_POSTFIX


def _binary_text(e: Binary) -> tuple[str, int]:
    prec = BIN_PREC[e.op]
    return "%s %s %s" % (expr_text(e.lhs, prec), e.op, expr_text(e.rhs, prec + 1)), prec


def _payload_init_text(e: PayloadInit) -> tuple[str, int]:
    inits = ", ".join(name if init is None else "%s = %s" % (name, expr_text(init))
                      for name, init in e.inits)
    return "%s { %s }" % (e.payload, inits), _PREC_PRIMARY


# The text and precedence of each expression type (expr_text).
_EXPR_TEXT = {
    IntLit: lambda e: (str(e.value), _PREC_PRIMARY),
    Var: lambda e: (e.name, _PREC_PRIMARY),
    GuardRef: lambda e: (e.name, _PREC_PRIMARY),
    FieldAccess: _field_text,
    PayloadAccess: _payload_text,
    AddrOf: lambda e: ("&" + expr_text(e.expr, _PREC_UNARY), _PREC_UNARY),
    Deref: lambda e: ("*" + expr_text(e.expr, _PREC_UNARY), _PREC_UNARY),
    Binary: _binary_text,
    Call: lambda e: ("%s(%s)" % (e.name, ", ".join(map(expr_text, e.args))), _PREC_PRIMARY),
    TupleExpr: lambda e: ("(%s)" % ", ".join(map(expr_text, e.items)), _PREC_PRIMARY),
    PayloadInit: _payload_init_text,
}


def stmt_text(s: Stmt) -> str:
    """Single-statement text by its type's handler in _STMT_TEXT; a Block,
    If or While has none, as its text spans its body."""
    text_of = _STMT_TEXT.get(type(s))
    if text_of is None:
        raise ValueError("not a simple statement: %r" % s)
    return text_of(s)


def _call_assign_text(s: CallAssign) -> str:
    call = expr_text(s.call)
    if not s.targets:
        return "%s;" % call
    targets = ", ".join(["_" if type(t) is Discard else expr_text(t) for t in s.targets])
    if len(s.targets) == 1:
        return "%s = %s;" % (targets, call)
    return "(%s) = %s;" % (targets, call)


# The text of each simple statement type (stmt_text).
_STMT_TEXT = {
    Assign: lambda s: ("%s;" % expr_text(s.value) if s.place is None
                       else "%s = %s;" % (expr_text(s.place), expr_text(s.value))),
    Return: lambda s: "return;" if s.value is None else "return %s;" % expr_text(s.value),
    AcquireAssign: lambda s: "%s = %s.acquire();" % (s.guard, ".".join(s.path)),
    DropCall: lambda s: "drop(%s);" % s.guard,
    CallAssign: _call_assign_text,
}


class _Sink:
    """Output lines not yet taken as text. After any put the last line
    holds content, and only the padding before a line holds none."""

    def __init__(self) -> None:
        self.taken = 0  # how many lines were taken as text
        self.lines: list[str] = []  # the lines after them

    def put(self, line: int, text: str, depth: int) -> None:
        line = max(line, 1)
        lines = self.lines
        count = self.taken + len(lines)
        if count < line:
            lines.extend([""] * (line - 1 - count))
            lines.append("    " * depth + text)
        else:
            lines[-1] += " " + text

    def append_to_last(self, text: str) -> None:
        # Only ever called after a put, so the last line holds content.
        self.lines[-1] += " " + text

    def finish_declaration(self) -> str:
        """Take every line but the last as text, each with its newline; the
        last stays open, as a declaration on the same line appends to it."""
        lines = self.lines
        if len(lines) < 2:
            return ""
        last = lines[-1]
        lines[-1] = ""  # the newline of the line before it
        self.taken += len(lines) - 1
        self.lines = [last]
        return "\n".join(lines)

    def render(self) -> str:
        """The lines not yet taken, with the final newline."""
        lines = self.lines
        if not lines:
            return ""
        lines.append("")
        return "\n".join(lines)


def _emit_block_stmts(sink: _Sink, block: Block, depth: int) -> None:
    """Each statement of block by its type's handler in _EMIT_STMT, and a
    simple one as its stmt_text on its line."""
    for s in block.stmts:
        emit = _EMIT_STMT.get(type(s))
        if emit is None:
            sink.put(s.line, stmt_text(s), depth)
        else:
            emit(sink, s, depth)


def _emit_braced(sink: _Sink, line: int, head: str, body: Block, depth: int) -> None:
    sink.put(line, head + "{", depth)
    _emit_block_stmts(sink, body, depth + 1)
    sink.append_to_last("}")


def _emit_if(sink: _Sink, s: If, depth: int) -> None:
    _emit_braced(sink, s.line, "if (%s) " % expr_text(s.cond), s.then, depth)
    if s.orelse is not None:
        sink.append_to_last("else {")
        _emit_block_stmts(sink, s.orelse, depth + 1)
        sink.append_to_last("}")


# How each compound statement type is emitted (_emit_block_stmts).
_EMIT_STMT = {
    Block: lambda sink, s, depth: _emit_braced(sink, s.line, "", s, depth),
    If: _emit_if,
    While: lambda sink, s, depth: _emit_braced(
        sink, s.line, "while (%s) " % expr_text(s.cond), s.body, depth),
}


def _emit_function(sink: _Sink, f: FunctionDef) -> None:
    if len(f.rets) == 1:
        ret = type_text(f.rets[0])
    else:
        ret = "(%s)" % ", ".join(type_text(t) for t in f.rets)
    params = ", ".join(decl_text(p.ty, p.name) for p in f.params)
    sink.put(f.line_span[0], "%s %s(%s) {" % (ret, f.name, params), 0)
    for d in f.guard_decls:
        sink.put(d.line, "guard<%s> %s;" % (".".join(d.path), d.guard), 1)
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
    items = sorted([*p.globals, *p.structs, *p.functions],
                   key=lambda d: d.line_span[0] if type(d) is FunctionDef else d.line)
    sink = _Sink()
    # CPython grows a str that only this local refers to in place on +=, so
    # the text is never held beside a list of its parts. PEP 8 advises
    # against relying on that; elsewhere += copies, and the output is the
    # same.
    text = ""
    for item in items:
        if type(item) is GlobalDecl:
            _emit_global(sink, item)
        elif type(item) is StructDef:
            _emit_struct(sink, item)
        else:
            _emit_function(sink, item)
        text += sink.finish_declaration()
    text += sink.render()
    return text


# One printer serves both dialects; this name reads better at guarded call sites.
print_guarded = print_source
