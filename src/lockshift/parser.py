"""Recursive-descent parser and name resolver for both dialects.

parse() reads the plain dialect (.mc); parse_guarded() additionally accepts the
guarded forms a transformed program uses (.gmc): data-owning lock declarations,
guard variables typed guard<lock-path>, acquire/drop, parenthesised lists as
return values and call targets, and payload accesses.

A call statement is one CallAssign: `f();`, `x = f();` or `(x, g) = f();`.
parse_group reads a parenthesised list as a TupleExpr, which the resolver
accepts only as a return value or unpacked into a call's targets.

The common forms take one step each: a name or number with nothing after
it that binds tighter is a leaf in parse_expr, `(*g).f` is one
PayloadAccess where parse_operand recognises `(*g)`, and a base type or
`guard<p>` for a one-segment p is read in parse_type. The resolver
dispatches on a node's type (`_RESOLVE_STMT`, `_RESOLVE_EXPR`).
"""
from __future__ import annotations

from itertools import chain
from operator import attrgetter

from .ast import (
    BIN_PREC,
    LOCK_API,
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
    Expr,
    FieldAccess,
    FieldDecl,
    FunctionDef,
    GlobalDecl,
    GuardRef,
    GuardVarDecl,
    If,
    IntLit,
    LockPath,
    Param,
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
    holds_data,
    lock_path_type,
    not_a_place,
    place_path,
    to_caller,
)
from .diagnostics import (
    ParseError,
    TypeCheckError,
    UnknownIdentifier,
    gc_paused,
)
from .lexer import Tokens, tokenize

_BASE_KINDS = {"int": "int", "void": "void", "mutex_t": "mutex", "thread_t": "thread"}

# How deep the parser lets a program nest. Each block around a statement
# adds one level (`{}` blocks and if, else and while bodies, not a function
# body; an `else if` one more than its `if`). Its expressions add the levels
# of their deepest path: one per parenthesis pair, call, unary operator,
# binary operator and field access on it. Operator and field chains build left-deep
# trees, so a chain adds one level per link. A guard's payload `(*g)` and
# the results of `acquire()` and `get_mut()` are leaves, so a transformed
# program nests no deeper than its input. Every later phase walks the tree
# recursively; the limit keeps each of them, and the parser, well inside
# Python's recursion limit.
NESTING_LIMIT = 100

# What may follow a primary expression to extend it: a field access, a
# method call or a call's arguments.
_POSTFIX = frozenset([".", "->", "("])

# The first tokens of statements other than an expression or assignment.
# `drop` starts one only in the guarded dialect, before `(`.
_STMT_WORDS = frozenset(["{", "if", "while", "return", "drop"])


class _AcquireExpr(Expr):
    """Parse-time marker for `path.acquire()`; must become an AcquireAssign."""

    __slots__ = ("path", "line")

    def __init__(self, path: LockPath, line: int):
        self.path = path
        self.line = line


class _Parser:
    """Recursive descent over the token lists of a `Tokens`, which end in
    one eof token. A token is its index, as `self.pos` is and as `expect`
    and `expect_ident` return it; the parser reads `self.kinds[i]`,
    `self.values[i]` and `self.lines[i]`. A column is computed only for a
    ParseError (`fail`).

    eof's value is "", which no caller asks `at`, `accept` or `expect` for,
    and the parser never moves past it, so `self.pos` is always a valid
    index. Only eof has an empty value or the kind "eof", so a token with a
    nonempty value, an identifier or a number, has a next one: the hot
    paths read `values[i + 1]` after such a token without a bounds test.
    """

    def __init__(self, tokens: Tokens, guarded: bool):
        self.kinds = tokens.kinds
        self.values = tokens.values
        self.lines = tokens.lines
        self.col = tokens.col
        self.eof = len(tokens) - 1
        self.pos = 0
        self.guarded = guarded
        self.guards: dict[str, LockPath] = {}  # in-scope guard vars of the current fn
        # one tuple per distinct lock path of guard types and declarations
        self.paths: dict[LockPath, LockPath] = {}
        # Levels open around the current token: blocks, and the parentheses,
        # calls and unary operators the parser is inside. `height` is the
        # levels of the expression parsed last, below its own position; a
        # deep spot is `depth + height` (see NESTING_LIMIT).
        self.depth = 0
        self.height = 0

    # -- token plumbing ----------------------------------------------------

    def at(self, value: str) -> bool:
        return self.values[self.pos] == value

    def accept(self, value: str) -> bool:
        if self.values[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> int:
        i = self.pos
        if self.values[i] != value:
            raise self.fail("expected %r, found %r" % (value, self.values[i] or "end of input"))
        self.pos = i + 1
        return i

    def expect_ident(self, what: str = "identifier") -> int:
        i = self.pos
        if self.kinds[i] != "ident":
            raise self.fail("expected %s, found %r" % (what, self.values[i] or "end of input"))
        self.pos = i + 1
        return i

    def nest(self, i: int) -> None:
        """Open one more level at token `i`; the caller closes it with `depth -= 1`."""
        self.depth += 1
        if self.depth > NESTING_LIMIT:
            raise self.too_deep(i)

    def grow(self, i: int, height: int) -> None:
        """The expression just built at token `i` sits one level above a
        subtree `height` levels high."""
        height += 1
        if self.depth + height > NESTING_LIMIT:
            raise self.too_deep(i)
        self.height = height

    def too_deep(self, i: int) -> ParseError:
        return self.fail("nested too deeply (the limit is %d levels)" % NESTING_LIMIT, i)

    def fail(self, message: str, i: int | None = None) -> ParseError:
        """A ParseError at token `i`, by default the current one."""
        if i is None:
            i = self.pos
        return ParseError(message, self.lines[i], self.col(i))

    # -- types ---------------------------------------------------------------

    def at_type(self) -> bool:
        i = self.pos
        kind, value = self.kinds[i], self.values[i]
        if kind == "kw" and value in ("int", "void", "mutex_t", "thread_t", "struct"):
            return True
        if self.guarded and kind == "ident" and value in ("mutex", "guard"):
            return self.values[i + 1] == "<"
        return False

    def parse_type(self) -> Type:
        """A type; a base type, and `guard<p>` for a one-segment `p`, take
        one step each."""
        t = self.pos
        values = self.values
        value = values[t]
        kind = _BASE_KINDS.get(value)
        if kind is not None:
            self.pos = t + 1
            ty = Type(kind)
        elif value == "struct":
            self.pos = t + 1
            name = self.expect_ident("struct name")
            ty = Type("struct", values[name])
        elif self.guarded and value == "mutex":
            self.pos = t + 1
            self.expect("<")
            payload = self.expect_ident("payload struct name")
            self.expect(">")
            ty = Type("lock", values[payload])
        elif self.guarded and value == "guard":
            self.pos = t + 1
            ty = Type("guard", path=self.parse_guard_path())
        else:
            raise self.fail("expected a type, found %r" % value, t)
        while values[self.pos] == "*":
            self.pos += 1
            ty.ptr += 1
        return ty

    def parse_guard_path(self) -> LockPath:
        """`<p.q>` after `guard`, and a one-segment `<p>` in one step."""
        t = self.pos
        values = self.values
        if values[t] == "<" and self.kinds[t + 1] == "ident" and values[t + 2] == ">":
            self.pos = t + 3
            path = (values[t + 1],)
        else:
            self.expect("<")
            segs = [values[self.expect_ident("path segment")]]
            while self.accept("."):
                segs.append(values[self.expect_ident("path segment")])
            self.expect(">")
            path = tuple(segs)
        return self.paths.setdefault(path, path)

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> Program:
        globals_: list[GlobalDecl] = []
        structs: list[StructDef] = []
        functions: list[FunctionDef] = []
        values = self.values
        while self.pos != self.eof:
            first = self.pos
            if (values[first] == "struct" and self.kinds[first + 1] == "ident"
                    and values[first + 2] == "{"):
                structs.append(self.parse_struct_def())
                continue
            if values[first] == "(" and self.guarded:
                rets = self.parse_ret_types()
                name = self.expect_ident("function name")
                functions.append(self.parse_function(rets, name, self.lines[first]))
                continue
            if not self.at_type():
                raise self.fail("expected a declaration")
            ty = self.parse_type()
            name = self.expect_ident("declared name")
            if values[self.pos] == "(":
                functions.append(self.parse_function((ty,), name, self.lines[first]))
                continue
            if ty.kind == "guard":
                raise self.fail("guard variables cannot be globals", first)
            init = None
            if self.accept("="):
                init = self.parse_payload_init(ty) if ty.kind == "lock" else self.parse_expr()
            self.expect(";")
            # A lock sits on its name's line.
            line = self.lines[name if ty.kind == "lock" else first]
            globals_.append(GlobalDecl(ty, values[name], init, line))
        return Program(globals_, structs, functions)

    def parse_struct_def(self) -> StructDef:
        start = self.expect("struct")
        name = self.expect_ident("struct name")
        self.expect("{")
        fields: list[FieldDecl] = []
        while not self.at("}"):
            fty = self.parse_type()
            fname = self.expect_ident("field name")
            self.expect(";")
            fields.append(FieldDecl(fty, self.values[fname]))
        self.expect("}")
        self.expect(";")
        return StructDef(self.values[name], fields, self.lines[start])

    def parse_payload_init(self, ty: Type) -> PayloadInit | None:
        """`P { f = init, ... }` after a lock's `=`; None when it inits no
        field, as `mutex<P> m;` does."""
        payload = self.expect_ident("payload struct name")
        if self.values[payload] != ty.name:
            raise self.fail("initializer struct %r does not match payload %r"
                            % (self.values[payload], ty.name), payload)
        self.expect("{")
        inits: list[tuple[str, Expr | None]] = []
        while not self.at("}"):
            fname = self.expect_ident("field name")
            finit = None
            if self.accept("="):
                finit = self.parse_expr()
            inits.append((self.values[fname], finit))
            if not self.accept(","):
                break
        self.expect("}")
        return PayloadInit(ty.name, inits) if inits else None

    def parse_ret_types(self) -> tuple[Type, ...]:
        self.expect("(")
        rets = [self.parse_type()]
        while self.values[self.pos] == ",":
            self.pos += 1
            rets.append(self.parse_type())
        self.expect(")")
        if len(rets) < 2:
            raise self.fail("a tuple return type needs at least two members")
        return tuple(rets)

    def parse_function(self, rets: tuple[Type, ...], name: int, start_line: int) -> FunctionDef:
        values = self.values
        self.expect("(")
        params: list[Param] = []
        guards: dict[str, LockPath] = {}
        if values[self.pos] != ")":
            while True:
                pty = self.parse_type()
                pname = values[self.expect_ident("parameter name")]
                params.append(Param(pty, pname))
                if pty.kind == "guard":
                    guards[pname] = pty.path
                if values[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        self.guards = guards
        open_brace = self.expect("{")
        guard_decls: list[GuardVarDecl] = []
        while self.guarded and values[self.pos] == "guard" and values[self.pos + 1] == "<":
            decl_tok = self.pos
            self.pos = decl_tok + 1
            path = self.parse_guard_path()
            gname = values[self.expect_ident("guard variable name")]
            self.expect(";")
            guard_decls.append(GuardVarDecl(gname, path, self.lines[decl_tok]))
            guards[gname] = path
        stmts = self.parse_stmts()
        close = self.expect("}")
        body = Block(line=self.lines[open_brace], stmts=stmts)
        fn = FunctionDef(rets, values[name], params, body,
                         (start_line, self.lines[close]), tuple(guard_decls))
        self.guards = {}
        return fn

    # -- statements ------------------------------------------------------------

    def parse_stmts(self) -> list[Stmt]:
        """Statements up to a closing `}`."""
        stmts: list[Stmt] = []
        values = self.values
        while (value := values[self.pos]) != "}":
            stmts.append(self.parse_stmt() if value in _STMT_WORDS else self.parse_simple_stmt())
        return stmts

    def parse_stmt(self) -> Stmt:
        t = self.pos
        value = self.values[t]
        if value == "{":
            return self.parse_block()
        if value == "if":
            return self.parse_if()
        if value == "while":
            self.pos = t + 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_body_block()
            return While(line=self.lines[t], cond=cond, body=body)
        if value == "return":
            return self.parse_return()
        if self.guarded and value == "drop" and self.values[t + 1] == "(":
            self.pos = t + 2
            gname = self.expect_ident("guard variable")
            if self.values[gname] not in self.guards:
                raise self.fail("drop target %r is not a guard" % self.values[gname], gname)
            self.expect(")")
            self.expect(";")
            return DropCall(line=self.lines[t], guard=self.values[gname])
        return self.parse_simple_stmt()

    def parse_block(self) -> Block:
        t = self.pos
        self.pos = t + 1
        self.nest(t)
        stmts = self.parse_stmts()
        self.expect("}")
        self.depth -= 1
        return Block(line=self.lines[t], stmts=stmts)

    def parse_body_block(self) -> Block:
        if self.at("{"):
            return self.parse_block()
        self.nest(self.pos)
        body = self.parse_stmt()
        self.depth -= 1
        return Block(line=body.line, stmts=[body])

    def parse_if(self) -> If:
        t = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_body_block()
        orelse = None
        if self.accept("else"):
            if self.at("if"):
                self.nest(self.pos)
                nested = self.parse_if()
                self.depth -= 1
                orelse = Block(line=nested.line, stmts=[nested])
            else:
                orelse = self.parse_body_block()
        return If(line=self.lines[t], cond=cond, then=then, orelse=orelse)

    def parse_return(self) -> Return:
        line = self.lines[self.expect("return")]
        value = None if self.values[self.pos] == ";" else self.parse_expr()
        self.expect(";")
        return Return(line=line, value=value)

    def parse_simple_stmt(self) -> Stmt:
        """An assignment; `value;` is one with no place (None). The one
        producer of CallAssign: a call whose values go to no target, to a
        place or guard, or to each item of a parenthesised list."""
        t = self.pos
        line = self.lines[t]
        place, value = None, self.parse_expr()
        if self.values[self.pos] == "=":
            self.pos += 1
            place, value = value, self.parse_expr()
        if self.values[self.pos] != ";":
            self.expect(";")  # raises
        self.pos += 1
        if type(value) is Call:
            # In the guarded dialect a bare `_` target drops its value.
            if place is None:
                targets = ()
            elif type(place) is TupleExpr:  # guarded only
                targets = tuple([Discard() if type(e) is Var and e.name == "_" else e
                                 for e in place.items])
            elif self.guarded and type(place) is Var and place.name == "_":
                targets = (Discard(),)
            else:
                targets = (place,)
            return CallAssign(line=line, targets=targets, call=value)
        if type(place) is TupleExpr:
            raise self.fail("destructuring assignment needs a call on the right", t)
        if type(value) is _AcquireExpr:
            if place is None:
                raise self.fail("acquire() result must be assigned to a guard", t)
            if type(place) is not GuardRef:
                raise self.fail("acquire() must assign to a guard variable", t)
            return AcquireAssign(line=line, guard=place.name, path=value.path)
        if type(place) is GuardRef:
            raise self.fail("a guard can only receive acquire() or a call result", t)
        return Assign(line=line, place=place, value=value)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing: operators of at least `min_prec` bind here,
        and a right operand takes only operators that bind tighter, so
        equal precedence groups to the left. A name or number that no
        `.`, `->` or `(` follows is an operand in itself, a leaf."""
        values = self.values
        t = self.pos
        kind = self.kinds[t]
        if (kind == "ident" or kind == "int") and values[t + 1] not in _POSTFIX:
            self.pos = t + 1
            self.height = 0
            value = values[t]
            if kind == "int":
                e = IntLit(int(value))
            else:
                path = self.guards.get(value)
                e = Var(value) if path is None else GuardRef(value, path)
        else:
            e = self.parse_operand()
        while True:
            t = self.pos
            op = values[t]
            prec = BIN_PREC.get(op)
            if prec is None or prec < min_prec:
                return e
            self.pos = t + 1
            lhs_height = self.height
            e = Binary(op, e, self.parse_expr(prec + 1))
            height = (self.height if self.height > lhs_height else lhs_height) + 1
            if self.depth + height > NESTING_LIMIT:
                raise self.too_deep(t)
            self.height = height

    def parse_operand(self) -> Expr:
        """An operand of a binary operator: its prefix `&` and `*`,
        a name, number or parenthesized expression, then the field
        accesses, method calls and call arguments after it."""
        values = self.values
        t = self.pos
        value = values[t]
        if value == "&" or value == "*":
            self.pos = t + 1
            self.depth += 1
            if self.depth > NESTING_LIMIT:
                raise self.too_deep(t)
            e = self.parse_operand()
            self.depth -= 1
            self.height += 1
            return AddrOf(e) if value == "&" else Deref(e)
        kinds = self.kinds
        kind = kinds[t]
        guards = self.guards
        if kind == "ident":
            self.pos = t + 1
            self.height = 0
            path = guards.get(value)
            e = Var(value) if path is None else GuardRef(value, path)
        elif kind == "int":
            self.pos = t + 1
            self.height = 0
            e = IntLit(int(value))
        elif value != "(":
            raise self.fail("expected an expression, found %r" % (value or "end of input"))
        elif values[t + 1] == "*" and values[t + 2] in guards and values[t + 3] == ")":
            # `(*g)`, the payload of guard g: a leaf (see NESTING_LIMIT),
            # and with a field after it one PayloadAccess
            g = values[t + 2]
            self.height = 0
            if (values[t + 4] in (".", "->") and kinds[t + 5] == "ident"
                    and values[t + 6] != "("):
                self.pos = t + 6
                e = PayloadAccess(guards[g], values[t + 5], g)
            else:
                self.pos = t + 4
                e = Deref(GuardRef(g, guards[g]))
        else:
            e = self.parse_group(t)
        while True:
            t = self.pos
            value = values[t]
            if value == "." or value == "->":
                fld = t + 1
                if kinds[fld] != "ident":
                    raise self.fail("expected field name, found %r"
                                    % (values[fld] or "end of input"), fld)
                self.pos = t + 2
                if values[t + 2] == "(":
                    e = self.parse_method(e, fld)
                elif type(e) is Deref and type(e.expr) is GuardRef:
                    g = e.expr
                    e = PayloadAccess(g.path, values[fld], g.name)  # a leaf: adds no level
                else:
                    self.grow(t, self.height)
                    e = FieldAccess(e, values[fld], value == "->")
            elif value == "(" and type(e) is Var:
                self.pos = t + 1
                self.depth += 1
                if self.depth > NESTING_LIMIT:
                    raise self.too_deep(t)
                args: list[Expr] = []
                height = 0
                if values[t + 1] != ")":
                    while True:
                        args.append(self.parse_expr())
                        if self.height > height:
                            height = self.height
                        if values[self.pos] != ",":
                            break
                        self.pos += 1
                if values[self.pos] != ")":
                    self.expect(")")  # raises
                self.pos += 1
                self.depth -= 1
                self.height = height + 1
                e = Call(e.name, args)
            else:
                return e

    def parse_group(self, t: int) -> Expr:
        """A parenthesized expression at token `t`, or in the guarded
        dialect a tuple, as high as its highest item."""
        values = self.values
        self.pos = t + 1
        self.nest(t)
        e = self.parse_expr()
        if self.guarded and values[self.pos] == ",":
            items = [e]
            height = self.height
            while values[self.pos] == ",":
                self.pos += 1
                items.append(self.parse_expr())
                if self.height > height:
                    height = self.height
            self.height = height
            e = TupleExpr(items)
        self.expect(")")
        self.depth -= 1
        self.height += 1
        return e

    def parse_method(self, recv: Expr, method: int) -> Expr:
        if not self.guarded:
            raise self.fail("method call syntax is not part of this dialect", method)
        name = self.values[method]
        if name not in ("acquire", "get_mut"):
            raise self.fail("unknown method %r" % name, method)
        self.expect("(")
        self.expect(")")
        path = place_path(recv)
        if path is None:
            raise self.fail("%s() receiver must be a lock place" % name, method)
        self.height = 0
        if name == "acquire":
            return _AcquireExpr(path, self.lines[method])
        self.expect(".")
        return PayloadAccess(path, self.values[self.expect_ident("payload field name")])


# ---------------------------------------------------------------------------
# Name resolution and checking

_RESERVED = "%s named '_': a target named '_' drops its value"

# The kinds no expression reads held by value (_Resolver.check_read).
_WHOLE_KINDS = frozenset(["mutex", "lock", "thread", "struct"])


def _check_initializer(e: Expr, ty: Type, holder: str, line: int) -> None:
    """An initializer evaluates nothing (C11 6.7.9p4): only a holder of data
    takes one, and it is integer literals joined by binary operators. Not
    even `&n`: once n moves into a lock's payload, it would point into it."""
    if not holds_data(ty):
        raise TypeCheckError("%s holds no data, so it takes no initializer" % holder, line)
    operands = [e]
    for e in operands:
        if type(e) is Binary:
            operands += e.lhs, e.rhs
        elif type(e) is not IntLit:
            raise TypeCheckError("the initializer of %s is not an integer constant "
                                 "expression" % holder, line)


class _Resolver:
    """Resolves names and checks types, one declaration kind at a time,
    then each function body. Statements and expressions are dispatched on
    their node type through `_RESOLVE_STMT` and `_RESOLVE_EXPR`. An
    expression's handler returns its type where it is a place, a place's
    address or a guard's payload, and None for a number, a binary, a call,
    a guard or a function name, so each expression is walked once."""

    def __init__(self, program: Program):
        self.program = program
        self.names = program.names  # bound once for the lookup of each Var
        self.fn: FunctionDef | None = None  # the function being resolved
        self.params: dict[str, Type] = {}
        # The type of each lock path typed so far: a path rooted at a
        # global for the whole run, one rooted at a parameter only in the
        # current function.
        self.global_locks: dict[LockPath, Type] = {}
        self.locks: dict[LockPath, Type] = {}
        # the lock path of each guard variable in the current function
        self.guards: dict[str, LockPath] = {}
        self.line = 0
        # calls of the statement being resolved, in evaluation order
        self.calls: list[Call] = []
        self.live = True  # whether the statements resolving are reachable

    def run(self) -> Program:
        # A duplicate is a declaration that is not its name's index entry.
        p = self.program
        for s in p.structs:
            if p.tags[s.name] is not s:
                raise TypeCheckError("duplicate struct %r" % s.name, s.line)
        # Every call by a lock-API name resolves as the API, so a declaration
        # of one would be dead; and a guarded target `_` drops its value, so
        # a declaration named `_` could not be written back.
        for g in p.globals:
            if p.names[g.name] is not g:
                raise TypeCheckError("duplicate global %r" % g.name, g.line)
            if g.name in LOCK_API:
                raise TypeCheckError("global %r is named like the lock API" % g.name, g.line)
            if g.name == "_":
                raise TypeCheckError(_RESERVED % "global", g.line)
        for f in p.functions:
            if p.names[f.name] is not f:
                raise TypeCheckError("duplicate definition of %r" % f.name, f.line_span[0])
            if f.name in LOCK_API:
                raise TypeCheckError("function %r is named like the lock API" % f.name,
                                     f.line_span[0])
            if f.name == "_":
                raise TypeCheckError(_RESERVED % "function", f.line_span[0])
        for s in p.structs:
            for fd in s.fields:
                if s.field_decl(fd.name) is not fd:
                    raise TypeCheckError("duplicate field %r in struct %s"
                                         % (fd.name, s.name), s.line)
                self.check_type(fd.ty, s.line, "field %r in struct %s" % (fd.name, s.name))
        self.check_struct_cycles()
        for g in p.globals:
            self.check_type(g.ty, g.line, "global %r" % g.name)
            if type(g.init) is PayloadInit:
                self.check_payload_init(g)
            elif g.init is not None:
                _check_initializer(g.init, g.ty, "global %r" % g.name, g.line)
        for f in p.functions:
            self.resolve_function(f)
        return p

    def check_struct_cycles(self) -> None:
        """No struct holds itself by value, through its fields or the
        payloads of its mutex<P> fields; a pointer breaks such a cycle. One
        iterative depth-first search visits each struct and field once."""
        tags = self.program.tags
        on_path: dict[str, bool] = {}  # False once a struct's search is done
        for root in self.program.structs:
            if root.name in on_path:
                continue
            on_path[root.name] = True
            # each struct on the search path: its name, the field by which
            # it was entered, and the fields it has left to search
            path = [(root.name, "", iter(root.fields))]
            while path:
                for fd in path[-1][2]:
                    ty = fd.ty
                    if ty.ptr or ty.kind != "struct" and ty.kind != "lock":
                        continue
                    mark = on_path.get(ty.name)
                    if mark:
                        names = [name for name, _, _ in path]
                        via = [f for _, f, _ in path[names.index(ty.name) + 1:]]
                        raise TypeCheckError("struct %s contains itself by value (%s)"
                                             % (ty.name, ".".join([ty.name, *via, fd.name])),
                                             tags[ty.name].line)
                    if mark is None:
                        on_path[ty.name] = True
                        path.append((ty.name, fd.name, iter(tags[ty.name].fields)))
                        break
                else:
                    on_path[path.pop()[0]] = False

    def check_type(self, ty: Type, line: int, holder: str = "") -> None:
        """ty names declared structs and locks. A holder of a value, a
        global, field or parameter, named by `holder`, is not plain void."""
        kind = ty.kind
        if kind == "void" and holder and not ty.ptr:
            raise TypeCheckError("%s has type void" % holder, line)
        if kind == "struct" and self.program.struct(ty.name) is None:
            raise UnknownIdentifier("unknown struct %r" % ty.name, line)
        if kind == "lock" and self.program.struct(ty.name) is None:
            raise UnknownIdentifier("unknown payload struct %r" % ty.name, line)
        if kind == "guard":
            self.lock_type(ty.path, line)

    def lock_type(self, path: LockPath, line: int) -> Type:
        """The type of the lock path names, from a parameter or global."""
        locks = self.locks if path[0] in self.params else self.global_locks
        ty = locks.get(path)
        if ty is None:
            ty = lock_path_type(path, self.params, self.program)
            if ty is None:
                raise TypeCheckError("%s is not a lock" % ".".join(path), line)
            locks[path] = ty
        return ty

    def check_payload_init(self, g: GlobalDecl) -> None:
        init, line = g.init, g.line
        if not g.ty.is_mutex():
            raise TypeCheckError("a payload initializer needs a lock held by value", line)
        payload = self.program.struct(init.payload)
        seen: set[str] = set()
        for fname, finit in init.inits:
            if (fd := payload.field_decl(fname)) is None:
                raise UnknownIdentifier("payload %r has no field %r" % (init.payload, fname), line)
            if fname in seen:
                raise TypeCheckError("duplicate field %r in the initializer of %s"
                                     % (fname, g.name), line)
            seen.add(fname)
            if finit is not None:
                _check_initializer(finit, fd.ty, "field %r of %s" % (fname, g.name), line)

    def resolve_function(self, f: FunctionDef) -> None:
        self.fn = f
        self.params = params = {}
        self.locks = {}
        self.guards = guards = {}
        line = f.line_span[0]
        for param in f.params:
            if param.name in params:
                raise TypeCheckError(
                    "duplicate parameter %r in %s" % (param.name, f.name), line)
            if param.name == "_":
                raise TypeCheckError(_RESERVED % "parameter", line)
            params[param.name] = param.ty
            if param.ty.kind == "guard":
                guards[param.name] = param.ty.path
        for param in f.params:
            self.check_type(param.ty, line, "parameter %r in %s" % (param.name, f.name))
        for ty in f.rets:
            self.check_type(ty, line)
        for d in f.guard_decls:
            if d.guard in params:
                raise TypeCheckError("guard %r shadows a parameter of %s"
                                     % (d.guard, f.name), d.line)
            if d.guard in guards:
                raise TypeCheckError("duplicate guard %r in %s" % (d.guard, f.name), d.line)
            self.lock_type(d.path, d.line)
            guards[d.guard] = d.path
        self.taken = taken = []  # the calls of each statement that has any
        self.dead: list[Stmt] = []  # the statements resolve_block cuts
        f.falls_through = not self.resolve_block(f.body)
        if f.falls_through and not f.returns_void:
            raise TypeCheckError("%s() can reach its end without a return" % f.name,
                                 f.line_span[1])
        if len(taken) == 1:
            f.calls = taken[0]
        elif taken:
            f.calls = tuple(chain.from_iterable(taken))
        f.unreachable = tuple(self.dead)

    # -- statements ----------------------------------------------------------

    def resolve_block(self, b: Block) -> bool:
        """Resolve each statement of b and move the calls it evaluates
        itself onto its `calls`; an If or While takes its condition's calls
        before its nested statements resolve, and a Block has none of its
        own. Whether b ends every path, as the first statement whose handler
        says so does. No path reaches the ones after it: they are resolved,
        so that their errors raise, but take no call, and move to `dead`."""
        stmts, end = b.stmts, 0
        for i, s in enumerate(stmts, 1):
            self.line = s.line
            ends = _RESOLVE_STMT[type(s)](self, s)
            if self.calls:
                self.take_calls(s)
            if ends and self.live:
                self.live, end = False, i
        if end:
            self.live = True
            self.dead += stmts[end:]
            del stmts[end:]
        return end > 0

    def take_calls(self, s: Stmt) -> None:
        """Move the calls resolved since the last move onto s, and note
        them for the function's list (FunctionDef.calls), if s is reachable."""
        if self.live:
            s.calls = calls = tuple(self.calls)
            if calls:
                self.taken.append(calls)
        self.calls.clear()

    def resolve_assign(self, s: Assign) -> None:
        """The value is read (check_read) after the place, if any, is checked."""
        value, place = s.value, s.place
        ty = _RESOLVE_EXPR[type(value)](self, value)
        place_ty = None
        if place is not None:
            place_ty = _RESOLVE_EXPR[type(place)](self, place)
            self.check_assign_place(place, place_ty)
        if type(value) is GuardRef or ty is not None and ty.kind in _WHOLE_KINDS:
            self.check_read(value, ty, place_ty)

    def resolve_call_assign(self, s: CallAssign) -> None:
        call = s.call
        if call.name in LOCK_API and not s.targets:
            self.resolve_lock_api(call, s.line)
        else:
            self.resolve_call(call, s.targets)
        self.calls.append(call)
        for t in s.targets:
            kind = type(t)
            if kind is not GuardRef and kind is not Discard:  # a guard receives
                self.check_assign_place(t, _RESOLVE_EXPR[kind](self, t))

    def resolve_if(self, s: If) -> bool:
        """Whether s ends every path: both of its branches do."""
        self.read(s.cond)
        self.take_calls(s)
        ends = self.resolve_block(s.then)
        return s.orelse is not None and self.resolve_block(s.orelse) and ends

    def resolve_while(self, s: While) -> None:
        self.read(s.cond)
        self.take_calls(s)
        self.resolve_block(s.body)

    def resolve_return(self, s: Return) -> bool:
        """A return gives its function's values as a call's targets do
        (check_values), bare only in a plain void function; it ends every path."""
        value = s.value
        values = (() if value is None else value.items if type(value) is TupleExpr
                  else (value,))
        for v in values:
            _RESOLVE_EXPR[type(v)](self, v)
        self.check_values(self.fn, (), values, "%s() returns void, not a value", None)
        return True

    def resolve_acquire(self, s: AcquireAssign) -> None:
        self.lock_type(s.path, s.line)
        held = self.guards[s.guard]
        if s.path != held:
            raise TypeCheckError("guard %s is for %s, not %s"
                                 % (s.guard, ".".join(held), ".".join(s.path)), s.line)

    def check_assign_place(self, e: Expr, ty: Type | None) -> None:
        """e, of type ty, is a place to assign or a payload field."""
        kind = type(e)
        if kind is PayloadAccess:
            return
        if kind is not Var and (kind is AddrOf or type(_place_root(e)) not in _PLACE_ROOTS):
            raise TypeCheckError("assignment target is not a place", self.line)
        if ty is not None and ty.ptr == 0 and ty.kind in ("struct", "mutex", "lock"):
            raise TypeCheckError("cannot assign whole %s values" % ty.kind, self.line)

    # -- expressions -----------------------------------------------------------

    def read(self, e: Expr) -> None:
        """Resolve e, whose value is read (check_read)."""
        self.check_read(e, _RESOLVE_EXPR[type(e)](self, e))

    def check_read(self, e: Expr, ty: Type | None, into: Type | None = None) -> None:
        """e, of type ty, is read: an operand, a condition, a statement
        `e;`, or the right side of `=` or a call's argument into a place or
        parameter of type `into`. It is no guard, and no lock, thread
        handle or struct held by value unless `into` holds the same kind by
        value (a handle copied, a payload field assigned whole)."""
        if type(e) is GuardRef:
            raise TypeCheckError("guard %s is not a value" % e.name, self.line)
        if (ty is not None and not ty.ptr and ty.kind in _WHOLE_KINDS
                and (into is None or into.kind != ty.kind or into.ptr)):
            raise TypeCheckError("cannot read whole %s values" % ty.kind, self.line)

    def resolve_nothing(self, node: IntLit | GuardRef | DropCall) -> None:
        """A number, a guard, whose lock path was typed where it was
        declared, or a drop."""

    def resolve_var(self, e: Var, fn_name_ok: bool = False) -> Type | None:
        ty = self.params.get(e.name)
        if ty is not None:
            e.kind = "param"
        elif type(d := self.names.get(e.name)) is GlobalDecl:
            e.kind, ty = "global", d.ty
        elif d is None:
            raise UnknownIdentifier("unknown identifier %r" % e.name, self.line)
        elif not fn_name_ok:
            raise TypeCheckError("function %r used as a value" % e.name, self.line)
        else:
            e.kind = "function"
        e.ty = ty
        return ty

    def resolve_field_access(self, e: FieldAccess) -> Type:
        base_ty = _RESOLVE_EXPR[type(e.base)](self, e.base)
        if base_ty is None or base_ty.kind != "struct" or base_ty.ptr > 1:
            raise TypeCheckError(
                "field access %r on a non-struct value" % e.fld, self.line)
        struct = self.program.tags[base_ty.name]
        fd = struct.field_decl(e.fld)
        if fd is None:
            raise UnknownIdentifier(
                "struct %r has no field %r" % (struct.name, e.fld), self.line)
        e.owner = struct.name
        e.ty = fd.ty
        return fd.ty

    def resolve_addr_of(self, e: AddrOf) -> Type | None:
        inner = e.expr
        ty = _RESOLVE_EXPR[type(inner)](self, inner)
        if type(inner) is not Var and type(_place_root(inner)) not in _PLACE_ROOTS:
            raise TypeCheckError("cannot take the address of a non-place", self.line)
        return None if ty is None else Type(ty.kind, ty.name, ty.path, ty.ptr + 1)

    def resolve_deref(self, e: Deref) -> Type | None:
        """`(*g)` is guard g's payload: the struct P of a mutex<P>, or
        nothing for a mutex_t."""
        inner = e.expr
        if type(inner) is GuardRef:
            ty = self.lock_type(inner.path, self.line)
            return Type("struct", ty.name) if ty.kind == "lock" else None
        ty = _RESOLVE_EXPR[type(inner)](self, inner)
        if ty is not None and ty.ptr == 0:
            raise TypeCheckError("cannot dereference a non-pointer", self.line)
        return None if ty is None else Type(ty.kind, ty.name, ty.path, ty.ptr - 1)

    def resolve_binary(self, e: Binary) -> None:
        """Both operands are read (check_read)."""
        lhs, rhs = e.lhs, e.rhs
        lty = _RESOLVE_EXPR[type(lhs)](self, lhs)
        rty = _RESOLVE_EXPR[type(rhs)](self, rhs)
        if type(lhs) is GuardRef or lty is not None and lty.kind in _WHOLE_KINDS:
            self.check_read(lhs, lty)
        if type(rhs) is GuardRef or rty is not None and rty.kind in _WHOLE_KINDS:
            self.check_read(rhs, rty)

    def resolve_call_expr(self, e: Call) -> None:
        self.resolve_call(e, [e])  # its one value goes to the expression
        self.calls.append(e)

    def payload_type(self, e: PayloadAccess) -> Type:
        """The type of the payload field e names, which must be declared."""
        ty = self.lock_type(e.path, self.line)
        fd = self.program.tags[ty.name].field_decl(e.fld) if ty.kind == "lock" else None
        if fd is None:
            raise UnknownIdentifier(
                "lock %s has no payload field %r" % (".".join(e.path), e.fld), self.line)
        return fd.ty

    def reject_tuple(self, e: TupleExpr) -> None:
        raise TypeCheckError("a tuple is only a return value or a target list", self.line)

    def reject_acquire(self, e: _AcquireExpr) -> None:
        raise TypeCheckError("unexpected expression form", self.line)

    # -- calls ---------------------------------------------------------------

    def resolve_call(self, call: Call, targets: tuple | list) -> None:
        """Check call against its callee: one argument per parameter and one
        target per returned value, where targets are where its values go
        (none for a call that drops each)."""
        line = self.line
        name = call.name
        if name in LOCK_API:
            raise TypeCheckError("%s() must be a standalone statement" % name, line)
        fn = self.names.get(name)
        if type(fn) is not FunctionDef:
            raise UnknownIdentifier("call to undeclared function %r" % name, line)
        args, params = call.args, fn.params
        if len(args) != len(params):
            raise TypeCheckError("%s() takes %d arguments, got %d"
                                 % (name, len(params), len(args)), line)
        for a, param in zip(args, params):
            # read into a value parameter as by `=`; guards go to check_values
            ty = _RESOLVE_EXPR[type(a)](self, a)
            if ty is not None and ty.kind in _WHOLE_KINDS and param.ty.kind != "guard":
                self.check_read(a, ty, param.ty)
        call.arg_paths = tuple(map(place_path, args))
        self.check_values(fn, args, targets, "%s() returns void; its value cannot be used",
                          call)

    def check_values(self, fn: FunctionDef, args, rets, void: str, call: Call | None) -> None:
        """Match args to fn's parameters, then rets to what it returns (no
        targets drop each; `void` is the error for a plain void fn's value):
        the arguments and targets of call, or a return's values with no
        call. A guard stands exactly where fn takes or returns guard<p>, for
        p renamed through fn's parameters at call, or with no call for p itself."""
        names = None  # fn's parameter names, built at the first guard of a call
        values, types, verb = args, map(attrgetter("ty"), fn.params), "takes"
        while True:
            for v, ty in zip(values, types):
                if ty.kind != "guard" and type(v) is not GuardRef:
                    continue
                if ty.kind != "guard" or type(v) is not GuardRef:
                    what = ("a guard for %s, not a value" % ".".join(ty.path) if ty.kind == "guard"
                            else "a value, not guard %s" % v.name)
                    raise TypeCheckError("%s() %s %s" % (fn.name, verb, what), self.line)
                want = ty.path
                if call is not None:
                    names = names or [q.name for q in fn.params]
                    want = to_caller(want, names, call)
                    if want is None:
                        raise TypeCheckError(
                            "%s() %s a guard whose lock the call cannot name: %s"
                            % (fn.name, verb, not_a_place(ty.path)), self.line)
                if want != v.path:
                    raise TypeCheckError("guard %s is for %s, but %s() %s a guard for %s"
                                         % (v.name, ".".join(v.path), fn.name, verb,
                                            ".".join(want)), self.line)
            if verb == "returns":
                return
            if not rets and (call is not None or fn.returns_void):
                rets = [Discard()] * len(fn.rets)
            elif fn.returns_void:
                raise TypeCheckError(void % fn.name, self.line)
            elif len(rets) != len(fn.rets):
                raise TypeCheckError("%s() returns %d values, not %d"
                                     % (fn.name, len(fn.rets), len(rets)), self.line)
            values, types, verb = rets, fn.rets, "returns"

    def resolve_lock_api(self, call: Call, line: int) -> None:
        """Check a standalone lock-API call; record the lock path of a lock,
        unlock or init call on the call."""
        if call.name in (LOCK_FN, UNLOCK_FN, INIT_FN):
            if len(call.args) != 1:
                raise TypeCheckError(
                    "%s() takes 1 argument, got %d" % (call.name, len(call.args)), line)
            arg = call.args[0]
            if type(arg) is not AddrOf:
                raise TypeCheckError(
                    "%s() argument is not an address-of place" % call.name, line)
            ty = self.resolve_addr_of(arg)
            call.lock = place_path(arg.expr)
            if (ty is None or ty.ptr != 1 or ty.kind not in ("mutex", "lock")
                    or call.lock is None):
                raise TypeCheckError("lock-API argument does not denote a mutex", line)
            return
        # pthread_create(&t, f)
        if len(call.args) != 2:
            raise TypeCheckError(
                "pthread_create() takes 2 arguments, got %d" % len(call.args), line)
        handle, entry = call.args
        if type(handle) is not AddrOf:
            raise TypeCheckError(
                "pthread_create() first argument is not an address-of place", line)
        hty = self.resolve_addr_of(handle)
        if hty is None or hty.kind != "thread" or hty.ptr != 1:
            raise TypeCheckError(
                "pthread_create() first argument does not denote a thread handle", line)
        if type(entry) is not Var:
            raise TypeCheckError(
                "pthread_create() second argument must be a bare function name", line)
        self.resolve_var(entry, fn_name_ok=True)
        if entry.kind != "function":
            raise TypeCheckError(
                "pthread_create() second argument must name a function", line)


# The resolver of each node type the parser builds.
_RESOLVE_STMT = {
    Assign: _Resolver.resolve_assign,
    CallAssign: _Resolver.resolve_call_assign,
    Block: _Resolver.resolve_block,
    If: _Resolver.resolve_if,
    While: _Resolver.resolve_while,
    Return: _Resolver.resolve_return,
    AcquireAssign: _Resolver.resolve_acquire,
    DropCall: _Resolver.resolve_nothing,
}
_RESOLVE_EXPR = {
    IntLit: _Resolver.resolve_nothing,
    GuardRef: _Resolver.resolve_nothing,
    Var: _Resolver.resolve_var,
    FieldAccess: _Resolver.resolve_field_access,
    AddrOf: _Resolver.resolve_addr_of,
    Deref: _Resolver.resolve_deref,
    Binary: _Resolver.resolve_binary,
    Call: _Resolver.resolve_call_expr,
    PayloadAccess: _Resolver.payload_type,
    TupleExpr: _Resolver.reject_tuple,
    _AcquireExpr: _Resolver.reject_acquire,
}


def _place_root(e: Expr) -> Expr:
    """The expression a place's `&`, `*` and field accesses apply to, as
    place_path strips them: a Var or, in the guarded dialect, a
    PayloadAccess when e is a place."""
    while True:
        kind = type(e)
        if kind is FieldAccess:
            e = e.base
        elif kind is AddrOf or kind is Deref:
            e = e.expr
        else:
            return e


_PLACE_ROOTS = (Var, PayloadAccess)


@gc_paused
def parse(source: str) -> Program:
    """Parse and resolve a plain-dialect program."""
    return _Resolver(_Parser(tokenize(source), guarded=False).parse_program()).run()


@gc_paused
def parse_guarded(source: str) -> Program:
    """Parse and resolve a guarded-dialect program."""
    return _Resolver(_Parser(tokenize(source), guarded=True).parse_program()).run()
