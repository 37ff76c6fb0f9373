"""Recursive-descent parser and name resolver for both dialects.

parse() reads the plain dialect (.mc); parse_guarded() additionally accepts the
guarded forms a transformed program uses (.gmc): data-owning lock declarations,
guard variables typed guard<lock-path>, acquire/drop, parenthesised lists as
return values and call targets, and payload accesses.

A call statement is one CallAssign: `f();`, `x = f();` or `(x, g) = f();`.
parse_primary reads a parenthesised list as a TupleExpr, which the resolver
accepts only as a return value or unpacked into a call's targets.
"""
from __future__ import annotations

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
    ExprStmt,
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


class _AcquireExpr(Expr):
    """Parse-time marker for `path.acquire()`; must become an AcquireAssign."""

    def __init__(self, path: LockPath, line: int):
        self.path = path
        self.line = line


class _Parser:
    """Recursive descent over the token lists of a `Tokens`, which end in
    one eof token. A token is its index, as `self.pos` is and as `peek`,
    `next`, `expect` and `expect_ident` return it; the parser reads
    `self.kinds[i]`, `self.values[i]` and `self.lines[i]`. A column is
    computed only for a ParseError (`fail`).

    eof's value is "", which no caller asks `at`, `accept` or `expect` for,
    and `next` never moves past it, so `self.pos` is always a valid index.
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
        # Levels open around the current token: blocks, and the parentheses,
        # calls and unary operators the parser is inside. `height` is the
        # levels of the expression parsed last, below its own position; a
        # deep spot is `depth + height` (see NESTING_LIMIT).
        self.depth = 0
        self.height = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int) -> int:
        """The token `ahead` places on, or eof."""
        return min(self.pos + ahead, self.eof)

    def next(self) -> int:
        i = self.pos
        if i < self.eof:
            self.pos = i + 1
        return i

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

    def nest(self, i: int) -> None:
        """Open one more level at token `i`; the caller closes it with `depth -= 1`."""
        self.depth += 1
        if self.depth > NESTING_LIMIT:
            raise self.fail("nested too deeply (the limit is %d levels)" % NESTING_LIMIT, i)

    def grow(self, i: int, height: int) -> None:
        """The expression just built at token `i` sits one level above a
        subtree `height` levels high."""
        height += 1
        if self.depth + height > NESTING_LIMIT:
            raise self.fail("nested too deeply (the limit is %d levels)" % NESTING_LIMIT, i)
        self.height = height

    def expect_ident(self, what: str = "identifier") -> int:
        i = self.pos
        if self.kinds[i] != "ident":
            raise self.fail("expected %s, found %r" % (what, self.values[i] or "end of input"))
        return self.next()

    def fail(self, message: str, i: int | None = None) -> ParseError:
        """A ParseError at token `i`, by default the current one."""
        if i is None:
            i = self.pos
        return ParseError(message, self.lines[i], self.col(i))

    # -- types ---------------------------------------------------------------

    def at_type(self) -> bool:
        kind, value = self.kinds[self.pos], self.values[self.pos]
        if kind == "kw" and value in ("int", "void", "mutex_t", "thread_t", "struct"):
            return True
        if self.guarded and kind == "ident" and value in ("mutex", "guard"):
            return self.values[self.peek(1)] == "<"
        return False

    def parse_type(self) -> Type:
        t = self.next()
        value = self.values[t]
        if value in _BASE_KINDS:
            ty = Type(_BASE_KINDS[value])
        elif value == "struct":
            name = self.expect_ident("struct name")
            ty = Type("struct", self.values[name])
        elif self.guarded and value == "mutex":
            self.expect("<")
            payload = self.expect_ident("payload struct name")
            self.expect(">")
            ty = Type("lock", self.values[payload])
        elif self.guarded and value == "guard":
            self.expect("<")
            path = self.parse_dotted_path()
            self.expect(">")
            ty = Type("guard", path=path)
        else:
            raise self.fail("expected a type, found %r" % value, t)
        ptr = 0
        while self.accept("*"):
            ptr += 1
        ty.ptr = ptr
        return ty

    def parse_dotted_path(self) -> LockPath:
        segs = [self.values[self.expect_ident("path segment")]]
        while self.accept("."):
            segs.append(self.values[self.expect_ident("path segment")])
        return LockPath(tuple(segs))

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> Program:
        globals_: list[GlobalDecl] = []
        structs: list[StructDef] = []
        functions: list[FunctionDef] = []
        values = self.values
        while self.pos != self.eof:
            if (self.at("struct") and self.kinds[self.peek(1)] == "ident"
                    and values[self.peek(2)] == "{"):
                structs.append(self.parse_struct_def())
                continue
            first = self.pos
            if values[first] == "(" and self.guarded:
                rets = self.parse_ret_types()
                name = self.expect_ident("function name")
                functions.append(self.parse_function(rets, name, self.lines[first]))
                continue
            if not self.at_type():
                raise self.fail("expected a declaration")
            ty = self.parse_type()
            name = self.expect_ident("declared name")
            if self.at("("):
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
        while self.accept(","):
            rets.append(self.parse_type())
        self.expect(")")
        if len(rets) < 2:
            raise self.fail("a tuple return type needs at least two members")
        return tuple(rets)

    def parse_function(self, rets: tuple[Type, ...], name: int, start_line: int) -> FunctionDef:
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                pty = self.parse_type()
                pname = self.expect_ident("parameter name")
                params.append(Param(pty, self.values[pname]))
                if not self.accept(","):
                    break
        self.expect(")")
        self.guards = {p.name: p.ty.path for p in params if p.ty.kind == "guard"}
        open_brace = self.expect("{")
        guard_decls: list[GuardVarDecl] = []
        while (self.guarded and self.kinds[self.pos] == "ident" and self.at("guard")
               and self.values[self.peek(1)] == "<"):
            decl_tok = self.next()
            self.expect("<")
            path = self.parse_dotted_path()
            self.expect(">")
            gname = self.values[self.expect_ident("guard variable name")]
            self.expect(";")
            guard_decls.append(GuardVarDecl(gname, path, self.lines[decl_tok]))
            self.guards[gname] = path
        stmts = self.parse_stmts()
        close = self.expect("}")
        body = Block(line=self.lines[open_brace], stmts=stmts)
        fn = FunctionDef(rets, self.values[name], params, body,
                         (start_line, self.lines[close]), guard_decls)
        self.guards = {}
        return fn

    # -- statements ------------------------------------------------------------

    def parse_stmts(self) -> list[Stmt]:
        """Statements up to a closing `}`."""
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self) -> Stmt:
        t = self.pos
        value = self.values[t]
        if value == "{":
            return self.parse_block()
        if value == "if":
            return self.parse_if()
        if value == "while":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_body_block()
            return While(line=self.lines[t], cond=cond, body=body)
        if value == "return":
            return self.parse_return()
        if (self.guarded and value == "drop" and self.kinds[t] == "ident"
                and self.values[self.peek(1)] == "("):
            self.next()
            self.expect("(")
            gname = self.expect_ident("guard variable")
            if self.values[gname] not in self.guards:
                raise self.fail("drop target %r is not a guard" % self.values[gname], gname)
            self.expect(")")
            self.expect(";")
            return DropCall(line=self.lines[t], guard=self.values[gname])
        return self.parse_simple_stmt()

    def parse_block(self) -> Block:
        t = self.next()
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
        value = None if self.at(";") else self.parse_expr()
        self.expect(";")
        return Return(line=line, value=value)

    def parse_simple_stmt(self) -> Stmt:
        """An expression statement or an assignment. The one producer of
        CallAssign: a call whose values go to no target, to a place or
        guard, or to each item of a parenthesised list."""
        t = self.pos
        line = self.lines[t]
        place, value = None, self.parse_expr()
        if self.accept("="):
            place, value = value, self.parse_expr()
        self.expect(";")
        if isinstance(value, Call):
            targets = (tuple(place.items) if isinstance(place, TupleExpr)
                       else () if place is None else (place,))
            if self.guarded:  # where a bare `_` target drops its value
                targets = tuple(Discard() if isinstance(e, Var) and e.name == "_" else e
                                for e in targets)
            return CallAssign(line=line, targets=targets, call=value)
        if isinstance(place, TupleExpr):
            raise self.fail("destructuring assignment needs a call on the right", t)
        if isinstance(value, _AcquireExpr):
            if place is None:
                raise self.fail("acquire() result must be assigned to a guard", t)
            if not isinstance(place, GuardRef):
                raise self.fail("acquire() must assign to a guard variable", t)
            return AcquireAssign(line=line, guard=place.name, path=value.path)
        if place is None:
            return ExprStmt(line=line, expr=value)
        if isinstance(place, GuardRef):
            raise self.fail("a guard can only receive acquire() or a call result", t)
        return Assign(line=line, place=place, value=value)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing: operators of at least `min_prec` bind here,
        and a right operand takes only operators that bind tighter, so
        equal precedence groups to the left."""
        e = self.parse_unary()
        while True:
            t = self.pos
            op = self.values[t]
            prec = BIN_PREC.get(op)
            if prec is None or prec < min_prec:
                return e
            self.pos = t + 1
            lhs_height = self.height
            e = Binary(op, e, self.parse_expr(prec + 1))
            height = self.height
            self.grow(t, height if height > lhs_height else lhs_height)

    def parse_unary(self) -> Expr:
        t = self.pos
        value = self.values[t]
        if value == "&" or value == "*":
            self.pos = t + 1
            self.nest(t)
            mut = value == "&" and self.accept("mut")
            e = self.parse_unary()
            self.depth -= 1
            self.height += 1
            return AddrOf(e, mut) if value == "&" else Deref(e)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_primary()
        values = self.values
        while True:
            t = self.pos
            value = values[t]
            if value == "." or value == "->":
                self.pos = t + 1
                fld = self.expect_ident("field name")
                if self.at("("):
                    e = self.parse_method(e, fld)
                else:
                    e = self._make_field_access(e, t, values[fld])
            elif value == "(" and isinstance(e, Var):
                e = self.parse_call(e.name)
            else:
                return e

    def _make_field_access(self, base: Expr, op: int, fld: str) -> Expr:
        if isinstance(base, Deref) and isinstance(base.expr, GuardRef):
            g = base.expr
            return PayloadAccess(g.path, fld, g.name)  # a leaf: adds no level
        self.grow(op, self.height)
        return FieldAccess(base, fld, self.values[op] == "->")

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

    def parse_call(self, name: str) -> Call:
        self.nest(self.expect("("))
        args: list[Expr] = []
        height = 0
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if self.height > height:
                    height = self.height
                if not self.accept(","):
                    break
        self.expect(")")
        self.depth -= 1
        self.height = height + 1
        return Call(name, args)

    def parse_primary(self) -> Expr:
        t = self.pos
        kind = self.kinds[t]
        value = self.values[t]
        if kind == "ident":
            self.pos = t + 1
            self.height = 0
            if value in self.guards:
                return GuardRef(value, self.guards[value])
            return Var(value)
        if kind == "int":
            self.pos = t + 1
            self.height = 0
            return IntLit(int(value))
        if value == "(":
            values = self.values
            g = values[self.peek(2)]
            if g in self.guards and values[self.peek(1)] == "*" and values[self.peek(3)] == ")":
                self.pos = t + 4  # `(*g)`: a leaf, see NESTING_LIMIT
                self.height = 0
                return Deref(GuardRef(g, self.guards[g]))
            self.pos = t + 1
            self.nest(t)
            e = self.parse_expr()
            if self.guarded and self.at(","):  # a tuple, as high as its highest item
                items = [e]
                height = self.height
                while self.accept(","):
                    items.append(self.parse_expr())
                    if self.height > height:
                        height = self.height
                self.height = height
                e = TupleExpr(items)
            self.expect(")")
            self.depth -= 1
            self.height += 1
            return e
        raise self.fail("expected an expression, found %r" % (value or "end of input"))


# ---------------------------------------------------------------------------
# Name resolution and checking

_RESERVED = "%s named '_': a target named '_' drops its value"


class _Resolver:
    def __init__(self, program: Program):
        self.program = program
        self.names = program.names  # bound once for the lookup of each Var
        self.params: dict[str, Type] = {}
        # the type of each lock path typed in the current scope, by segments
        self.locks: dict[tuple[str, ...], Type] = {}
        # the lock path of each guard variable in the current function
        self.guards: dict[str, LockPath] = {}
        self.line = 0
        # calls of the statement being resolved, in evaluation order
        self.calls: list[Call] = []

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
                self.check_type(fd.ty, s.line)
        for g in p.globals:
            self.check_type(g.ty, g.line)
            self.line = g.line
            if isinstance(g.init, PayloadInit):
                self.resolve_payload_init(g)
            elif g.init is not None:
                self.resolve_expr(g.init)
            self.take_calls(g)
        for f in p.functions:
            self.resolve_function(f)
        return p

    def check_type(self, ty: Type, line: int) -> None:
        if ty.kind == "struct" and self.program.struct(ty.name) is None:
            raise UnknownIdentifier("unknown struct %r" % ty.name, line)
        if ty.kind == "lock" and self.program.struct(ty.name) is None:
            raise UnknownIdentifier("unknown payload struct %r" % ty.name, line)
        if ty.kind == "guard":
            self.lock_type(ty.path, line)

    def lock_type(self, path: LockPath, line: int) -> Type:
        """The type of the lock path names, from a parameter or global."""
        segs = path.segments
        ty = self.locks.get(segs)
        if ty is None:
            ty = lock_path_type(path, self.params, self.program)
            if ty is None:
                raise TypeCheckError("%s is not a lock" % path.text, line)
            self.locks[segs] = ty
        return ty

    def check_payload_field(self, path: LockPath, fld: str) -> None:
        ty = self.lock_type(path, self.line)
        if ty.kind != "lock" or self.program.struct(ty.name).field_decl(fld) is None:
            raise UnknownIdentifier(
                "lock %s has no payload field %r" % (path.text, fld), self.line)

    def resolve_payload_init(self, g: GlobalDecl) -> None:
        init = g.init
        if not g.ty.is_mutex():
            raise TypeCheckError("a payload initializer needs a lock held by value",
                                 self.line)
        payload = self.program.struct(init.payload)
        seen: set[str] = set()
        for fname, finit in init.inits:
            if payload.field_decl(fname) is None:
                raise UnknownIdentifier(
                    "payload %r has no field %r" % (init.payload, fname), self.line)
            if fname in seen:
                raise TypeCheckError("duplicate field %r in the initializer of %s"
                                     % (fname, g.name), self.line)
            seen.add(fname)
            if finit is not None:
                self.resolve_expr(finit)

    def resolve_function(self, f: FunctionDef) -> None:
        self.params = {}
        self.locks = {}
        line = f.line_span[0]
        for param in f.params:
            if param.name in self.params:
                raise TypeCheckError(
                    "duplicate parameter %r in %s" % (param.name, f.name), line)
            if param.name == "_":
                raise TypeCheckError(_RESERVED % "parameter", line)
            self.params[param.name] = param.ty
        for ty in [param.ty for param in f.params] + list(f.rets):
            self.check_type(ty, line)
        self.guards = {p.name: p.ty.path for p in f.params if p.ty.kind == "guard"}
        for d in f.guard_decls:
            if d.guard in self.params:
                raise TypeCheckError("guard %r shadows a parameter of %s"
                                     % (d.guard, f.name), d.line)
            if d.guard in self.guards:
                raise TypeCheckError("duplicate guard %r in %s" % (d.guard, f.name), d.line)
            self.lock_type(d.path, d.line)
            self.guards[d.guard] = d.path
        self.resolve_block(f.body)

    def resolve_block(self, b: Block) -> None:
        for s in b.stmts:
            self.resolve_stmt(s)

    def resolve_stmt(self, s: Stmt) -> None:
        """Resolve s and move the calls it evaluates itself onto s.calls;
        an If or While takes its condition's calls before its nested
        statements resolve, and a Block has none of its own."""
        self.line = s.line
        if isinstance(s, Assign):
            self.resolve_expr(s.value)
            self.resolve_expr(s.place)
            self.check_assign_place(s.place, s.line)
        elif isinstance(s, CallAssign):
            if s.call.name in LOCK_API and not s.targets:
                self.resolve_lock_api(s.call, s.line)
            else:
                self.resolve_call(s.call, s.targets)
            self.calls.append(s.call)
            for t in s.targets:
                if isinstance(t, Expr):
                    self.resolve_expr(t)
                    self.check_assign_place(t, s.line)
        elif isinstance(s, ExprStmt):
            self.resolve_expr(s.expr)
        elif isinstance(s, Block):
            self.resolve_block(s)
        elif isinstance(s, If):
            self.resolve_expr(s.cond)
            self.take_calls(s)
            self.resolve_block(s.then)
            if s.orelse is not None:
                self.resolve_block(s.orelse)
        elif isinstance(s, While):
            self.resolve_expr(s.cond)
            self.take_calls(s)
            self.resolve_block(s.body)
        elif isinstance(s, Return):
            if isinstance(s.value, TupleExpr):
                for item in s.value.items:
                    self.resolve_expr(item)
            elif s.value is not None:
                self.resolve_expr(s.value)
        elif isinstance(s, AcquireAssign):
            self.lock_type(s.path, s.line)
            held = self.guards[s.guard]
            if s.path != held:
                raise TypeCheckError("guard %s is for %s, not %s"
                                     % (s.guard, held.text, s.path.text), s.line)
        elif isinstance(s, DropCall):
            pass
        else:
            raise TypeCheckError("unexpected statement form", s.line)
        self.take_calls(s)

    def take_calls(self, s: Stmt | GlobalDecl) -> None:
        if self.calls:
            s.calls = tuple(self.calls)
            self.calls.clear()

    def check_assign_place(self, e: Expr, line: int) -> None:
        """e is a place to assign, a payload field, or, as a destructuring
        target, a guard that receives."""
        if isinstance(e, (PayloadAccess, GuardRef)):
            return
        if place_path(e) is None or isinstance(e, AddrOf):
            raise TypeCheckError("assignment target is not a place", line)
        ty = self.place_type(e)
        if ty is not None and ty.ptr == 0 and ty.kind in ("struct", "mutex", "lock"):
            raise TypeCheckError("cannot assign whole %s values" % ty.kind, line)

    def resolve_expr(self, e: Expr, fn_name_ok: bool = False) -> None:
        if isinstance(e, IntLit):
            return
        if isinstance(e, Var):
            if e.name in self.params:
                e.kind, e.ty = "param", self.params[e.name]
            elif isinstance(d := self.names.get(e.name), GlobalDecl):
                e.kind, e.ty = "global", d.ty
            elif d is not None:
                if not fn_name_ok:
                    raise TypeCheckError(
                        "function %r used as a value" % e.name, self.line)
                e.kind = "function"
            else:
                raise UnknownIdentifier("unknown identifier %r" % e.name, self.line)
            return
        if isinstance(e, FieldAccess):
            self.resolve_expr(e.base)
            base_ty = self.place_type(e.base)
            if base_ty is None or base_ty.kind != "struct" or base_ty.ptr > 1:
                raise TypeCheckError(
                    "field access %r on a non-struct value" % e.fld, self.line)
            struct = self.program.struct(base_ty.name)
            fd = struct.field_decl(e.fld)
            if fd is None:
                raise UnknownIdentifier(
                    "struct %r has no field %r" % (struct.name, e.fld), self.line)
            e.owner = struct.name
            e.ty = fd.ty
            return
        if isinstance(e, AddrOf):
            self.resolve_expr(e.expr)
            if place_path(e.expr) is None and not isinstance(e.expr, PayloadAccess):
                raise TypeCheckError("cannot take the address of a non-place", self.line)
            return
        if isinstance(e, Deref):
            self.resolve_expr(e.expr)
            inner = self.place_type(e.expr)
            if inner is not None and inner.ptr == 0:
                raise TypeCheckError("cannot dereference a non-pointer", self.line)
            return
        if isinstance(e, Binary):
            self.resolve_expr(e.lhs)
            self.resolve_expr(e.rhs)
            return
        if isinstance(e, Call):
            self.resolve_call(e, [e])  # its one value goes to the expression
            self.calls.append(e)
            return
        if isinstance(e, PayloadAccess):
            self.check_payload_field(e.path, e.fld)
            return
        if isinstance(e, GuardRef):
            return
        if isinstance(e, TupleExpr):
            raise TypeCheckError("a tuple is only a return value or a target list", self.line)
        raise TypeCheckError("unexpected expression form", self.line)

    def place_type(self, e: Expr) -> Type | None:
        if isinstance(e, (Var, FieldAccess)):
            return e.ty
        if isinstance(e, Deref):
            inner = self.place_type(e.expr)
            if inner is not None and inner.ptr > 0:
                return inner.deref()
            return None
        if isinstance(e, AddrOf):
            inner = self.place_type(e.expr)
            if inner is not None:
                return Type(inner.kind, inner.name, inner.path, inner.ptr + 1)
            return None
        return None

    def resolve_call(self, call: Call, targets: tuple | list) -> None:
        """Check call against its callee: one argument per parameter and one
        target per returned value, where targets are where its values go
        (none for a call that drops each). Each guard passed or received is
        a guard for the lock the callee's guard<path> names at call."""
        line = self.line
        if call.name in LOCK_API:
            raise TypeCheckError("%s() must be a standalone statement" % call.name, line)
        fn = self.program.function(call.name)
        if fn is None:
            raise UnknownIdentifier("call to undeclared function %r" % call.name, line)
        if len(call.args) != len(fn.params):
            raise TypeCheckError("%s() takes %d arguments, got %d"
                                 % (call.name, len(fn.params), len(call.args)), line)
        for a in call.args:
            self.resolve_expr(a)
        call.arg_paths = tuple(place_path(a) for a in call.args)
        for a, p in zip(call.args, fn.params):
            if p.ty.kind == "guard" or isinstance(a, GuardRef):
                self.check_guard(a, p.ty, fn, call, "takes")
        if not targets:
            targets = [Discard()] * len(fn.rets)
        elif fn.returns_void:
            raise TypeCheckError(
                "%s() returns void; its value cannot be used" % call.name, line)
        if len(targets) != len(fn.rets):
            raise TypeCheckError("%s() returns %d values, not %d"
                                 % (call.name, len(fn.rets), len(targets)), line)
        for t, r in zip(targets, fn.rets):
            if r.kind == "guard" or isinstance(t, GuardRef):
                self.check_guard(t, r, fn, call, "returns")

    def check_guard(self, guard, ty: Type, fn: FunctionDef, call: Call, verb: str) -> None:
        """guard, an argument or target of call, is a guard where fn takes
        or returns ty = guard<path>, and one for the lock path names at
        call; it is no guard where ty is another type."""
        if ty.kind != "guard" or not isinstance(guard, GuardRef):
            what = ("a guard for %s, not a value" % ty.path.text if ty.kind == "guard"
                    else "a value, not guard %s" % guard.name)
            raise TypeCheckError("%s() %s %s" % (call.name, verb, what), self.line)
        want = to_caller(ty.path, fn.param_names, call)
        if want is None:
            raise TypeCheckError("%s() %s a guard whose lock the call cannot name: %s"
                                 % (call.name, verb, not_a_place(ty.path)), self.line)
        if want != guard.path:
            raise TypeCheckError("guard %s is for %s, but %s() %s a guard for %s"
                                 % (guard.name, guard.path.text, call.name, verb, want.text),
                                 self.line)

    def resolve_lock_api(self, call: Call, line: int) -> None:
        """Check a standalone lock-API call; record the lock path of a lock,
        unlock or init call on the call."""
        if call.name in (LOCK_FN, UNLOCK_FN, INIT_FN):
            if len(call.args) != 1:
                raise TypeCheckError(
                    "%s() takes 1 argument, got %d" % (call.name, len(call.args)), line)
            arg = call.args[0]
            if not isinstance(arg, AddrOf):
                raise TypeCheckError(
                    "%s() argument is not an address-of place" % call.name, line)
            self.resolve_expr(arg)
            ty = self.place_type(arg.expr)
            if ty is None or not ty.is_mutex():
                raise TypeCheckError("lock-API argument does not denote a mutex", line)
            call.lock = place_path(arg.expr)
            return
        # pthread_create(&t, f)
        if len(call.args) != 2:
            raise TypeCheckError(
                "pthread_create() takes 2 arguments, got %d" % len(call.args), line)
        handle, entry = call.args
        if not isinstance(handle, AddrOf):
            raise TypeCheckError(
                "pthread_create() first argument is not an address-of place", line)
        self.resolve_expr(handle)
        hty = self.place_type(handle.expr)
        if hty is None or hty.kind != "thread" or hty.ptr != 0:
            raise TypeCheckError(
                "pthread_create() first argument does not denote a thread handle", line)
        if not isinstance(entry, Var):
            raise TypeCheckError(
                "pthread_create() second argument must be a bare function name", line)
        self.resolve_expr(entry, fn_name_ok=True)
        if entry.kind != "function":
            raise TypeCheckError(
                "pthread_create() second argument must name a function", line)


@gc_paused
def parse(source: str) -> Program:
    """Parse and resolve a plain-dialect program."""
    return _Resolver(_Parser(tokenize(source), guarded=False).parse_program()).run()


@gc_paused
def parse_guarded(source: str) -> Program:
    """Parse and resolve a guarded-dialect program."""
    return _Resolver(_Parser(tokenize(source), guarded=True).parse_program()).run()
