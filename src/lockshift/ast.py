"""AST node types for the plain and guarded dialects, plus lock-path canonicalization.

Node classes use identity equality so they can key CFG maps and worklist
sets, and slots, so a node carries no per-instance dict. Program keeps its
dict for its cached by-name indexes. Record, the base of every record class
of the library, is defined here.
"""
from __future__ import annotations

from functools import cached_property

KEYWORDS = frozenset(
    ["int", "struct", "void", "mutex_t", "thread_t", "if", "else", "while", "return"]
)

LOCK_FN = "pthread_mutex_lock"
UNLOCK_FN = "pthread_mutex_unlock"
INIT_FN = "pthread_mutex_init"
CREATE_FN = "pthread_create"
LOCK_API = frozenset([LOCK_FN, UNLOCK_FN, INIT_FN, CREATE_FN])

# Binary operators and their precedence, loosest first; all associate to the
# left. The parser climbs this table and the printer parenthesizes by it.
BIN_PREC = {"==": 1, "!=": 1, "<": 1, "<=": 1, "+": 2, "-": 2, "*": 3}


# A canonical dotted place path, the tuple of its names: ("x", "m") for
# x.m. Its first name is a global or a parameter. Tuples of names sort as
# their dotted texts do (tests/test_summary.py checks this).
LockPath = tuple[str, ...]


def path_of(text: str) -> LockPath:
    """The lock path of dotted text (test/CLI convenience)."""
    return tuple(text.split("."))


# ---------------------------------------------------------------------------
# Records

class Record:
    """Base of the library's record classes, each written out with its
    __slots__ and __init__. They share one repr: the fields that the slots
    of the class and its bases name, a base's first, or the instance dict
    of a class that keeps one. A record is equal only to itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__,
                           ", ".join("%s=%r" % item for item in _fields(self)))


class ValueRecord(Record):
    """A record equal to any other of its class whose fields are equal."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)


def _fields(record: Record) -> list[tuple[str, object]]:
    """(name, value) of each field of record, in the order Record names them."""
    if hasattr(record, "__dict__"):
        return list(vars(record).items())
    return [(name, getattr(record, name)) for cls in reversed(type(record).__mro__)
            for name in cls.__dict__.get("__slots__", ())]


# ---------------------------------------------------------------------------
# Types

class Type(Record):
    """A declared type: base kind, optional struct/payload name, pointer depth."""

    __slots__ = ("kind", "name", "path", "ptr")
    lent = False  # True for a LentGuard

    def __init__(self, kind: str, name: str | None = None, path: LockPath | None = None,
                 ptr: int = 0):
        self.kind = kind  # int | void | mutex | thread | struct | lock | guard
        self.name = name  # struct name, or payload struct for kind == "lock"
        self.path = path  # lock path for kind == "guard"
        self.ptr = ptr

    def is_mutex(self) -> bool:
        """Whether a declaration of this type is a lock."""
        return self.kind in ("mutex", "lock") and self.ptr == 0


class LentGuard(Type):
    """`&guard<p>`, the type of a guard parameter its caller lends, as Rust's
    `&mut MutexGuard`: the function keeps it Owned throughout, and neither
    drops, moves nor rebinds it."""

    __slots__ = ()
    lent = True


def holds_data(ty: Type | None) -> bool:
    """Whether a declaration of this type is data a lock can protect: not a
    mutex or lock at any pointer depth, not a thread handle, and not a
    struct held by value."""
    return (ty is not None and ty.kind not in ("mutex", "lock", "thread")
            and (ty.kind != "struct" or ty.ptr > 0))


def root_type(path: LockPath, params: dict[str, Type], program: Program) -> Type | None:
    """The type of a lock path's first segment: a parameter of its name,
    which shadows a global, else the global; None when it names neither."""
    g = program.global_decl(path[0])
    return params.get(path[0]) or (g.ty if g is not None else None)


def lock_path_type(path: LockPath, params: dict[str, Type], program: Program) -> Type | None:
    """The type of the lock path names, a mutex_t or mutex<P>, reached from
    its root (root_type) through the fields of program's structs; None when
    it names no lock. Pointers on the way are followed, as lock paths drop
    `*`."""
    ty = root_type(path, params, program)
    for seg in path[1:]:
        struct = program.struct(ty.name) if ty is not None and ty.kind == "struct" else None
        fd = struct.field_decl(seg) if struct is not None else None
        ty = fd.ty if fd is not None else None
    return ty if ty is not None and ty.kind in ("mutex", "lock") else None


# ---------------------------------------------------------------------------
# Expressions

class Expr(Record):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Var(Expr):
    __slots__ = ("name", "kind", "ty")

    def __init__(self, name: str, kind: str | None = None, ty: Type | None = None):
        self.name = name
        self.kind = kind  # set by the resolver: "global" | "param" | "function"
        self.ty = ty


class FieldAccess(Expr):
    """Covers both `.` and `->`; arrow is recorded for printing only."""

    __slots__ = ("base", "fld", "arrow", "owner", "ty")

    def __init__(self, base: Expr, fld: str, arrow: bool = False, owner: str | None = None,
                 ty: Type | None = None):
        self.base = base
        self.fld = fld
        self.arrow = arrow
        self.owner = owner  # struct name owning fld, set by the resolver
        self.ty = ty


class AddrOf(Expr):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr


class Deref(Expr):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op = op  # + - * == != < <=
        self.lhs = lhs
        self.rhs = rhs


class Call(Expr):
    __slots__ = ("name", "args", "lock", "arg_paths")

    def __init__(self, name: str, args: list[Expr], lock: LockPath | None = None,
                 arg_paths: tuple[LockPath | None, ...] = ()):
        self.name = name
        self.args = args
        # set by the resolver on lock, unlock and init calls: the canonical
        # path of the mutex the call names
        self.lock = lock
        # set by the resolver on calls to defined functions: the canonical
        # place path of each argument, or None where the argument is not a place
        self.arg_paths = arg_paths


# Guarded-dialect expressions

class GuardRef(Expr):
    """A guard variable: a value where it is passed or returned, a receiver
    where it is a call statement's target."""

    __slots__ = ("name", "path")

    def __init__(self, name: str, path: LockPath):
        self.name = name
        self.path = path


class PayloadAccess(Expr):
    """A payload field of the lock at path: through the owned guard named
    guard, (*m_guard).n, or with no guard on the lock itself, m.get_mut().n."""

    __slots__ = ("path", "fld", "guard")

    def __init__(self, path: LockPath, fld: str, guard: str | None = None):
        self.path = path
        self.fld = fld
        self.guard = guard


class TupleExpr(Expr):
    """A parenthesised list `(a, b)`: only ever a return value, or the
    targets of a call statement before the parser unpacks them."""

    __slots__ = ("items",)

    def __init__(self, items: list[Expr]):
        self.items = items


class PayloadInit(Expr):
    """The initializer of a data-owning lock global: P { f = init, ... }."""

    __slots__ = ("payload", "inits")

    def __init__(self, payload: str, inits: list[tuple[str, Expr | None]]):
        self.payload = payload
        self.inits = inits


# ---------------------------------------------------------------------------
# Statements

class Stmt(Record):
    # calls: the calls evaluated by the statement itself, in evaluation
    # order: arguments before their call (a place holds none), and only the
    # condition of an If or While. Not an __init__ argument: the resolver
    # sets a tuple on each reachable statement that evaluates calls, and
    # every other statement keeps the shared empty default. So it is defined
    # only on what `parse` and `parse_guarded` return; a statement built by
    # hand, or by the transformer and not re-parsed, reports none. The
    # same holds for FunctionDef.calls, all of a function's calls.
    __slots__ = ("line", "calls")


class Assign(Stmt):
    """`place = value;` where value is not a call (see CallAssign); `value;`
    has no place (None), as `f();` has no targets."""

    __slots__ = ("place", "value")

    def __init__(self, line: int = 0, place: Expr | None = None,
                 value: Expr = None):  # type: ignore[assignment]
        self.line = line
        self.calls = ()
        self.place = place
        self.value = value


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, line: int = 0, stmts: list[Stmt] | None = None):
        self.line = line
        self.calls = ()
        self.stmts = [] if stmts is None else stmts


class If(Stmt):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, line: int = 0, cond: Expr = None,  # type: ignore[assignment]
                 then: Block = None, orelse: Block | None = None):  # type: ignore[assignment]
        self.line = line
        self.calls = ()
        self.cond = cond
        self.then = then
        self.orelse = orelse


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, line: int = 0, cond: Expr = None,  # type: ignore[assignment]
                 body: Block = None):  # type: ignore[assignment]
        self.line = line
        self.calls = ()
        self.cond = cond
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, line: int = 0, value: Expr | None = None):
        self.line = line
        self.calls = ()
        self.value = value


# Guarded-dialect statements

class AcquireAssign(Stmt):
    __slots__ = ("guard", "path")

    def __init__(self, line: int = 0, guard: str = "",
                 path: LockPath = None):  # type: ignore[assignment]
        self.line = line
        self.calls = ()
        self.guard = guard
        self.path = path


class DropCall(Stmt):
    __slots__ = ("guard",)

    def __init__(self, line: int = 0, guard: str = ""):
        self.line = line
        self.calls = ()
        self.guard = guard


class Discard(Record):
    """The `_` target of a call statement: that value is dropped."""

    __slots__ = ()


class CallAssign(Stmt):
    """Every statement whose value is a call, and where its values go, one
    target per returned value: `f();` has no targets (the shared empty
    tuple) and drops every value, `x = f();` has one, `(x, _, g) = f();`
    several. A target is a place, a GuardRef that receives, or a Discard."""

    __slots__ = ("targets", "call")

    def __init__(self, line: int = 0, targets: tuple = (),
                 call: Call = None):  # type: ignore[assignment]
        self.line = line
        self.calls = ()
        self.targets = targets
        self.call = call


# ---------------------------------------------------------------------------
# Declarations

class GlobalDecl(Record):
    __slots__ = ("ty", "name", "init", "line")

    def __init__(self, ty: Type, name: str, init: Expr | None, line: int):
        self.ty = ty
        self.name = name
        self.init = init  # a constant expression, or a lock's PayloadInit of them
        self.line = line


class FieldDecl(Record):
    __slots__ = ("ty", "name")

    def __init__(self, ty: Type, name: str):
        self.ty = ty
        self.name = name


def _first_by_name(decls) -> dict:
    """The first of decls under each name."""
    index: dict = {}
    for d in decls:
        index.setdefault(d.name, d)
    return index


class StructDef(Record):
    __slots__ = ("name", "fields", "line", "_by_name")

    def __init__(self, name: str, fields: list[FieldDecl], line: int):
        self.name = name
        self.fields = fields
        self.line = line
        # the first field of each name, built on first use
        self._by_name: dict[str, FieldDecl] | None = None

    def field_decl(self, name: str) -> FieldDecl | None:
        if self._by_name is None:
            self._by_name = _first_by_name(self.fields)
        return self._by_name.get(name)


class Param(Record):
    __slots__ = ("ty", "name")

    def __init__(self, ty: Type, name: str):
        self.ty = ty
        self.name = name


class GuardVarDecl(Record):
    __slots__ = ("guard", "path", "line")

    def __init__(self, guard: str, path: LockPath, line: int):
        self.guard = guard
        self.path = path
        self.line = line


class FunctionDef(Record):
    __slots__ = ("rets", "name", "params", "body", "line_span", "guard_decls", "calls",
                 "unreachable", "falls_through")

    def __init__(self, rets: tuple[Type, ...], name: str, params: list[Param], body: Block,
                 line_span: tuple[int, int], guard_decls: tuple[GuardVarDecl, ...] = ()):
        self.rets = rets
        self.name = name
        self.params = params
        self.body = body
        self.line_span = line_span
        self.guard_decls = guard_decls  # the shared () in the plain dialect
        # Set by the resolver, as are the two below. Every call of the body
        # in program order, the statements' calls (Stmt.calls) in iter_stmts
        # order: the one statement's own tuple when only one has calls.
        self.calls: tuple[Call, ...] = ()
        # The statements the resolver cut from the body, in textual order:
        # each follows a statement of its block that ends every path. They
        # are type-checked but take no call, and are kept for
        # cfg.warn_unreachable.
        self.unreachable: tuple[Stmt, ...] = ()
        # Whether a path can run off the end of the body; True until the
        # resolver decides it.
        self.falls_through = True

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.params]

    @property
    def returns_void(self) -> bool:
        """Declared plain `void`: its calls have no value. `void *` has one."""
        ret = self.rets[0]
        return len(self.rets) == 1 and ret.kind == "void" and not ret.ptr


class Program(Record):
    """A program in either dialect. A guarded program's data-owning locks
    are globals of type mutex<P>. Its by-name indexes, cached on first use,
    keep the first declaration of each name: `names` for globals and
    functions, which share one namespace, and `tags` for structs."""

    def __init__(self, globals: list[GlobalDecl], structs: list[StructDef],
                 functions: list[FunctionDef]):
        self.globals = globals
        self.structs = structs
        self.functions = functions

    @cached_property
    def names(self) -> dict[str, GlobalDecl | FunctionDef]:
        return _first_by_name([*self.globals, *self.functions])

    @cached_property
    def tags(self) -> dict[str, StructDef]:
        return _first_by_name(self.structs)

    def function(self, name: str) -> FunctionDef | None:
        return d if type(d := self.names.get(name)) is FunctionDef else None

    def global_decl(self, name: str) -> GlobalDecl | None:
        return d if type(d := self.names.get(name)) is GlobalDecl else None

    def struct(self, name: str) -> StructDef | None:
        return self.tags.get(name)


# ---------------------------------------------------------------------------
# Place paths, statements and calls

def place_path(e: Expr) -> LockPath | None:
    """Canonical dotted path of a place expression, or None if e is not a place.

    Strips `&` and `*`, and treats `->` like `.`, so `&(*a).m`, `&a->m`,
    and `a.m` all canonicalize to a.m.
    """
    segs: list[str] = []
    while True:
        t = type(e)
        if t is AddrOf or t is Deref:
            e = e.expr
        elif t is FieldAccess:
            segs.append(e.fld)
            e = e.base
        elif t is Var:
            segs.append(e.name)
            return tuple(reversed(segs))
        else:
            return None


def to_caller(path: LockPath, params, call: Call) -> LockPath | None:
    """Rename a callee's lock path into the caller's namespace at call.

    A path rooted at parameter i has that root replaced by the place of
    argument i: p.m becomes x.inner.m for the argument &x->inner. Any other
    path, such as a global, is unchanged. None when the argument is not a
    place, so the caller cannot name the path.
    """
    for i, name in enumerate(params):
        if path[0] == name:
            arg = call.arg_paths[i]
            return None if arg is None else arg + path[1:]
    return path


def to_callee(path: LockPath, params, call: Call) -> LockPath | None:
    """Rename a caller's lock path into the callee's namespace at call.

    The first parameter whose argument place is a prefix of path replaces
    that prefix: x.inner.m becomes p.m for the argument &x->inner. None
    when no argument place prefixes path.
    """
    for param, arg in zip(params, call.arg_paths):
        if arg is not None and path[:len(arg)] == arg:
            return (param,) + path[len(arg):]
    return None


def not_a_place(path: LockPath) -> str:
    """Why to_caller gave None for path: the argument for its root
    parameter is not a place."""
    return ("argument for parameter %r is not a place (lock path %s)"
            % (path[0], ".".join(path)))


def iter_stmts(block: "Block"):
    """All statements under a block, outer-first, textual order."""
    pending = block.stmts[::-1]  # next on top: one frame at any depth
    while pending:
        s = pending.pop()
        yield s
        t = type(s)
        if t is Block:
            pending += s.stmts[::-1]
        elif t is If:
            if s.orelse is not None:
                pending += s.orelse.stmts[::-1]
            pending += s.then.stmts[::-1]
        elif t is While:
            pending += s.body.stmts[::-1]


def function_calls(fn: FunctionDef) -> list[tuple[Stmt, Call]]:
    """Every call in fn paired with its enclosing statement, in program order."""
    return [(s, c) for s in iter_stmts(fn.body) for c in s.calls]


# (kind, expr, datum) of each data access, as data_accesses gives them
_Accesses = list[tuple[str, Expr, LockPath]]


def data_accesses(s: Stmt) -> _Accesses:
    """Data accesses evaluated by s itself, places before values.

    Each is (kind, expr, datum): kind is "read" or "write"; expr is the Var,
    FieldAccess or PayloadAccess that touches the datum; datum is its
    dotted path, where a payload field of lock path x.m maps back to x.fld.
    Every mention of a datum is an access, as it is every mention the
    transformer rewrites: the base of a field access and the operand of &
    are read, and a dereferenced place keeps its kind.
    """
    out: _Accesses = []
    t = type(s)
    if t is Assign:
        _collect_accesses(s.place, "write", out)  # None adds nothing
        _collect_accesses(s.value, "read", out)
    elif t is CallAssign:
        for target in s.targets:  # a guard or a Discard adds nothing
            _collect_accesses(target, "write", out)
        _collect_accesses(s.call, "read", out)
    elif t is If or t is While:
        _collect_accesses(s.cond, "read", out)
    elif t is Return:
        _collect_accesses(s.value, "read", out)
    return out


def datum_of(e: Var | FieldAccess) -> LockPath | None:
    """The dotted path of the global or struct field e names, or None when
    e names no data a lock can protect."""
    if not holds_data(e.ty):
        return None
    if type(e) is Var:
        return (e.name,) if e.kind == "global" else None
    base = place_path(e.base) if e.owner is not None else None
    return base + (e.fld,) if base is not None else None


def _collect_accesses(e: Expr | None, kind: str, out: _Accesses) -> None:
    """The accesses of e, accessed as kind, by its type's handler in
    _ACCESSES: the operand of &, a binary's operands, a call's arguments
    and a tuple's items are read whatever kind is. A number, a guard and
    None touch no datum."""
    collect = _ACCESSES.get(type(e))
    if collect is not None:
        collect(e, kind, out)


def _datum_access(e: Var | FieldAccess, kind: str, out: _Accesses) -> None:
    datum = datum_of(e)
    if datum is not None:
        out.append((kind, e, datum))


def _field_accesses(e: FieldAccess, kind: str, out: _Accesses) -> None:
    _datum_access(e, kind, out)
    _collect_accesses(e.base, "read", out)


def _payload_accesses(e: PayloadAccess, kind: str, out: _Accesses) -> None:
    out.append((kind, e, e.path[:-1] + (e.fld,)))


def _addr_of_accesses(e: AddrOf, kind: str, out: _Accesses) -> None:
    _collect_accesses(e.expr, "read", out)


def _deref_accesses(e: Deref, kind: str, out: _Accesses) -> None:
    _collect_accesses(e.expr, kind, out)


def _binary_accesses(e: Binary, kind: str, out: _Accesses) -> None:
    _collect_accesses(e.lhs, "read", out)
    _collect_accesses(e.rhs, "read", out)


def _call_accesses(e: Call, kind: str, out: _Accesses) -> None:
    for a in e.args:
        _collect_accesses(a, "read", out)


def _tuple_accesses(e: TupleExpr, kind: str, out: _Accesses) -> None:
    for item in e.items:
        _collect_accesses(item, "read", out)


# The accesses of each node type that touches data (_collect_accesses).
_ACCESSES = {
    Var: _datum_access,
    FieldAccess: _field_accesses,
    PayloadAccess: _payload_accesses,
    AddrOf: _addr_of_accesses,
    Deref: _deref_accesses,
    Binary: _binary_accesses,
    Call: _call_accesses,
    TupleExpr: _tuple_accesses,
}
