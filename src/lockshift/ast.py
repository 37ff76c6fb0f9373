"""AST node types for the plain and guarded dialects, plus lock-path canonicalization.

Node classes use identity equality (eq=False) so they can key CFG maps and
worklist sets, and slots, so a node carries no per-instance dict. Program
keeps its dict for its cached by-name indexes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, order=True, slots=True)
class LockPath:
    """A canonical dotted place path; first segment is a global or a parameter."""

    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("lock path needs at least one segment")

    @property
    def text(self) -> str:
        return ".".join(self.segments)

    @property
    def root(self) -> str:
        return self.segments[0]

    def starts_with(self, prefix: "LockPath") -> bool:
        n = len(prefix.segments)
        return len(self.segments) >= n and self.segments[:n] == prefix.segments

    def child(self, segment: str) -> "LockPath":
        return LockPath(self.segments + (segment,))

    def sibling(self, name: str) -> "LockPath":
        """The path beside this one: n -> name, x.n -> x.name. A datum's
        lock is its sibling."""
        return LockPath(self.segments[:-1] + (name,))


def path_of(text: str) -> LockPath:
    """Build a LockPath from dotted text (test/CLI convenience)."""
    return LockPath(tuple(text.split(".")))


# ---------------------------------------------------------------------------
# Types

@dataclass(eq=False, slots=True)
class Type:
    """A declared type: base kind, optional struct/payload name, pointer depth."""

    kind: str  # int | void | mutex | thread | struct | lock | guard
    name: str | None = None      # struct name, or payload struct for kind == "lock"
    path: LockPath | None = None  # lock path for kind == "guard"
    ptr: int = 0

    def is_mutex(self) -> bool:
        """Whether a declaration of this type is a lock."""
        return self.kind in ("mutex", "lock") and self.ptr == 0


def holds_data(ty: Type | None) -> bool:
    """Whether a declaration of this type is data a lock can protect: not a
    mutex or lock at any pointer depth, not a thread handle, and not a
    struct held by value."""
    return (ty is not None and ty.kind not in ("mutex", "lock", "thread")
            and (ty.kind != "struct" or ty.ptr > 0))


def root_type(path: LockPath, params: dict[str, Type], program: Program) -> Type | None:
    """The type of a lock path's first segment: a parameter of its name,
    which shadows a global, else the global; None when it names neither."""
    g = program.global_decl(path.root)
    return params.get(path.root) or (g.ty if g is not None else None)


def lock_path_type(path: LockPath, params: dict[str, Type], program: Program) -> Type | None:
    """The type of the lock path names, a mutex_t or mutex<P>, reached from
    its root (root_type) through the fields of program's structs; None when
    it names no lock. Pointers on the way are followed, as lock paths drop
    `*`."""
    ty = root_type(path, params, program)
    for seg in path.segments[1:]:
        struct = program.struct(ty.name) if ty is not None and ty.kind == "struct" else None
        fd = struct.field_decl(seg) if struct is not None else None
        ty = fd.ty if fd is not None else None
    return ty if ty is not None and ty.kind in ("mutex", "lock") else None


# ---------------------------------------------------------------------------
# Expressions

@dataclass(eq=False, slots=True)
class Expr:
    pass


@dataclass(eq=False, slots=True)
class IntLit(Expr):
    value: int


@dataclass(eq=False, slots=True)
class Var(Expr):
    name: str
    # set by the resolver: "global" | "param" | "function"
    kind: str | None = None
    ty: Type | None = None


@dataclass(eq=False, slots=True)
class FieldAccess(Expr):
    """Covers both `.` and `->`; arrow is recorded for printing only."""

    base: Expr
    fld: str
    arrow: bool = False
    owner: str | None = None  # struct name owning fld, set by the resolver
    ty: Type | None = None


@dataclass(eq=False, slots=True)
class AddrOf(Expr):
    expr: Expr


@dataclass(eq=False, slots=True)
class Deref(Expr):
    expr: Expr


@dataclass(eq=False, slots=True)
class Binary(Expr):
    op: str  # + - * == != < <=
    lhs: Expr
    rhs: Expr


@dataclass(eq=False, slots=True)
class Call(Expr):
    name: str
    args: list[Expr]
    # set by the resolver on lock, unlock and init calls: the canonical path
    # of the mutex the call names
    lock: LockPath | None = None
    # set by the resolver on calls to defined functions: the canonical place
    # path of each argument, or None where the argument is not a place
    arg_paths: tuple[LockPath | None, ...] = ()


# Guarded-dialect expressions

@dataclass(eq=False, slots=True)
class GuardRef(Expr):
    """A guard variable: a value where it is passed or returned, a receiver
    where it is a call statement's target."""

    name: str
    path: LockPath


@dataclass(eq=False, slots=True)
class PayloadAccess(Expr):
    """A payload field of the lock at path: through the owned guard named
    guard, (*m_guard).n, or with no guard on the lock itself, m.get_mut().n."""

    path: LockPath
    fld: str
    guard: str | None = None


@dataclass(eq=False, slots=True)
class TupleExpr(Expr):
    """A parenthesised list `(a, b)`: only ever a return value, or the
    targets of a call statement before the parser unpacks them."""

    items: list[Expr]


@dataclass(eq=False, slots=True)
class PayloadInit(Expr):
    """The initializer of a data-owning lock global: P { f = init, ... }."""

    payload: str
    inits: list[tuple[str, Expr | None]]


# ---------------------------------------------------------------------------
# Statements

@dataclass(eq=False, slots=True)
class Stmt:
    line: int = 0
    # The calls evaluated by the statement itself, in evaluation order:
    # arguments before their call (a place holds none), and only the
    # condition of an If or While. Not an __init__ argument: the
    # resolver sets a tuple on each statement that evaluates calls, and
    # every other statement keeps the shared empty default. So it is defined
    # only on what `parse` and `parse_guarded` return; a statement built by
    # hand, or by the transformer and not re-parsed, reports none.
    calls: tuple[Call, ...] = field(default=(), init=False, repr=False)


@dataclass(eq=False, slots=True)
class Assign(Stmt):
    """`place = value;` where value is not a call (see CallAssign); `value;`
    has no place (None), as `f();` has no targets."""

    place: Expr | None = None
    value: Expr = None  # type: ignore[assignment]


@dataclass(eq=False, slots=True)
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Block = None  # type: ignore[assignment]
    orelse: Block | None = None


@dataclass(eq=False, slots=True)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False, slots=True)
class Return(Stmt):
    value: Expr | None = None


# Guarded-dialect statements

@dataclass(eq=False, slots=True)
class AcquireAssign(Stmt):
    guard: str = ""
    path: LockPath = None  # type: ignore[assignment]


@dataclass(eq=False, slots=True)
class DropCall(Stmt):
    guard: str = ""


@dataclass(eq=False, slots=True)
class Discard:
    """The `_` target of a call statement: that value is dropped."""


@dataclass(eq=False, slots=True)
class CallAssign(Stmt):
    """Every statement whose value is a call, and where its values go, one
    target per returned value: `f();` has no targets (the shared empty
    tuple) and drops every value, `x = f();` has one, `(x, _, g) = f();`
    several. A target is a place, a GuardRef that receives, or a Discard."""

    targets: tuple = ()
    call: Call = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Declarations

@dataclass(eq=False, slots=True)
class GlobalDecl:
    ty: Type
    name: str
    init: Expr | None
    line: int
    # the calls of init, set by the resolver as on a statement (Stmt.calls)
    calls: tuple[Call, ...] = field(default=(), init=False, repr=False)


@dataclass(eq=False, slots=True)
class FieldDecl:
    ty: Type
    name: str


def _first_by_name(decls) -> dict:
    """The first of decls under each name."""
    index: dict = {}
    for d in decls:
        index.setdefault(d.name, d)
    return index


@dataclass(eq=False, slots=True)
class StructDef:
    name: str
    fields: list[FieldDecl]
    line: int
    # the first field of each name, built on first use
    _by_name: dict[str, FieldDecl] | None = field(default=None, init=False, repr=False)

    def field_decl(self, name: str) -> FieldDecl | None:
        if self._by_name is None:
            self._by_name = _first_by_name(self.fields)
        return self._by_name.get(name)


@dataclass(eq=False, slots=True)
class Param:
    ty: Type
    name: str


@dataclass(eq=False, slots=True)
class GuardVarDecl:
    guard: str
    path: LockPath
    line: int


@dataclass(eq=False, slots=True)
class FunctionDef:
    rets: tuple[Type, ...]
    name: str
    params: list[Param]
    body: Block
    line_span: tuple[int, int]
    guard_decls: list[GuardVarDecl] = field(default_factory=list)

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.params]

    @property
    def returns_void(self) -> bool:
        """Declared plain `void`: its calls have no value. `void *` has one."""
        ret = self.rets[0]
        return len(self.rets) == 1 and ret.kind == "void" and not ret.ptr


@dataclass(eq=False)
class Program:
    """A program in either dialect. A guarded program's data-owning locks
    are globals of type mutex<P>. Its by-name indexes, cached on first use,
    keep the first declaration of each name: `names` for globals and
    functions, which share one namespace, and `tags` for structs."""

    globals: list[GlobalDecl]
    structs: list[StructDef]
    functions: list[FunctionDef]

    @cached_property
    def names(self) -> dict[str, GlobalDecl | FunctionDef]:
        return _first_by_name([*self.globals, *self.functions])

    @cached_property
    def tags(self) -> dict[str, StructDef]:
        return _first_by_name(self.structs)

    def function(self, name: str) -> FunctionDef | None:
        return d if isinstance(d := self.names.get(name), FunctionDef) else None

    def global_decl(self, name: str) -> GlobalDecl | None:
        return d if isinstance(d := self.names.get(name), GlobalDecl) else None

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
        if isinstance(e, (AddrOf, Deref)):
            e = e.expr
        elif isinstance(e, FieldAccess):
            segs.append(e.fld)
            e = e.base
        elif isinstance(e, Var):
            segs.append(e.name)
            return LockPath(tuple(reversed(segs)))
        else:
            return None


def to_caller(path: LockPath, params, call: Call) -> LockPath | None:
    """Rename a callee's lock path into the caller's namespace at call.

    A path rooted at parameter i has that root replaced by the place of
    argument i: p.m becomes x.inner.m for the argument &x->inner. Any other
    path, such as a global, is unchanged. None when the argument is not a
    place, so the caller cannot name the path.
    """
    segs = path.segments
    for i, name in enumerate(params):
        if segs[0] == name:
            arg = call.arg_paths[i]
            if arg is None:
                return None
            return LockPath(arg.segments + segs[1:])
    return path


def to_callee(path: LockPath, params, call: Call) -> LockPath | None:
    """Rename a caller's lock path into the callee's namespace at call.

    The first parameter whose argument place is a prefix of path replaces
    that prefix: x.inner.m becomes p.m for the argument &x->inner. None
    when no argument place prefixes path.
    """
    for param, arg in zip(params, call.arg_paths):
        if arg is not None and path.starts_with(arg):
            return LockPath((param,) + path.segments[len(arg.segments):])
    return None


def not_a_place(path: LockPath) -> str:
    """Why to_caller gave None for path: the argument for its root
    parameter is not a place."""
    return ("argument for parameter %r is not a place (lock path %s)"
            % (path.root, path.text))


def iter_stmts(block: "Block"):
    """All statements under a block, outer-first, textual order."""
    for s in block.stmts:
        yield s
        if isinstance(s, Block):
            yield from iter_stmts(s)
        elif isinstance(s, If):
            yield from iter_stmts(s.then)
            if s.orelse is not None:
                yield from iter_stmts(s.orelse)
        elif isinstance(s, While):
            yield from iter_stmts(s.body)


def function_calls(fn: FunctionDef) -> list[tuple[Stmt, Call]]:
    """Every call in fn paired with its enclosing statement, in program order."""
    return [(s, c) for s in iter_stmts(fn.body) for c in s.calls]


def data_accesses(s: Stmt) -> list[tuple[str, Expr, LockPath]]:
    """Data accesses evaluated by s itself, places before values.

    Each is (kind, expr, datum): kind is "read" or "write"; expr is the Var,
    FieldAccess or PayloadAccess that touches the datum; datum is its
    dotted path, where a payload field of lock path x.m maps back to x.fld.
    Every mention of a datum is an access, as it is every mention the
    transformer rewrites: the base of a field access and the operand of &
    are read, and a dereferenced place keeps its kind.
    """
    out: list[tuple[str, Expr, LockPath]] = []
    if isinstance(s, Assign):
        _collect_accesses(s.place, "write", out)  # None adds nothing
        _collect_accesses(s.value, "read", out)
    elif isinstance(s, CallAssign):
        for t in s.targets:
            if isinstance(t, Expr):
                _collect_accesses(t, "write", out)
        _collect_accesses(s.call, "read", out)
    elif isinstance(s, (If, While)):
        _collect_accesses(s.cond, "read", out)
    elif isinstance(s, Return):
        _collect_accesses(s.value, "read", out)
    return out


def datum_of(e: Var | FieldAccess) -> LockPath | None:
    """The dotted path of the global or struct field e names, or None when
    e names no data a lock can protect."""
    if not holds_data(e.ty):
        return None
    if isinstance(e, Var):
        return LockPath((e.name,)) if e.kind == "global" else None
    base = place_path(e.base) if e.owner is not None else None
    return base.child(e.fld) if base is not None else None


def _collect_accesses(e: Expr | None, kind: str,
                      out: list[tuple[str, Expr, LockPath]]) -> None:
    if isinstance(e, (Var, FieldAccess)):
        datum = datum_of(e)
        if datum is not None:
            out.append((kind, e, datum))
        if isinstance(e, FieldAccess):
            _collect_accesses(e.base, "read", out)
    elif isinstance(e, PayloadAccess):
        out.append((kind, e, e.path.sibling(e.fld)))
    elif isinstance(e, AddrOf):
        _collect_accesses(e.expr, "read", out)
    elif isinstance(e, Deref):
        _collect_accesses(e.expr, kind, out)
    elif isinstance(e, Binary):
        _collect_accesses(e.lhs, "read", out)
        _collect_accesses(e.rhs, "read", out)
    elif isinstance(e, Call):
        for a in e.args:
            _collect_accesses(a, "read", out)
    elif isinstance(e, TupleExpr):
        for item in e.items:
            _collect_accesses(item, "read", out)
