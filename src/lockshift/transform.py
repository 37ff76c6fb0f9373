"""Summary-driven rewrite of a program into the guarded dialect.

Locks absorb the data they protect: protected globals move into a payload
struct owned by the lock declaration, protected struct fields move into a
payload struct owned by the lock field. Lock and unlock calls become guard
acquisition and drop, accesses go through a guard where one is held (per
lock_line) and through get_mut elsewhere, and functions with entry or return
locks exchange guards through parameters and return values.

A run builds one guard type and one base guard name per lock path, and
every function's guard parameters, returned guards and guard names share
them.

Functions invoked from outside the program (main and thread entry points)
keep their original signatures; nobody exists to hand them a guard. Their
lock use must balance internally or the ownership checker rejects the
result.
"""
from __future__ import annotations

from .ast import (
    AcquireAssign,
    AddrOf,
    Assign,
    Binary,
    Block,
    CREATE_FN,
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
    INIT_FN,
    If,
    IntLit,
    LOCK_API,
    LOCK_FN,
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
    UNLOCK_FN,
    Var,
    While,
    datum_of,
    function_calls,
    not_a_place,
    to_caller,
)
from .callgraph import thread_entries
from .diagnostics import (
    Diagnostics,
    SchemaError,
    SummaryMismatch,
    UnsupportedCall,
    gc_paused,
)
from .summary import LockSummary, validate_against_program


def guard_name_for(path: LockPath) -> str:
    """m -> m_guard, x.m -> x_m_guard."""
    return "_".join(path.segments) + "_guard"


def _fresh_name(base: str, *taken) -> str:
    """base, or the first of base2, base3, ... that nothing in taken holds."""
    name = base
    k = 2
    while any(name in t for t in taken):
        name = "%s%d" % (base, k)
        k += 1
    return name


def _falls_through(stmts: list[Stmt]) -> bool:
    """Whether a path runs off the end of stmts, by the rule the flow graphs
    and the checker follow: a return ends a path, an if reaches its end when
    a branch does or it has no else, and a while always exits."""
    for s in stmts:
        if isinstance(s, Return):
            return False
        if isinstance(s, Block) and not _falls_through(s.stmts):
            return False
        if (isinstance(s, If) and s.orelse is not None
                and not _falls_through(s.then.stmts)
                and not _falls_through(s.orelse.stmts)):
            return False
    return True


class _Transformer:
    def __init__(self, p: Program, s: LockSummary, diags: Diagnostics):
        self.p = p
        self.s = s
        self.diags = diags
        self.external = {"main"} | set(thread_entries(p))
        # In path order, which is the order of their dotted texts: guard
        # parameters and returned guards follow it.
        self.entry_paths: dict[str, list[LockPath]] = {}
        self.ret_paths: dict[str, list[LockPath]] = {}
        for fn in p.functions:
            fs = s.function(fn.name)
            if fn.name in self.external:
                self.entry_paths[fn.name] = []
                self.ret_paths[fn.name] = []
                if fs.entry_lock or fs.return_lock:
                    diags.warn(
                        "%s is invoked from outside; entry/return guards stay "
                        "local instead of changing its signature" % fn.name,
                        function=fn.name)
            else:
                self.entry_paths[fn.name] = sorted(fs.entry_lock)
                self.ret_paths[fn.name] = sorted(fs.return_lock)
        self._lock_line: dict = {}  # none is held in a global initializer
        self.base_names: dict[LockPath, str] = {}
        self.guard_types: dict[LockPath, Type] = {}

    # -- declarations -------------------------------------------------------

    def _fresh_struct_name(self, base: str, taken: set[str]) -> str:
        name = _fresh_name(base, self.p.tags, taken)
        if name != base:
            self.diags.warn("payload struct name %s taken; using %s" % (base, name))
        taken.add(name)
        return name

    def _build_decls(self):
        taken: set[str] = set()
        by_lock: dict[str, list[GlobalDecl]] = {}
        for g in self.p.globals:
            lock = self.s.global_lock_map.get(g.name)
            if lock is not None:
                by_lock.setdefault(lock, []).append(g)
        global_payloads: list[StructDef] = []
        locks: list[GlobalDecl] = []
        for lock, datums in by_lock.items():
            payload = self._fresh_struct_name(lock + "Data", taken)
            fields = [FieldDecl(d.ty, d.name) for d in datums]
            global_payloads.append(StructDef(payload, fields, datums[0].line))
            inits = [(d.name, IntLit(0) if d.init is None else self._rewrite_expr(d.init, d.line))
                     for d in datums]
            locks.append(GlobalDecl(Type("lock", payload), lock, PayloadInit(payload, inits),
                                    self.p.global_decl(lock).line))

        # Lock globals follow the others: the printer orders declarations
        # that share a line by their place in the list.
        removed = set(self.s.global_lock_map) | set(by_lock)
        self.globals_out = [g if g.init is None else GlobalDecl(
            g.ty, g.name, self._rewrite_expr(g.init, g.line), g.line)
            for g in self.p.globals if g.name not in removed] + locks

        self.structs_out: list[StructDef] = global_payloads
        for sd in self.p.structs:
            fmap = self.s.struct_lock_map.get(sd.name)
            if not fmap:
                self.structs_out.append(sd)
                continue
            by_field: dict[str, list[FieldDecl]] = {}
            for f in sd.fields:
                lock = fmap.get(f.name)
                if lock is not None:
                    by_field.setdefault(lock, []).append(f)
            remaining: list[FieldDecl] = []
            payloads: list[StructDef] = []
            for f in sd.fields:
                if f.name in fmap:
                    continue
                if f.name in by_field:
                    payload = self._fresh_struct_name(sd.name + f.name + "Data", taken)
                    pfields = [FieldDecl(pf.ty, pf.name) for pf in by_field[f.name]]
                    payloads.append(StructDef(payload, pfields, sd.line))
                    remaining.append(FieldDecl(Type("lock", name=payload), f.name))
                else:
                    remaining.append(f)
            self.structs_out.extend(payloads)
            self.structs_out.append(StructDef(sd.name, remaining, sd.line))

    # -- functions ----------------------------------------------------------

    def _guard_names(self, paths: set[LockPath], fn: FunctionDef) -> dict[LockPath, str]:
        """fn's lock paths, in path order, to guard variable names. A name is
        free among the program's names and tags, among fn's parameters and
        among the names given so far; a collision warns and takes a suffix.
        Each path's base name is made once per run."""
        names: dict[LockPath, str] = {}
        taken = set(fn.param_names)
        for path in sorted(paths):
            base = self.base_names.get(path)
            if base is None:
                base = self.base_names[path] = guard_name_for(path)
            name = names[path] = _fresh_name(base, self.p.names, self.p.tags, taken)
            if name != base:
                self.diags.warn("guard name %s for %s collides; renamed %s"
                                % (base, path.text, name), function=fn.name)
            taken.add(name)
        return names

    def run(self) -> Program:
        for g in self.p.globals:
            for c in g.calls:
                self._thread(g.name, g, c)
        self._build_decls()
        functions = [self._transform_function(fn) for fn in self.p.functions]
        return Program(self.globals_out, self.structs_out, functions)

    def _candidate_paths(self, fn: FunctionDef) -> set[LockPath]:
        paths = set(self._entry) | set(self._rets) | set(self._lock_line)
        self._threads: dict[Call, tuple[list[LockPath], list[LockPath]]] = {}
        for s, c in function_calls(fn):
            if c.name in (LOCK_FN, UNLOCK_FN):
                paths.add(c.lock)
            elif c.name not in (INIT_FN, CREATE_FN):
                takes, gives = self._threads[c] = self._thread(fn.name, s, c)
                paths.update(takes, gives)
        return paths

    def _thread(self, owner: str, s, c: Call) -> tuple[list[LockPath], list[LockPath]]:
        """The locks of the guards call c passes and receives, as function
        or global owner names them. A call with guards to thread must be all
        the call of a call statement s, and each lock path must run through
        an argument that is a place."""
        paths = self.entry_paths[c.name], self.ret_paths[c.name]
        if not (paths[0] or paths[1]):
            return [], []
        where = "in %s, call to %s" % (owner, c.name)
        if not (isinstance(s, CallAssign) and c is s.call):
            raise UnsupportedCall(
                "%s inside an expression cannot thread its guards" % where, s.line)
        params = self.p.function(c.name).param_names
        named = tuple([to_caller(q, params, c) for q in qs] for qs in paths)
        for qs, out, verb in zip(paths, named, ("pass", "receive")):
            if None in out:
                q = qs[out.index(None)]
                raise UnsupportedCall("%s cannot %s the guard for %s: %s"
                                      % (where, verb, q.text, not_a_place(q)), s.line)
        return named

    def _transform_function(self, fn: FunctionDef) -> FunctionDef:
        self._fn = fn
        self._entry = self.entry_paths[fn.name]
        self._rets = self.ret_paths[fn.name]
        self._nonvoid = not fn.returns_void
        self._lock_line = self.s.function(fn.name).lock_line
        self._names = self._guard_names(self._candidate_paths(fn), fn)
        self._used: set[LockPath] = set()

        body = self._rewrite_block(fn.body)
        if self._rets and _falls_through(body.stmts):
            body.stmts.append(self._make_return(None, fn.line_span[1]))

        params = list(fn.params) + [Param(self._guard_type(q), self._names[q])
                                    for q in self._entry]
        rets = fn.rets
        if self._rets:
            rets = ((rets if self._nonvoid else ())
                    + tuple(self._guard_type(q) for q in self._rets))
        decls = [GuardVarDecl(name, path, fn.line_span[0])
                 for path, name in self._names.items()
                 if path in self._used and path not in self._entry]
        return FunctionDef(rets, fn.name, params, body, fn.line_span, decls)

    def _guard_type(self, path: LockPath) -> Type:
        ty = self.guard_types.get(path)
        if ty is None:
            ty = self.guard_types[path] = Type("guard", path=path)
        return ty

    def _guard(self, path: LockPath) -> str:
        self._used.add(path)
        return self._names[path]

    # -- statements ---------------------------------------------------------

    def _rewrite_block(self, b: Block) -> Block:
        out: list[Stmt] = []
        for st in b.stmts:
            out.extend(self._rewrite_stmt(st))
        return Block(line=b.line, stmts=out)

    def _rewrite_stmt(self, st: Stmt) -> list[Stmt]:
        if isinstance(st, Block):
            return [self._rewrite_block(st)]
        if isinstance(st, If):
            return [If(line=st.line, cond=self._rewrite_expr(st.cond, st.line),
                       then=self._rewrite_block(st.then),
                       orelse=self._rewrite_block(st.orelse) if st.orelse else None)]
        if isinstance(st, While):
            return [While(line=st.line, cond=self._rewrite_expr(st.cond, st.line),
                          body=self._rewrite_block(st.body))]
        if isinstance(st, Return):
            value = self._rewrite_expr(st.value, st.line) if st.value else None
            return [self._make_return(value, st.line)]
        if isinstance(st, CallAssign):
            if st.call.name in LOCK_API:
                return self._rewrite_lock_api(st)
            return [self._rewrite_call(st)]
        if isinstance(st, Assign):
            # a place of None, as in `value;`, comes back as None
            return [Assign(line=st.line, place=self._rewrite_expr(st.place, st.line),
                           value=self._rewrite_expr(st.value, st.line))]
        return [st]

    def _rewrite_lock_api(self, st: CallAssign) -> list[Stmt]:
        c = st.call
        if c.name == INIT_FN:
            return []
        if c.name == LOCK_FN:
            return [AcquireAssign(line=st.line, guard=self._guard(c.lock), path=c.lock)]
        if c.name == UNLOCK_FN:
            return [DropCall(line=st.line, guard=self._guard(c.lock))]
        return [st]

    def _rewrite_call(self, st: CallAssign) -> CallAssign:
        """`x = f();` or `f();` whose call takes the guards the callee
        expects and whose targets receive the guards it returns, after `_`
        for a dropped value."""
        c, line = st.call, st.line
        takes, gives = self._threads[c]
        call = Call(c.name, [self._rewrite_expr(a, line) for a in c.args]
                    + [GuardRef(self._guard(q), q) for q in takes])
        targets = tuple(self._rewrite_expr(t, line) for t in st.targets)
        if gives:
            if not targets and not self.p.function(c.name).returns_void:
                targets = (Discard(),)
            targets += tuple(GuardRef(self._guard(q), q) for q in gives)
        return CallAssign(line=line, targets=targets, call=call)

    def _make_return(self, value: Expr | None, line: int) -> Return:
        if value is None and self._nonvoid and self._rets:
            value = IntLit(0)
            self.diags.warn(
                "fall-through return in %s yields 0 alongside its guards"
                % self._fn.name, function=self._fn.name, line=line)
        parts: list[Expr] = [] if value is None else [value]
        parts.extend(GuardRef(self._guard(q), q) for q in self._rets)
        if not parts:
            return Return(line=line, value=None)
        if len(parts) == 1:
            return Return(line=line, value=parts[0])
        return Return(line=line, value=TupleExpr(parts))

    # -- expressions --------------------------------------------------------

    def _rewrite_expr(self, e: Expr, line: int) -> Expr:
        if isinstance(e, (Var, FieldAccess)):
            datum = datum_of(e)
            owner = e.owner if isinstance(e, FieldAccess) else None
            lock = None if datum is None else self.s.lock_of(owner, datum.segments[-1])
            if lock is not None:
                lock_path = datum.sibling(lock)
                held = line in self._lock_line.get(lock_path, ())
                return PayloadAccess(lock_path, datum.segments[-1],
                                     self._guard(lock_path) if held else None)
            if isinstance(e, Var):
                return e
            return FieldAccess(self._rewrite_expr(e.base, line), e.fld,
                               arrow=e.arrow, owner=e.owner, ty=e.ty)
        if isinstance(e, AddrOf):
            return AddrOf(self._rewrite_expr(e.expr, line))
        if isinstance(e, Deref):
            return Deref(self._rewrite_expr(e.expr, line))
        if isinstance(e, Binary):
            return Binary(e.op, self._rewrite_expr(e.lhs, line),
                          self._rewrite_expr(e.rhs, line))
        if isinstance(e, Call):
            return Call(e.name, [self._rewrite_expr(a, line) for a in e.args])
        return e


@gc_paused
def transform(p: Program, s: LockSummary,
              diags: Diagnostics | None = None) -> Program:
    """Apply the summary to the program. The summary must describe p."""
    try:
        validate_against_program(s, p)
    except SchemaError as exc:
        raise SummaryMismatch(str(exc)) from None
    if diags is None:
        diags = Diagnostics()
    return _Transformer(p, s, diags).run()

