"""Summary-driven rewrite of a program into the guarded dialect.

Locks absorb the data they protect: protected globals move into a payload
struct owned by the lock declaration, protected struct fields move into a
payload struct owned by the lock field. Lock and unlock calls become guard
acquisition and drop, accesses go through a guard where one is held (per
lock_line) and through get_mut elsewhere, and functions with entry or return
locks exchange guards through parameters and return values.

Functions invoked from outside the program (main and thread entry points)
keep their original signatures; nobody exists to hand them a guard. Their
lock use must balance internally or the ownership checker rejects the
result.
"""
from __future__ import annotations

from collections import Counter

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
    ExprStmt,
    FieldAccess,
    FieldDecl,
    FunctionDef,
    GetMutAccess,
    GlobalDecl,
    GuardDeref,
    GuardRef,
    GuardTarget,
    GuardVarDecl,
    INIT_FN,
    If,
    IntLit,
    LOCK_API,
    LOCK_FN,
    LockPath,
    Param,
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
    data_accesses,
    datum_of,
    function_calls,
    iter_stmts,
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


def _fresh_name(base: str, *taken: set[str]) -> str:
    """base, or the first of base2, base3, ... that no set in taken holds."""
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


class _GuardNames:
    """Per-function path -> guard variable name, collision-free.

    A name must be free in the program-wide reserved set, which every
    function shares (copying it per function costs O(functions^2)), and in
    this function's own set of parameters and guards.
    """

    def __init__(self, reserved: set[str], params: list[str],
                 diags: Diagnostics, fn_name: str):
        self.names: dict[LockPath, str] = {}
        self.reserved = reserved
        self.taken = set(params)
        self.diags = diags
        self.fn_name = fn_name

    def register(self, path: LockPath) -> str:
        if path in self.names:
            return self.names[path]
        base = guard_name_for(path)
        name = _fresh_name(base, self.reserved, self.taken)
        if name != base:
            self.diags.warn(
                "guard name %s for %s collides; renamed %s" % (base, path.text, name),
                function=self.fn_name)
        self.names[path] = name
        self.taken.add(name)
        return name


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
        self.reserved = ({g.name for g in p.globals}
                         | {f.name for f in p.functions}
                         | {sd.name for sd in p.structs})

    # -- declarations -------------------------------------------------------

    def _fresh_struct_name(self, base: str, taken: set[str]) -> str:
        name = _fresh_name(base, taken)
        if name != base:
            self.diags.warn("payload struct name %s taken; using %s" % (base, name))
        taken.add(name)
        return name

    def _build_decls(self):
        taken = {sd.name for sd in self.p.structs}
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
            inits = [(d.name, d.init if d.init is not None else IntLit(0))
                     for d in datums]
            locks.append(GlobalDecl(Type("lock", payload), lock, PayloadInit(payload, inits),
                                    self.p.global_decl(lock).line))

        # Lock globals follow the others: the printer orders declarations
        # that share a line by their place in the list.
        removed = set(self.s.global_lock_map) | set(by_lock)
        self.globals_out = [g for g in self.p.globals if g.name not in removed] + locks

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
        of statement s or the value s assigns, and each lock path must run
        through an argument that is a place."""
        paths = self.entry_paths[c.name], self.ret_paths[c.name]
        if not (paths[0] or paths[1]):
            return [], []
        where = "in %s, call to %s" % (owner, c.name)
        if c is not (s.expr if isinstance(s, ExprStmt)
                     else s.value if isinstance(s, Assign) else None):
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
        self._names = _GuardNames(self.reserved, fn.param_names,
                                  self.diags, fn.name)
        self._used: set[str] = set()
        for path in sorted(self._candidate_paths(fn)):
            self._names.register(path)

        body = self._rewrite_block(fn.body)
        if (self._rets and (not body.stmts or not isinstance(body.stmts[-1], Return))
                and _falls_through(body.stmts)):
            body.stmts.append(self._make_return(None, fn.line_span[1]))

        param_guards = {self._names.register(q) for q in self._entry}
        self._used |= param_guards
        params = list(fn.params) + [
            Param(Type("guard", path=q), self._names.register(q))
            for q in self._entry]
        if self._rets:
            guard_types = tuple(Type("guard", path=q) for q in self._rets)
            rets = (fn.rets if self._nonvoid else ()) + guard_types
        else:
            rets = fn.rets
        decls = [GuardVarDecl(name, path, fn.line_span[0])
                 for path, name in sorted(self._names.names.items())
                 if name in self._used and name not in param_guards]
        return FunctionDef(rets, fn.name, params, body, fn.line_span, decls)

    def _guard(self, path: LockPath) -> str:
        name = self._names.register(path)
        self._used.add(name)
        return name

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
        if isinstance(st, ExprStmt) and isinstance(st.expr, Call):
            if st.expr.name in LOCK_API:
                return self._rewrite_lock_api(st)
            return [self._rewrite_call(None, st.expr, st.line)]
        if isinstance(st, Assign):
            place = self._rewrite_expr(st.place, st.line)
            if isinstance(st.value, Call):
                return [self._rewrite_call(place, st.value, st.line)]
            return [Assign(line=st.line, place=place,
                           value=self._rewrite_expr(st.value, st.line))]
        if isinstance(st, ExprStmt):
            return [ExprStmt(line=st.line, expr=self._rewrite_expr(st.expr, st.line))]
        return [st]

    def _rewrite_lock_api(self, st: ExprStmt) -> list[Stmt]:
        c = st.expr
        if c.name == INIT_FN:
            return []
        if c.name == LOCK_FN:
            return [AcquireAssign(line=st.line, guard=self._guard(c.lock), path=c.lock)]
        if c.name == UNLOCK_FN:
            return [DropCall(line=st.line, guard=self._guard(c.lock))]
        return [st]

    def _rewrite_call(self, place: Expr | None, c: Call, line: int) -> Stmt:
        """`place = c;` or, without a place, `c;`: the call takes the guards
        the callee expects and hands back the guards it returns."""
        takes, gives = self._threads[c]
        call = Call(c.name, [self._rewrite_expr(a, line) for a in c.args]
                    + [GuardRef(self._guard(q), q) for q in takes])
        if not gives:
            if place is None:
                return ExprStmt(line=line, expr=call)
            return Assign(line=line, place=place, value=call)
        targets: list = []
        if place is not None:
            targets.append(place)
        elif not self.p.function(c.name).returns_void:
            targets.append(Discard())
        targets.extend(GuardTarget(self._guard(q), q) for q in gives)
        return CallAssign(line=line, targets=targets, call=call)

    def _make_return(self, value: Expr | None, line: int) -> Return:
        parts: list[Expr] = []
        if self._nonvoid:
            if value is None:
                value = IntLit(0)
                self.diags.warn(
                    "fall-through return in %s yields 0 alongside its guards"
                    % self._fn.name, function=self._fn.name, line=line)
            parts.append(value)
        elif value is not None:
            parts.append(value)
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
                if line in self._lock_line.get(lock_path, ()):
                    return GuardDeref(self._guard(lock_path), lock_path, datum.segments[-1])
                return GetMutAccess(lock_path, datum.segments[-1])
            if isinstance(e, Var):
                return e
            return FieldAccess(self._rewrite_expr(e.base, line), e.fld,
                               arrow=e.arrow, owner=e.owner, ty=e.ty)
        if isinstance(e, AddrOf):
            return AddrOf(self._rewrite_expr(e.expr, line), e.mut)
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


# ---------------------------------------------------------------------------
# Access bookkeeping, used to check the transformation preserves accesses.

def access_multiset(p: Program) -> Counter:
    """Multiset of (line, kind, datum) for every data access in p.

    Datum is the dotted place text of the accessed global or field; guard
    and get_mut accesses map back to the datum they reach (see
    ast.data_accesses).
    """
    return Counter((s.line, kind, datum.text)
                   for fn in p.functions for s in iter_stmts(fn.body)
                   for kind, _, datum in data_accesses(s))
