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
    return "_".join(path) + "_guard"


def _fresh_name(base: str, *taken) -> str:
    """base, or the first of base2, base3, ... that nothing in taken holds."""
    name = base
    k = 2
    while any(name in t for t in taken):
        name = "%s%d" % (base, k)
        k += 1
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
        self.lock_lines: dict[str, dict[LockPath, frozenset[int]]] = {}
        for fn in p.functions:
            fs = s.function(fn.name)
            self.lock_lines[fn.name] = fs.lock_line
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
            inits = [(d.name, IntLit(0) if d.init is None else d.init) for d in datums]
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

    def _guard_names(self, paths: set[LockPath], fn: FunctionDef) -> dict[LockPath, str]:
        """fn's lock paths, in path order, to guard variable names. A name is
        free among the program's names and tags, among fn's parameters and
        among the names given so far; a collision warns and takes a suffix.
        Each path's base name is made once per run."""
        names: dict[LockPath, str] = {}
        taken = set(fn.param_names)
        for path in sorted(paths):
            name = self.base_names.get(path)
            if name is None:
                name = self.base_names[path] = guard_name_for(path)
            if name in self.p.names or name in self.p.tags or name in taken:
                base, name = name, _fresh_name(name, self.p.names, self.p.tags, taken)
                self.diags.warn("guard name %s for %s collides; renamed %s"
                                % (base, ".".join(path), name), function=fn.name)
            names[path] = name
            taken.add(name)
        return names

    def run(self) -> Program:
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

    def _thread(self, owner: str, s: Stmt, c: Call) -> tuple[list[LockPath], list[LockPath]]:
        """The locks of the guards call c passes and receives, as function
        owner names them. A call with guards to thread must be all
        the call of a call statement s, and each lock path must run through
        an argument that is a place. A callee without parameters shares its
        own lists: to_caller names every path but a parameter's."""
        paths = self.entry_paths[c.name], self.ret_paths[c.name]
        if not (paths[0] or paths[1]):
            return paths
        if not (type(s) is CallAssign and c is s.call):
            raise UnsupportedCall("in %s, call to %s inside an expression cannot thread "
                                  "its guards" % (owner, c.name), s.line)
        callee = self.p.function(c.name)
        if not callee.params:
            return paths
        params = callee.param_names
        named = tuple([to_caller(q, params, c) for q in qs] for qs in paths)
        for qs, out, verb in zip(paths, named, ("pass", "receive")):
            if None in out:
                q = qs[out.index(None)]
                raise UnsupportedCall("in %s, call to %s cannot %s the guard for %s: %s" % (
                    owner, c.name, verb, ".".join(q), not_a_place(q)), s.line)
        return named

    def _transform_function(self, fn: FunctionDef) -> FunctionDef:
        self._entry = self.entry_paths[fn.name]
        self._rets = self.ret_paths[fn.name]
        self._lock_line = self.lock_lines[fn.name]
        self._names = self._guard_names(self._candidate_paths(fn), fn)
        self._used: set[LockPath] = set()

        body = self._rewrite_block(fn.body)
        if self._rets and fn.falls_through:
            body.stmts.append(self._make_return(None, fn.line_span[1]))

        params = list(fn.params) + [Param(self._guard_type(q), self._names[q])
                                    for q in self._entry]
        rets = fn.rets
        if self._rets:
            rets = ((() if fn.returns_void else rets)
                    + tuple(self._guard_type(q) for q in self._rets))
        decls = tuple([GuardVarDecl(name, path, fn.line_span[0])
                       for path, name in self._names.items()
                       if path in self._used and path not in self._entry])
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
        """b with each statement rewritten by its type's handler in
        _REWRITE_STMT, which gives None for a statement that goes; a form
        with no handler, as a guarded one, stays as it is."""
        out: list[Stmt] = []
        for st in b.stmts:
            rewrite = _REWRITE_STMT.get(type(st))
            if rewrite is not None:
                st = rewrite(self, st)
            if st is not None:
                out.append(st)
        return Block(line=b.line, stmts=out)

    def _rewrite_if(self, st: If) -> If:
        orelse = st.orelse
        return If(line=st.line, cond=self._rewrite_expr(st.cond, st.line),
                  then=self._rewrite_block(st.then),
                  orelse=None if orelse is None else self._rewrite_block(orelse))

    def _rewrite_call_assign(self, st: CallAssign) -> Stmt | None:
        """A lock or unlock call becomes an acquire or a drop, an init call
        goes, and `x = f();` or `f();` takes the guards its callee expects
        and receives the guards it returns, after `_` for a dropped value."""
        c, line = st.call, st.line
        if c.name in LOCK_API:
            if c.name == LOCK_FN:
                return AcquireAssign(line=line, guard=self._guard(c.lock), path=c.lock)
            if c.name == UNLOCK_FN:
                return DropCall(line=line, guard=self._guard(c.lock))
            return None if c.name == INIT_FN else st
        takes, gives = self._threads[c]
        call = Call(c.name, [self._rewrite_expr(a, line) for a in c.args]
                    + [GuardRef(self._guard(q), q) for q in takes])
        targets = st.targets
        if targets:
            targets = tuple([self._rewrite_expr(t, line) for t in targets])
        if gives:
            if not targets and not self.p.function(c.name).returns_void:
                targets = (Discard(),)
            targets += tuple([GuardRef(self._guard(q), q) for q in gives])
        return CallAssign(line=line, targets=targets, call=call)

    def _make_return(self, value: Expr | None, line: int) -> Return:
        parts = [] if value is None else [value]
        parts += [GuardRef(self._guard(q), q) for q in self._rets]
        if len(parts) > 1:
            return Return(line=line, value=TupleExpr(parts))
        return Return(line=line, value=parts[0] if parts else None)

    # -- expressions --------------------------------------------------------

    def _rewrite_expr(self, e: Expr | None, line: int) -> Expr | None:
        """e rewritten by its type's handler in _REWRITE_EXPR; a form with
        none, as a number, and None stay as they are."""
        rewrite = _REWRITE_EXPR.get(type(e))
        return e if rewrite is None else rewrite(self, e, line)

    def _payload_access(self, lock_path: LockPath, fld: str, line: int) -> PayloadAccess:
        """Payload field fld of the lock at lock_path: through its guard
        where the lock is held at line, else through get_mut."""
        held = line in self._lock_line.get(lock_path, ())
        return PayloadAccess(lock_path, fld, self._guard(lock_path) if held else None)

    def _rewrite_var(self, e: Var, line: int) -> Expr:
        lock = self.s.global_lock_map.get(e.name)
        if lock is None or datum_of(e) is None:
            return e
        return self._payload_access((lock,), e.name, line)

    def _rewrite_field_access(self, e: FieldAccess, line: int) -> Expr:
        datum = datum_of(e)
        lock = None if datum is None else self.s.struct_lock_map.get(e.owner, {}).get(e.fld)
        if lock is not None:
            return self._payload_access(datum[:-1] + (lock,), e.fld, line)
        return FieldAccess(self._rewrite_expr(e.base, line), e.fld,
                           arrow=e.arrow, owner=e.owner, ty=e.ty)


# The rewrite of each plain-dialect node type that changes; every other
# form, and None, is kept as it is (tests/test_hygiene.py lists them).
_REWRITE_STMT = {
    Block: _Transformer._rewrite_block,
    If: _Transformer._rewrite_if,
    While: lambda self, st: While(line=st.line, cond=self._rewrite_expr(st.cond, st.line),
                                  body=self._rewrite_block(st.body)),
    Return: lambda self, st: self._make_return(self._rewrite_expr(st.value, st.line), st.line),
    # a place of None, as in `value;`, comes back as None
    Assign: lambda self, st: Assign(line=st.line, place=self._rewrite_expr(st.place, st.line),
                                    value=self._rewrite_expr(st.value, st.line)),
    CallAssign: _Transformer._rewrite_call_assign,
}
_REWRITE_EXPR = {
    Var: _Transformer._rewrite_var,
    FieldAccess: _Transformer._rewrite_field_access,
    AddrOf: lambda self, e, line: AddrOf(self._rewrite_expr(e.expr, line)),
    Deref: lambda self, e, line: Deref(self._rewrite_expr(e.expr, line)),
    Binary: lambda self, e, line: Binary(e.op, self._rewrite_expr(e.lhs, line),
                                         self._rewrite_expr(e.rhs, line)),
    Call: lambda self, e, line: Call(e.name, [self._rewrite_expr(a, line) for a in e.args]),
}


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

