"""Summary-driven rewrite of a program into the guarded dialect.

Locks absorb the data they protect: protected globals move into a payload
struct owned by the lock declaration, protected struct fields move into a
payload struct owned by the lock field. Lock and unlock calls become guard
acquisition and drop, accesses go through a guard where one is held (per
lock_line) and through get_mut elsewhere, and functions with entry or return
locks exchange guards through parameters and return values. A guard a
function keeps from entry to exit is lent instead, unless it must move
(`_Transformer._lend`, a least fixpoint of moved locks on the shared
worklist `cfg.solve`): a parameter `&guard<p>`, passed as `&g`, not returned.

A run builds one guard type and one base guard name per lock path, and
every function's guard parameters, returned guards and guard names share
them.

Functions invoked from outside the program (main and thread entry points)
keep their original signatures; nobody exists to hand them a guard. Their
lock use must balance internally or the ownership checker rejects the
result.
"""
from __future__ import annotations

from bisect import bisect_left

from .ast import (
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
    INIT_FN,
    If,
    IntLit,
    LOCK_API,
    LOCK_FN,
    LentGuard,
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
from .cfg import solve
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


# The entry and return locks of a function that has neither.
_NO_PATHS: tuple[tuple[LockPath, ...], tuple[LockPath, ...]] = ((), ())


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
        # Each function's entry and return locks, in path order, which is
        # the order of their dotted texts: guard parameters and returned
        # guards follow it. Functions with equal sets share one pair.
        self.paths: dict[str, tuple[tuple[LockPath, ...], tuple[LockPath, ...]]] = {}
        pairs: dict[tuple[frozenset[LockPath], frozenset[LockPath]],
                    tuple[tuple[LockPath, ...], tuple[LockPath, ...]]] = {}
        for fn in p.functions:
            fs = s.function(fn.name)
            if fn.name in self.external:
                self.paths[fn.name] = _NO_PATHS
                if fs.entry_lock or fs.return_lock:
                    diags.warn(
                        "%s is invoked from outside; entry/return guards stay "
                        "local instead of changing its signature" % fn.name,
                        function=fn.name)
            elif fs.entry_lock or fs.return_lock:
                key = fs.entry_lock, fs.return_lock
                pair = pairs.get(key)
                if pair is None:
                    pair = pairs[key] = (tuple(sorted(fs.entry_lock)),
                                         tuple(sorted(fs.return_lock)))
                self.paths[fn.name] = pair
            else:
                self.paths[fn.name] = _NO_PATHS
        # the parameter names of each callee of a call that threads guards,
        # read once per run by _named and let go by _guard_names
        self.param_names: dict[str, list[str]] = {}
        # each call that threads guards, with the locks of the guards it
        # passes and receives as its caller names them (_named): set by
        # _lend, and let go as the call is rewritten
        self.named: dict[Call, tuple[list[LockPath | None], list[LockPath | None]]] = {}
        self.base_names: dict[LockPath, str] = {}
        # the guard<p> and the &guard<p> of each lock path
        self.guard_types: tuple[dict[LockPath, Type], dict[LockPath, Type]] = ({}, {})

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
        params = self.param_names.pop(fn.name, None)
        taken = set(fn.param_names if params is None else params)
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
        self.lent = self._lend()
        functions = [self._transform_function(fn) for fn in self.p.functions]
        return Program(self.globals_out, self.structs_out, functions)

    def _lend(self) -> dict[str, frozenset[LockPath]]:
        """The locks each function borrows: its entry locks less the least
        sets of locks it moves. f moves a lock in one of its entry and
        return sets but not the other, one it locks or unlocks, one a call
        hands it a single guard for together with another of its locks, and
        at each call the image of each callee lock, passed or received, that
        the callee moves. One the callee lends is in both its sets, so the
        call passes and receives its guard. When a set grows the shared
        worklist (cfg.solve) checks again the callers that still lend; the
        least fixpoint is unique, so the order of the checks does not change
        it. Equal lent sets are shared. Fills self.named."""
        paths, named = self.paths, self.named
        moved = {name: set(entry).symmetric_difference(ret)
                 for name, (entry, ret) in paths.items()}
        # each function's callers, once per call that threads guards
        callers: dict[str, list[FunctionDef]] = {}
        for fn in self.p.functions:
            moves = moved[fn.name]
            for c in fn.calls:
                if c.name == LOCK_FN or c.name == UNLOCK_FN:
                    moves.add(c.lock)
                    continue
                names = self._named(c)
                if names is _NO_PATHS:
                    continue
                named[c] = names
                takes = names[0]
                if takes is not paths[c.name][0] and len(set(takes)) < len(takes):
                    moved[c.name].update(
                        p for p, q in zip(paths[c.name][0], takes) if takes.count(q) > 1)
                callers.setdefault(c.name, []).append(fn)

        def lends(fn: FunctionDef) -> bool:
            return not moved[fn.name].issuperset(paths[fn.name][0])

        def recheck(fn: FunctionDef) -> list[FunctionDef]:
            moves = moved[fn.name]
            n = len(moves)
            for c in fn.calls:
                if c in named:
                    callee = moved[c.name]
                    for ps, qs in zip(paths[c.name], named[c]):
                        for p, q in zip(ps, qs):
                            if p in callee and q is not None:
                                moves.add(q)
            if len(moves) == n:
                return []
            return [f for f in callers.get(fn.name, ()) if lends(f)]

        solve([fn for fn in self.p.functions if lends(fn)], recheck)
        shared: dict[frozenset[LockPath], frozenset[LockPath]] = {}
        lent = {}
        for name, moves in moved.items():
            keep = frozenset(paths[name][0]) - moves
            lent[name] = shared.setdefault(keep, keep)
        return lent

    def _candidate_paths(self, fn: FunctionDef) -> set[LockPath]:
        """The lock paths of fn's guards, lock calls and calls that thread
        guards (self.named). Such a call must be all the call of its call
        statement, and each lock path must run through an argument that is
        a place."""
        paths = set(self._entry) | set(self._rets) | set(self._lock_line)
        for s, c in function_calls(fn):
            if c.name in (LOCK_FN, UNLOCK_FN):
                paths.add(c.lock)
            elif c in self.named:
                if not (type(s) is CallAssign and c is s.call):
                    raise UnsupportedCall("in %s, call to %s inside an expression cannot "
                                          "thread its guards" % (fn.name, c.name), s.line)
                for qs, out, verb in zip(self.paths[c.name], self.named[c], ("pass", "receive")):
                    if None in out:
                        q = qs[out.index(None)]
                        raise UnsupportedCall("in %s, call to %s cannot %s the guard for %s: %s"
                                              % (fn.name, c.name, verb, ".".join(q),
                                                 not_a_place(q)), s.line)
                    paths.update(out)
        return paths

    def _named(self, c: Call) -> tuple[list[LockPath | None], list[LockPath | None]]:
        """The locks of the guards call c passes and receives, as its
        caller names them (to_caller): None where an argument is no place.
        A callee without parameters shares its own pair, and a lock-API
        call threads none."""
        paths = self.paths.get(c.name, _NO_PATHS)
        if paths is _NO_PATHS:
            return paths
        params = self.param_names.get(c.name)
        if params is None:
            params = self.param_names[c.name] = self.p.function(c.name).param_names
        if not params:
            return paths
        return tuple([to_caller(q, params, c) for q in qs] for qs in paths)

    def _transform_function(self, fn: FunctionDef) -> FunctionDef:
        lent = self.lent[fn.name]
        self._entry, rets = self.paths[fn.name]
        self._rets = [q for q in rets if q not in lent]
        self._lock_line = self.s.function(fn.name).lock_line
        self._names = self._guard_names(self._candidate_paths(fn), fn)
        self._used: set[LockPath] = set()

        body = self._rewrite_block(fn.body)
        if self._rets and fn.falls_through:
            body.stmts.append(self._make_return(None, fn.line_span[1]))

        params = list(fn.params) + [Param(self._guard_type(q, q in lent), self._names[q])
                                    for q in self._entry]
        rets = fn.rets
        if self._rets:
            rets = ((() if fn.returns_void else rets)
                    + tuple(self._guard_type(q) for q in self._rets))
        decls = tuple([GuardVarDecl(name, path, fn.line_span[0])
                       for path, name in self._names.items()
                       if path in self._used and path not in self._entry])
        return FunctionDef(rets, fn.name, params, body, fn.line_span, decls)

    def _guard_type(self, path: LockPath, lent: bool = False) -> Type:
        types = self.guard_types[lent]
        ty = types.get(path)
        if ty is None:
            ty = types[path] = (LentGuard if lent else Type)("guard", path=path)
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
        takes, gives = self.named.pop(c, _NO_PATHS)
        entry, ret = self.paths[c.name]
        lends = self.lent[c.name]
        args = [self._rewrite_expr(a, line) for a in c.args]
        for p, q in zip(entry, takes):
            guard = GuardRef(self._guard(q), q)
            args.append(AddrOf(guard) if p in lends else guard)
        targets = st.targets
        if targets:
            targets = tuple([self._rewrite_expr(t, line) for t in targets])
        gives = [q for p, q in zip(ret, gives) if p not in lends]
        if gives:
            if not targets and not self.p.function(c.name).returns_void:
                targets = (Discard(),)
            targets += tuple([GuardRef(self._guard(q), q) for q in gives])
        return CallAssign(line=line, targets=targets, call=Call(c.name, args))

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
        lines = self._lock_line.get(lock_path, ())
        i = bisect_left(lines, line)
        held = i < len(lines) and lines[i] == line
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

