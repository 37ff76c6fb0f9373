"""Bottom-up lock-set analysis.

Two dataflow passes per function over its flow graph:

  backward may ("live"):   in[s] = (out[s] - kill) + gen,  out[s] = U in[succ]
      -> MELS = in[entry], locks a function releases before acquiring them.
  forward must ("avail"):  out[s] = (in[s] - kill) + gen,  in[s] = ^ out[pred],
      in[entry] = MELS   -> MRLS = out[ret], locks surely held when returning.

Calls use callee summaries through parameter substitution (alias). Mutually
recursive functions are solved to a joint fixpoint with MELS seeded empty and
MRLS seeded Top; Top never escapes a converged summary. Each sweep visits the
members in a fixed order but re-solves only members whose SCC callees changed
since their last solve; the iteration budget still counts sweeps.
"""
from __future__ import annotations

from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, field

from .ast import (
    Call,
    Expr,
    FunctionDef,
    LOCK_FN,
    LockPath,
    Stmt,
    UNLOCK_FN,
    function_calls,
    place_path,
    stmt_calls,
)
from .cfg import FlowGraph, Node, solve
from .diagnostics import Diagnostics, IterationBudgetExceeded, UnaliasableArgument


@dataclass(frozen=True)
class LockSet:
    """An immutable set of lock paths, or Top (the set of all paths)."""

    paths: frozenset[LockPath] | None = frozenset()  # None encodes Top

    @property
    def is_top(self) -> bool:
        return self.paths is None

    def union(self, other: "LockSet") -> "LockSet":
        if self.is_top or other.is_top:
            return TOP
        return LockSet(self.paths | other.paths)

    def intersect(self, other: "LockSet") -> "LockSet":
        if self.is_top:
            return other
        if other.is_top:
            return self
        return LockSet(self.paths & other.paths)

    def minus(self, other: "LockSet") -> "LockSet":
        if other.is_top:
            return EMPTY
        if self.is_top:
            return TOP
        return LockSet(self.paths - other.paths)

    def __contains__(self, path: LockPath) -> bool:
        return self.is_top or path in self.paths

    def __iter__(self):
        if self.is_top:
            raise ValueError("cannot enumerate Top")
        return iter(sorted(self.paths))

    def __len__(self) -> int:
        if self.is_top:
            raise ValueError("Top has no size")
        return len(self.paths)

    def texts(self) -> list[str]:
        return [p.text for p in self]

    def __repr__(self) -> str:
        if self.is_top:
            return "LockSet(TOP)"
        return "LockSet({%s})" % ", ".join(self.texts())


TOP = LockSet(None)
EMPTY = LockSet(frozenset())


def locks(*texts: str) -> LockSet:
    """Finite LockSet from dotted path texts (test/CLI convenience)."""
    return LockSet(frozenset(LockPath(tuple(t.split("."))) for t in texts))


def lockset(paths) -> LockSet:
    return LockSet(frozenset(paths))


def alias(path: LockPath, params: tuple[str, ...] | list[str], args: list[Expr]) -> LockPath:
    """Substitute the callee-parameter root of path with the caller argument place.

    alias(p, [x1..xn], [e1..en]) = canonical(e_i).p' when p = x_i.p', else p.
    Raises UnaliasableArgument when the matched argument is not a place.
    """
    for i, name in enumerate(params):
        if path.root == name:
            if i >= len(args):
                raise UnaliasableArgument(
                    "no argument for parameter %r carrying lock path %s" % (name, path.text))
            arg_path = place_path(args[i])
            if arg_path is None:
                raise UnaliasableArgument(
                    "argument for parameter %r is not a place (lock path %s)"
                    % (name, path.text))
            return LockPath(arg_path.segments + path.segments[1:])
    return path


def alias_set(paths: LockSet, params, args, diags: Diagnostics | None = None,
              function: str | None = None, line: int | None = None) -> LockSet:
    """Elementwise alias; paths whose argument is not a place are dropped with
    a warning."""
    if paths.is_top:
        return TOP
    out = set()
    for p in paths:
        try:
            out.add(alias(p, params, args))
        except UnaliasableArgument as exc:
            if diags is not None:
                diags.warn(str(exc), function=function, line=line)
    return lockset(out)


@dataclass
class GenKill:
    gen_l: LockSet = EMPTY
    kill_l: LockSet = EMPTY
    gen_a: LockSet = EMPTY
    kill_a: LockSet = EMPTY


@dataclass
class FunctionFlowFacts:
    """Per-function analysis result: summaries plus per-node in/out sets."""

    name: str
    params: tuple[str, ...]
    mels: LockSet = EMPTY
    mrls: LockSet = EMPTY
    live_in: dict[Node, LockSet] = field(default_factory=dict)
    live_out: dict[Node, LockSet] = field(default_factory=dict)
    avail_in: dict[Node, LockSet] = field(default_factory=dict)
    avail_out: dict[Node, LockSet] = field(default_factory=dict)
    scc_iterations: int = 0


def _call_effect(call: Call, callee_facts: Mapping[str, FunctionFlowFacts],
                 diags, fn_name, line) -> GenKill | None:
    if call.name == UNLOCK_FN:
        p = lockset([call.lock])
        return GenKill(gen_l=p, kill_a=p)
    if call.name == LOCK_FN:
        p = lockset([call.lock])
        return GenKill(kill_l=p, gen_a=p)
    facts = callee_facts.get(call.name)
    if facts is None:
        return None
    entry = alias_set(facts.mels, facts.params, call.args, diags, fn_name, line)
    ret = alias_set(facts.mrls, facts.params, call.args, diags, fn_name, line)
    return GenKill(gen_l=entry, kill_l=ret, gen_a=ret, kill_a=entry)


def transfer_gen_kill(s: Stmt, callee_facts: Mapping[str, FunctionFlowFacts],
                      diags: Diagnostics | None = None,
                      fn_name: str | None = None) -> GenKill:
    """Combined gen/kill of a statement, composing nested call effects in
    evaluation order."""
    effects: list[GenKill] = []
    for call in stmt_calls(s):
        gk = _call_effect(call, callee_facts, diags, fn_name, s.line)
        if gk is not None:
            effects.append(gk)
    if not effects:
        return GenKill()
    if len(effects) == 1:
        return effects[0]
    # Sequential composition. Backward: a gen survives only the kills of
    # earlier effects; forward: a gen survives only the kills of later ones.
    gen_l, kill_l = EMPTY, EMPTY
    for gk in effects:
        gen_l = gen_l.union(gk.gen_l.minus(kill_l))
        kill_l = kill_l.union(gk.kill_l)
    gen_a, kill_a = EMPTY, EMPTY
    for gk in effects:
        gen_a = gen_a.minus(gk.kill_a).union(gk.gen_a)
        kill_a = kill_a.union(gk.kill_a)
    return GenKill(gen_l=gen_l, kill_l=kill_l, gen_a=gen_a, kill_a=kill_a)


def analyze_function(fn: FunctionDef, g: FlowGraph,
                     callee_facts: Mapping[str, FunctionFlowFacts],
                     diags: Diagnostics | None = None) -> FunctionFlowFacts:
    """Solve both passes for one function against fixed callee summaries."""
    gk: dict[Node, GenKill] = {}
    for n in g.nodes:
        if isinstance(n, Stmt):
            gk[n] = transfer_gen_kill(n, callee_facts, diags, fn.name)
        else:
            gk[n] = GenKill()

    facts = FunctionFlowFacts(fn.name, tuple(fn.param_names))

    # Backward may pass, least fixpoint from the empty set.
    live_in = {n: EMPTY for n in g.nodes}
    live_out = {n: EMPTY for n in g.nodes}

    def live_step(n: Node):
        out = EMPTY
        for s in g.succ[n]:
            out = out.union(live_in[s])
        new_in = out.minus(gk[n].kill_l).union(gk[n].gen_l)
        live_out[n] = out
        if new_in == live_in[n]:
            return ()
        live_in[n] = new_in
        return g.pred[n]

    solve(reversed(g.nodes), live_step)
    facts.mels = live_in[g.entry]

    # Forward must pass, greatest fixpoint from Top, entry seeded with MELS.
    avail_in = {n: TOP for n in g.nodes}
    avail_out = {n: TOP for n in g.nodes}
    avail_in[g.entry] = facts.mels
    avail_out[g.entry] = facts.mels

    def avail_step(n: Node):
        inn = TOP
        for p in g.pred[n]:
            inn = inn.intersect(avail_out[p])
        new_out = inn.minus(gk[n].kill_a).union(gk[n].gen_a)
        avail_in[n] = inn
        if new_out == avail_out[n]:
            return ()
        avail_out[n] = new_out
        return g.succ[n]

    solve((n for n in g.nodes if n is not g.entry), avail_step)
    facts.mrls = avail_out[g.ret]

    facts.live_in, facts.live_out = live_in, live_out
    facts.avail_in, facts.avail_out = avail_in, avail_out
    return facts


def analyze_scc(fns: list[FunctionDef], graphs: dict[str, FlowGraph],
                outer_facts: dict[str, FunctionFlowFacts],
                budget: int = 1000,
                diags: Diagnostics | None = None,
                trace: list | None = None) -> dict[str, FunctionFlowFacts]:
    """Joint fixpoint over one recursive SCC.

    Members are seeded MELS = empty / MRLS = Top and swept in list order
    until no summary changes. A sweep re-solves only the members whose SCC
    callees changed since their last solve; a clean member would recompute
    the same facts, so sweeps, traces and results are those of re-solving
    every member. The order itself matters: the system is not monotone
    (avail_in[entry] is seeded with the member's own MELS, which depends on
    callee MRLS through the lock kills), so visiting members in another
    order, e.g. callees first, can reach a different fixpoint.

    Warnings are kept per member from its latest solve and emitted once at
    convergence, after any no-base-case warnings, so a warning about a
    summary that later changed is never reported.
    """
    current: dict[str, FunctionFlowFacts] = {}
    for fn in fns:
        seed = FunctionFlowFacts(fn.name, tuple(fn.param_names), mels=EMPTY, mrls=TOP)
        current[fn.name] = seed
    env = ChainMap(current, outer_facts)
    callers: dict[str, list[str]] = {fn.name: [] for fn in fns}
    for fn in fns:
        for name in {call.name for _, call in function_calls(fn)}:
            if name in callers:
                callers[name].append(fn.name)
    dirty = set(current)
    pending: dict[str, Diagnostics | None] = {}  # warnings of each latest solve
    clamped: set[str] = set()
    for iteration in range(1, budget + 1):
        changed = False
        for fn in fns:
            name = fn.name
            if name in dirty:
                dirty.discard(name)
                pending[name] = None if diags is None else Diagnostics()
                new = analyze_function(fn, graphs[name], env, pending[name])
                old = current[name]
                if new.mels != old.mels or new.mrls != old.mrls:
                    changed = True
                    dirty.update(callers[name])
                current[name] = new
            if trace is not None:
                f = current[name]
                trace.append((iteration, name, f.mels, f.mrls))
        if not changed:
            # A summary can converge at Top only when no member has a path
            # that returns without re-entering the cycle.  Such a function
            # never completes a call, so no caller can observe locks from it;
            # pin the return set to empty and re-solve so the per-node sets
            # and the other members see the finite value.
            stuck = [name for name, f in current.items() if f.mrls.is_top]
            if stuck:
                for name in stuck:
                    current[name].mrls = EMPTY
                    dirty.add(name)
                    dirty.update(callers[name])
                    if name not in clamped:
                        clamped.add(name)
                        if diags is not None:
                            diags.warn(
                                "function '%s' has no terminating path "
                                "(recursion without a base case); treating "
                                "its surely-held return set as empty"
                                % name,
                                function=name)
                continue
            for f in current.values():
                f.scc_iterations = iteration
            if diags is not None:
                for fn in fns:
                    diags.extend(pending[fn.name])
            return current
    raise IterationBudgetExceeded([fn.name for fn in fns], budget)


def analyze_program_flow(program, cg, graphs: dict[str, FlowGraph],
                         budget: int = 1000,
                         diags: Diagnostics | None = None) -> dict[str, FunctionFlowFacts]:
    """Bottom-up pass over the condensed call graph (callees before callers)."""
    facts: dict[str, FunctionFlowFacts] = {}
    for idx, members in enumerate(cg.merged_nodes):
        fns = [program.function(name) for name in members]
        if cg.is_recursive_scc(idx):
            facts.update(analyze_scc(fns, graphs, facts, budget, diags))
        else:
            fn = fns[0]
            one = analyze_function(fn, graphs[fn.name], facts, diags)
            one.scc_iterations = 1
            facts[fn.name] = one
    return facts
