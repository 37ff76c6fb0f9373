"""Bottom-up lock-set analysis.

Two dataflow passes per function over its flow graph:

  backward may ("live"):   in[s] = (out[s] - kill) + gen,  out[s] = U in[succ]
      -> MELS = in[entry], locks a function releases before acquiring them.
  forward must ("avail"):  out[s] = (in[s] - kill) + gen,  in[s] = ^ out[pred],
      in[entry] = MELS   -> MRLS = out[ret], locks surely held when returning.

Calls use callee summaries renamed into the caller by ast.to_caller, the
one parameter-to-argument binding the analysis and transformer share; a
path whose argument is not a place is dropped with a warning. Mutually
recursive functions are solved to a joint fixpoint with MELS seeded empty and
MRLS seeded Top; Top never escapes: every set in returned facts is a finite
frozenset of lock paths. Each sweep visits the members in a fixed order but
re-solves only members whose SCC callees changed since their last solve; the
iteration budget still counts sweeps.

Lock sets are shared values. join, meet and minus return an operand whenever
the result equals it, so most steps allocate nothing, and each
analyze_function call stores one object per distinct set in its node maps.
"""
from __future__ import annotations

from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, field

from .ast import (
    Call,
    FunctionDef,
    LOCK_FN,
    LockPath,
    Stmt,
    UNLOCK_FN,
    function_calls,
    not_a_place,
    to_caller,
)
from .cfg import FlowGraph, Node, solve
from .diagnostics import Diagnostics, IterationBudgetExceeded


# A lock set is a frozenset of lock paths. Top, the set of all paths, is None;
# it seeds the avail pass, the SCC sweep's MRLS and propagate's ELS, and these
# three operators are the only ones that have to handle it. Each returns one
# of its operands whenever the result equals it, so equal sets stay one
# object; _EMPTY is the one empty set they start from.

_EMPTY: frozenset[LockPath] = frozenset()


def join(a: frozenset[LockPath] | None,
         b: frozenset[LockPath] | None) -> frozenset[LockPath] | None:
    """Union; Top absorbs."""
    if a is None or b is None:
        return None
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def meet(a: frozenset[LockPath] | None,
         b: frozenset[LockPath] | None) -> frozenset[LockPath] | None:
    """Intersection; Top is the identity."""
    if a is None:
        return b
    if b is None or a <= b:
        return a
    if b <= a:
        return b
    return a & b


def minus(a: frozenset[LockPath] | None,
          b: frozenset[LockPath] | None) -> frozenset[LockPath] | None:
    """Difference; removing Top leaves nothing, and Top minus a finite set
    is still Top."""
    if b is None:
        return _EMPTY
    if a is None or a.isdisjoint(b):
        return a
    return a - b


def _to_caller_set(paths: frozenset[LockPath] | None, params, call: Call,
                   diags: Diagnostics | None, function: str | None,
                   line: int) -> frozenset[LockPath] | None:
    """The callee's paths as the caller names them at call. A path whose
    argument is not a place is dropped with a warning, in path order."""
    if paths is None:
        return None
    out = set()
    for p in sorted(paths):
        q = to_caller(p, params, call)
        if q is not None:
            out.add(q)
        elif diags is not None:
            diags.warn(not_a_place(p), function=function, line=line)
    return frozenset(out)


@dataclass
class GenKill:
    """gen_l and kill_a come from callee MELS and are always finite; kill_l
    and gen_a come from callee MRLS, which is Top inside an SCC sweep."""

    gen_l: frozenset[LockPath] = _EMPTY
    kill_l: frozenset[LockPath] | None = _EMPTY
    gen_a: frozenset[LockPath] | None = _EMPTY
    kill_a: frozenset[LockPath] = _EMPTY


@dataclass
class FunctionFlowFacts:
    """Per-function analysis result: summaries plus per-node in/out sets."""

    name: str
    params: tuple[str, ...]
    mels: frozenset[LockPath] = _EMPTY
    mrls: frozenset[LockPath] | None = _EMPTY  # Top only inside analyze_scc
    live_in: dict[Node, frozenset[LockPath]] = field(default_factory=dict)
    live_out: dict[Node, frozenset[LockPath]] = field(default_factory=dict)
    avail_in: dict[Node, frozenset[LockPath]] = field(default_factory=dict)
    avail_out: dict[Node, frozenset[LockPath]] = field(default_factory=dict)
    scc_iterations: int = 0


def _call_effect(call: Call, callee_facts: Mapping[str, FunctionFlowFacts],
                 diags, fn_name, line) -> GenKill | None:
    if call.name == UNLOCK_FN:
        p = frozenset((call.lock,))
        return GenKill(gen_l=p, kill_a=p)
    if call.name == LOCK_FN:
        p = frozenset((call.lock,))
        return GenKill(kill_l=p, gen_a=p)
    facts = callee_facts.get(call.name)
    if facts is None:
        return None
    entry = _to_caller_set(facts.mels, facts.params, call, diags, fn_name, line)
    ret = _to_caller_set(facts.mrls, facts.params, call, diags, fn_name, line)
    return GenKill(gen_l=entry, kill_l=ret, gen_a=ret, kill_a=entry)


def transfer_gen_kill(s: Stmt, callee_facts: Mapping[str, FunctionFlowFacts],
                      diags: Diagnostics | None = None,
                      fn_name: str | None = None) -> GenKill:
    """Combined gen/kill of a statement, composing nested call effects in
    evaluation order."""
    effects: list[GenKill] = []
    for call in s.calls:
        gk = _call_effect(call, callee_facts, diags, fn_name, s.line)
        if gk is not None:
            effects.append(gk)
    if not effects:
        return GenKill()
    if len(effects) == 1:
        return effects[0]
    # Sequential composition. Backward: a gen survives only the kills of
    # earlier effects; forward: a gen survives only the kills of later ones.
    gen_l = kill_l = gen_a = kill_a = _EMPTY
    for gk in effects:
        gen_l = join(gen_l, minus(gk.gen_l, kill_l))
        kill_l = join(kill_l, gk.kill_l)
    for gk in effects:
        gen_a = join(minus(gen_a, gk.kill_a), gk.gen_a)
        kill_a = join(kill_a, gk.kill_a)
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
    live_in = dict.fromkeys(g.nodes, _EMPTY)
    live_out = dict.fromkeys(g.nodes, _EMPTY)

    def live_step(n: Node):
        out = _EMPTY
        for s in g.succ[n]:
            out = join(out, live_in[s])
        new_in = join(minus(out, gk[n].kill_l), gk[n].gen_l)
        live_out[n] = out
        if new_in == live_in[n]:
            return ()
        live_in[n] = new_in
        return g.pred[n]

    solve(reversed(g.nodes), live_step)

    # Forward must pass, greatest fixpoint from Top (None), entry seeded with
    # MELS.
    avail_in = dict.fromkeys(g.nodes)
    avail_out = dict.fromkeys(g.nodes)
    avail_in[g.entry] = avail_out[g.entry] = live_in[g.entry]

    def avail_step(n: Node):
        inn = None
        for p in g.pred[n]:
            inn = meet(inn, avail_out[p])
        new_out = join(minus(inn, gk[n].kill_a), gk[n].gen_a)
        avail_in[n] = inn
        if new_out == avail_out[n]:
            return ()
        avail_out[n] = new_out
        return g.succ[n]

    solve((n for n in g.nodes if n is not g.entry), avail_step)

    # One stored object per distinct set; the table dies with this call.
    shared: dict = {}
    for facts_map in (live_in, live_out, avail_in, avail_out):
        for n, s in facts_map.items():
            facts_map[n] = shared.setdefault(s, s)
    facts.mels, facts.mrls = live_in[g.entry], avail_out[g.ret]
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
        seed = FunctionFlowFacts(fn.name, tuple(fn.param_names), mrls=None)
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
            stuck = [name for name, f in current.items() if f.mrls is None]
            if stuck:
                for name in stuck:
                    current[name].mrls = _EMPTY
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
