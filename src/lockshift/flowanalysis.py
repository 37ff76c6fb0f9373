"""Bottom-up lock-set analysis.

Each call a statement evaluates has one lock effect, a pair (released, held)
as the caller names it: an unlock is ({p}, {}), a lock ({}, {p}), and a call
to a defined function its callee's (MELS, MRLS). Two dataflow passes per
function over its flow graph apply a statement's effects in turn:

  backward may ("live"):   last to first, live = (live - held) + released;
                           out[s] = U in[succ]
      -> MELS = in[entry], locks a function releases before acquiring them.
  forward must ("avail"):  first to last, avail = (avail - released) + held;
                           in[s] = ^ out[pred], in[entry] = MELS
      -> MRLS = out[ret], locks surely held when returning.

flow_sets() solves both and returns all four per-node maps. A function's
facts keep only what later phases read: MELS, MRLS and avail_in, the locks
surely held before each node. Converged facts are a fixpoint against the
callees' final summaries, so flow_sets() run again against them gives back
the same maps, the three the facts drop included.

Calls use callee summaries renamed into the caller by ast.to_caller, the
one parameter-to-argument binding the analysis and transformer share; a
path whose argument is not a place is dropped with a warning. Mutually
recursive functions are solved to a joint fixpoint with MELS seeded empty and
MRLS seeded Top; Top never escapes: every set in returned facts is a finite
frozenset of lock paths. Each sweep visits the members in a fixed order but
re-solves only members whose SCC callees changed since their last solve; the
iteration budget still counts sweeps.

Lock sets are shared values. join, meet and minus return an operand whenever
the result equals it, and a callee summary that renaming leaves unchanged is
the callee's own set, so most steps allocate nothing, and each
analyze_function call stores one object per distinct set in avail_in.

The rules that later phases apply to these sets are stated once, here:
propagated_set and held_set combine the facts with a function's entry lock
set, and rename_set renames a set across a call in either direction.
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
# object; _EMPTY is the one empty set they start from and minus returns.

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
    return a - b or _EMPTY


def propagated_set(entry: frozenset[LockPath] | None,
                   mels: frozenset[LockPath]) -> frozenset[LockPath] | None:
    """PLS = ELS - MELS, the entry locks a function passes through untouched."""
    return minus(entry, mels)


def held_set(avail: frozenset[LockPath] | None,
             pls: frozenset[LockPath] | None) -> frozenset[LockPath] | None:
    """avail_in + PLS, the locks surely held before a statement; RLS for MRLS."""
    return join(avail, pls)


def rename_set(paths: frozenset[LockPath] | None, rename, params, call: Call,
               bound, why, diags: Diagnostics | None, function: str | None,
               line: int) -> frozenset[LockPath] | None:
    """paths renamed across call by rename(p, params, call), the binding
    ast.to_caller or ast.to_callee. A path rename cannot name keeps its name
    unless its root is in bound; then it is dropped with the warning
    why(p, call), in path order. paths itself when the result equals it;
    Top stays Top."""
    if paths is None:
        return None
    out = set()
    for p in sorted(paths):
        q = rename(p, params, call)
        if q is not None:
            out.add(q)
        elif p.root not in bound:
            out.add(p)
        elif diags is not None:
            diags.warn(why(p, call), function=function, line=line)
    return paths if out == paths else frozenset(out)


def _not_a_place(p: LockPath, call: Call) -> str:
    return not_a_place(p)


@dataclass(slots=True)
class FunctionFlowFacts:
    """Per-function analysis result: the summaries, and the locks surely
    held before each flow-graph node."""

    name: str
    params: tuple[str, ...]
    mels: frozenset[LockPath] = _EMPTY
    mrls: frozenset[LockPath] | None = _EMPTY  # Top only inside analyze_scc
    avail_in: dict[Node, frozenset[LockPath]] = field(default_factory=dict)
    scc_iterations: int = 0


# (released, held): released is always finite; held comes from callee MRLS,
# which is Top inside an SCC sweep.
Effect = tuple[frozenset[LockPath], frozenset[LockPath] | None]


def _call_effect(call: Call, callee_facts: Mapping[str, FunctionFlowFacts],
                 diags, fn_name, line) -> Effect | None:
    if call.name == UNLOCK_FN:
        return frozenset((call.lock,)), _EMPTY
    if call.name == LOCK_FN:
        return _EMPTY, frozenset((call.lock,))
    facts = callee_facts.get(call.name)
    if facts is None:
        return None
    p = facts.params  # to_caller names every path but a parameter's
    return (rename_set(facts.mels, to_caller, p, call, p, _not_a_place, diags, fn_name, line),
            rename_set(facts.mrls, to_caller, p, call, p, _not_a_place, diags, fn_name, line))


def stmt_effects(s: Stmt, callee_facts: Mapping[str, FunctionFlowFacts],
                 diags: Diagnostics | None = None,
                 fn_name: str | None = None) -> tuple[Effect, ...]:
    """The lock effects of the calls s evaluates, in evaluation order."""
    effects = []
    for call in s.calls:
        effect = _call_effect(call, callee_facts, diags, fn_name, s.line)
        if effect is not None:
            effects.append(effect)
    return tuple(effects)


def flow_sets(fn: FunctionDef, g: FlowGraph,
              callee_facts: Mapping[str, FunctionFlowFacts],
              diags: Diagnostics | None = None):
    """(live_in, live_out, avail_in, avail_out) per node of g, both passes
    solved against fixed callee summaries."""
    effects = {n: e for n in g.stmt_nodes
               if (e := stmt_effects(n, callee_facts, diags, fn.name))}
    succ = g.succ
    pred: dict[Node, list[Node]] = {n: [] for n in g.nodes}
    for n in g.nodes:
        for s in succ[n]:
            pred[s].append(n)

    # Backward may pass, least fixpoint from the empty set.
    live_in = dict.fromkeys(g.nodes, _EMPTY)
    live_out = dict.fromkeys(g.nodes, _EMPTY)

    def live_step(n: Node):
        out = _EMPTY
        for s in succ[n]:
            out = join(out, live_in[s])
        live_out[n] = new_in = out
        for released, held in reversed(effects.get(n, ())):
            new_in = join(minus(new_in, held), released)
        if new_in == live_in[n]:
            return ()
        live_in[n] = new_in
        return pred[n]

    solve(reversed(g.nodes), live_step)

    # Forward must pass, greatest fixpoint from Top (None), entry seeded with
    # MELS.
    avail_in = dict.fromkeys(g.nodes)
    avail_out = dict.fromkeys(g.nodes)
    avail_in[g.entry] = avail_out[g.entry] = live_in[g.entry]

    def avail_step(n: Node):
        inn = None
        for p in pred[n]:
            inn = meet(inn, avail_out[p])
        avail_in[n] = new_out = inn
        for released, held in effects.get(n, ()):
            new_out = join(minus(new_out, released), held)
        if new_out == avail_out[n]:
            return ()
        avail_out[n] = new_out
        return succ[n]

    solve((n for n in g.nodes if n is not g.entry), avail_step)
    return live_in, live_out, avail_in, avail_out


def analyze_function(fn: FunctionDef, g: FlowGraph,
                     callee_facts: Mapping[str, FunctionFlowFacts],
                     diags: Diagnostics | None = None) -> FunctionFlowFacts:
    """Solve both passes for one function against fixed callee summaries,
    keeping MELS, MRLS and avail_in."""
    live_in, _, avail_in, avail_out = flow_sets(fn, g, callee_facts, diags)
    # One stored object per distinct set; the table dies with this call.
    shared: dict = {}
    for n, s in avail_in.items():
        avail_in[n] = shared.setdefault(s, s)
    return FunctionFlowFacts(fn.name, tuple(fn.param_names),
                             live_in[g.entry], avail_out[g.ret], avail_in)


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
    current = {fn.name: FunctionFlowFacts(fn.name, tuple(fn.param_names), mrls=None)
               for fn in fns}
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
