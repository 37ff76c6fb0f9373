"""Bottom-up lock-set analysis.

Each call a statement evaluates has one lock effect, a pair (released, held)
as the caller names it: an unlock is ({p}, {}), a lock ({}, {p}), and a call
to a defined function its callee's (MELS, MRLS). Two dataflow passes per
function walk its statement tree (cfg.flow_back, then cfg.flow) on bit
masks, and apply a statement's effects in turn:

  backward may ("live"):   last to first, live = (live - held) + released;
                           out[s] = U in[succ]
      -> MELS = in[entry], locks a function releases before acquiring them.
  forward must ("avail"):  first to last, avail = (avail - released) + held;
                           in[s] = ^ out[pred], in[entry] = MELS
      -> MRLS = out[ret], locks surely held when returning.

flow_sets() reports both walks as all four maps per flow-graph node. A
function's facts keep only what later phases read: MELS, MRLS and
avail_in, the locks surely held before each node. Converged facts are a
fixpoint against the callees' final summaries, so flow_sets() run again
against them gives back the same maps, the three the facts drop included.

Calls use callee summaries renamed into the caller by ast.to_caller, the
one parameter-to-argument binding the analysis and transformer share; a
path whose argument is not a place is dropped. The fixpoints only compute:
each drop is reported once, from the converged facts of its call-graph
component. Mutually recursive functions are solved to a joint fixpoint with
MELS seeded empty and MRLS seeded Top; Top never escapes: every set in
returned facts is a finite frozenset of lock paths. Each sweep visits the
members in a fixed order but re-solves only members whose SCC callees
changed since their last solve, until it converges or proves it never will.

Lock sets are shared values. join, meet and minus return an operand whenever
the result equals it, and a callee summary that renaming leaves unchanged is
the callee's own set (a callee without parameters is not renamed at all).
A walk's masks become sets through two tables a run shares (a recursive
component its own), by mask and by value: one object per distinct set.

The rules that later phases apply to these sets are stated once, here:
propagated_set and held_set combine the facts with a function's entry lock
set, and rename_set renames a set across a call in either direction and
returns the paths it drops, for the caller to report.
"""
from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, count
from operator import attrgetter

from .ast import (
    Call,
    FunctionDef,
    LOCK_FN,
    LockPath,
    Return,
    Stmt,
    UNLOCK_FN,
    ValueRecord,
    not_a_place,
    to_caller,
)
from .cfg import FlowGraph, Node, Walk, flow, flow_back
from .diagnostics import Diagnostics, NoFixpoint


# A lock set is a frozenset of lock paths. Top, the set of all paths, is None;
# it seeds the avail pass, the SCC sweep's MRLS and propagate's ELS, and these
# three operators are the only ones that have to handle it. Each returns one
# of its operands whenever the result equals it, so equal sets stay one
# object; _EMPTY is the one empty set they start from and minus returns.

_EMPTY: frozenset[LockPath] = frozenset()
_MELS, _MRLS = attrgetter("mels"), attrgetter("mrls")


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
               bound) -> tuple[frozenset[LockPath] | None, tuple[LockPath, ...]]:
    """(renamed, dropped): paths renamed across call by rename(p, params,
    call), the binding ast.to_caller or ast.to_callee, and the paths it
    dropped, in path order. A path rename cannot name keeps its name unless
    its root is in bound; then it is dropped. renamed is paths itself when
    it equals it; Top stays Top and drops nothing."""
    if paths is None:
        return None, ()
    out, dropped = set(), []
    for p in paths:
        q = rename(p, params, call)
        if q is None and p[0] in bound:
            dropped.append(p)
        else:
            out.add(p if q is None else q)
    return paths if out == paths else frozenset(out), tuple(sorted(dropped))


class FunctionFlowFacts(ValueRecord):
    """Per-function analysis result: the summaries, and the locks surely
    held before each flow-graph node."""

    __slots__ = ("params", "mels", "mrls", "avail_in", "scc_iterations")

    def __init__(self, params: tuple[str, ...], mels: frozenset[LockPath] = _EMPTY,
                 mrls: frozenset[LockPath] | None = _EMPTY,
                 avail_in: dict[Node, frozenset[LockPath]] | None = None,
                 scc_iterations: int = 0):
        self.params = params
        self.mels = mels
        self.mrls = mrls  # Top only inside analyze_scc
        self.avail_in = {} if avail_in is None else avail_in
        self.scc_iterations = scc_iterations


# (released, held): released is always finite; held comes from callee MRLS,
# which is Top inside an SCC sweep.
Effect = tuple[frozenset[LockPath], frozenset[LockPath] | None]


def _call_effect(call: Call, callee_facts: Mapping[str, FunctionFlowFacts]) -> Effect | None:
    if call.name == UNLOCK_FN:
        return frozenset((call.lock,)), _EMPTY
    if call.name == LOCK_FN:
        return _EMPTY, frozenset((call.lock,))
    facts = callee_facts.get(call.name)
    if facts is None:
        return None
    p = facts.params  # to_caller names every path but a parameter's
    if not p:  # so it is the identity
        return facts.mels, facts.mrls
    return (rename_set(facts.mels, to_caller, p, call, p)[0],
            rename_set(facts.mrls, to_caller, p, call, p)[0])


def stmt_effects(s: Stmt, callee_facts: Mapping[str, FunctionFlowFacts]) -> tuple[Effect, ...]:
    """The lock effects of the calls s evaluates, in evaluation order."""
    effects = []
    for call in s.calls:
        effect = _call_effect(call, callee_facts)
        if effect is not None:
            effects.append(effect)
    return tuple(effects)


class _Pass(Walk):
    """One pass's walk: its transfers, the maps a report walk records the
    states before and after each statement in, and the returns' join."""

    __slots__ = ("keep", "add", "before", "after", "exit")

    def __init__(self, g: FlowGraph, transfers, before, after):
        Walk.__init__(self, g.fn.name, _step)
        self.keep, self.add = transfers
        self.before, self.after, self.exit = before, after, 0


def _step(w: _Pass, s: Stmt, state: int, report: bool) -> int:
    keep = w.keep.get(s)
    out = state if keep is None else state & keep | w.add[s]
    if report:
        w.before[s] = state
        if w.after is not None:
            w.after[s] = out
        if type(s) is Return:
            w.exit |= out
    return out


def _walks(g: FlowGraph, callee_facts: Mapping[str, FunctionFlowFacts],
           avail: dict, more: tuple[dict, dict, dict] | None = None) -> dict[LockPath, int]:
    """Walk g's body backward, then forward, against fixed callee summaries;
    return index, which numbers every path an effect names from bit 1 up.
    A backward state has the bits of the live paths, a forward one those of
    the paths that may not be held, and each has bit 0, for the paths no
    effect names; Top is 0, on which cfg.flow runs no step. avail gets the
    forward state before each node; more, (live_out, live_in, avail_out),
    the backward states after and before each node and the forward after."""
    index: dict[LockPath, int] = {}

    def bits(paths) -> int:
        m = 0
        for p in paths:
            m |= index.get(p) or index.setdefault(p, 2 << len(index))
        return m

    forward, backward = ({}, {}), ({}, {})
    for s in g.stmt_nodes:
        if not s.calls:
            continue
        es = [(bits(r), h if h is None else bits(h)) for r, h in stmt_effects(s, callee_facts)]
        keep, add = -1, 0
        for r, h in es:
            if h is None:  # Top, which the later effects keep
                keep = add = 0
                break
            keep, add = keep & ~h, (add | r) & ~h
        forward[0][s], forward[1][s] = keep, add
        keep, add = -1, 0
        for r, h in reversed(es):
            h = -2 if h is None else h  # Top kills every path but bit 0's
            keep, add = keep & ~h, add & ~h | r
        backward[0][s], backward[1][s] = keep, add

    live_out, live_in, avail_out = more or (None, None, None)
    mels = flow_back(_Pass(g, backward, live_out, live_in), g.fn.body.stmts, 1, bool(more), 1)
    w = _Pass(g, forward, avail, avail_out)
    avail[g.entry] = entry = (2 << len(index)) - 1 ^ mels | 1
    fall = flow(w, g.fn.body.stmts, entry, True) or 0
    avail[g.ret] = mrls = fall | w.exit  # the fall-through met with each return
    if more:
        live_out[g.entry] = live_in[g.entry] = mels
        avail_out[g.entry], avail_out[g.ret] = entry, mrls
    return index


def flow_sets(g: FlowGraph, callee_facts: Mapping[str, FunctionFlowFacts]):
    """(live_in, live_out, avail_in, avail_out) per node of g, both walks
    reported against fixed callee summaries."""
    live_out, live_in = dict.fromkeys(g.succ, 1), dict.fromkeys(g.succ, 1)
    avail_in, avail_out = dict.fromkeys(g.succ), dict.fromkeys(g.succ)
    index = _walks(g, callee_facts, avail_in, (live_out, live_in, avail_out))
    return tuple({n: frozenset(p for p, b in index.items() if (m ^ flip) & b) if m else None
                  for n, m in masks.items()}
                 for masks, flip in ((live_in, 0), (live_out, 0), (avail_in, -1), (avail_out, -1)))


def analyze_function(fn: FunctionDef, g: FlowGraph,
                     callee_facts: Mapping[str, FunctionFlowFacts],
                     shared: tuple[dict, dict] | None = None) -> FunctionFlowFacts:
    """Walk both passes over one function against fixed callee summaries,
    keeping MELS, MRLS and avail_in. shared, if given, is (sets, masks): each
    distinct lock set as its own value, and per index each mask's set."""
    sets, masks = shared or ({}, {})
    avail_in = dict.fromkeys(g.succ)
    index = _walks(g, callee_facts, avail_in)
    key = tuple(index)
    table = masks.get(key) or masks.setdefault(key, {None: None, 0: None})  # Top is None
    for n, m in avail_in.items():
        if m not in table:
            s = frozenset(p for p, b in index.items() if not m & b) or _EMPTY
            table[m] = sets.setdefault(s, s)
        avail_in[n] = table[m]
    return FunctionFlowFacts(tuple(fn.param_names), avail_in[g.entry], avail_in[g.ret], avail_in)


def analyze_scc(fns: list[FunctionDef], graphs: dict[str, FlowGraph],
                outer_facts: dict[str, FunctionFlowFacts],
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

    A sweep's result is thus a function of the members' (MELS, MRLS) at
    its start, and NoFixpoint is raised on either proof, in that start
    state, that the sweep never converges:
      cycle:  a sweep starts where an earlier sweep started;
      growth: a path is longer than K. Paths start as members' lock-API paths
              and outer callees' paths renamed at their calls; a member call
              whose longest argument place is a adds at most len(a) - 1
              names. K sums the longest start and these terms, so a longer
              path went through some call twice, with growth.
    Under K the states are finite, so the sweep always ends.

    The sweep warns only about a member with no base case; dropped paths
    are reported by analyze_program_flow, from the converged facts.
    """
    current = {fn.name: FunctionFlowFacts(tuple(fn.param_names), mrls=None)
               for fn in fns}
    env = dict(current)  # the summaries the members' calls read
    shared = {}, {}  # one object per distinct lock set
    callers: dict[str, set[str]] = {fn.name: set() for fn in fns}
    growth = 0
    for fn in fns:
        for call in fn.calls:
            if call.name in callers:
                callers[call.name].add(fn.name)
                growth += max(map(len, filter(None, call.arg_paths)), default=1) - 1
            elif call.name in outer_facts:
                env[call.name] = outer_facts[call.name]
    # K, needed only where some call can lengthen a path
    limit = growth and growth + max(
        (len(p) for fn in fns for call in fn.calls if call.name not in callers
         for paths in _call_effect(call, outer_facts) or () for p in paths), default=0)
    dirty = set(current)
    clamped: set[str] = set()
    starts: dict[tuple, int] = {}
    for iteration in count(1):
        state = (*map(_MELS, current.values()), *map(_MRLS, current.values()))
        first = starts.setdefault(state, iteration)
        if first != iteration:
            raise NoFixpoint(list(current), "sweep %d starts where sweep %d did"
                             % (iteration, first))
        if growth and max(map(len, chain.from_iterable(filter(None, state))), default=0) > limit:
            long = min(p for p in chain.from_iterable(filter(None, state)) if len(p) > limit)
            raise NoFixpoint(list(current), "lock path %s is longer than %d names"
                             % (".".join(long), limit))
        changed = False
        for fn in fns:
            name = fn.name
            if name in dirty:
                dirty.discard(name)
                new = analyze_function(fn, graphs[name], env, shared)
                old = current[name]
                if new.mels != old.mels or new.mrls != old.mrls:
                    changed = True
                    dirty.update(callers[name])
                current[name] = env[name] = new
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
            return current


def analyze_program_flow(program, cg, graphs: dict[str, FlowGraph],
                         diags: Diagnostics | None = None) -> dict[str, FunctionFlowFacts]:
    """Bottom-up pass over the condensed call graph, callees before callers,
    warning about the paths each component's calls drop once it converges.
    The facts come back keyed callers first: components in the reverse of
    cg.merged_nodes, a recursive component's members in their sweep order."""
    facts: dict[str, FunctionFlowFacts] = {}
    shared = {}, {}  # one object per distinct lock set
    for idx, members in enumerate(cg.merged_nodes):
        fns = [program.function(name) for name in members]
        if cg.is_recursive_scc(idx):
            facts.update(analyze_scc(fns, graphs, facts, diags))
        else:
            fn = fns[0]
            one = analyze_function(fn, graphs[fn.name], facts, shared=shared)
            one.scc_iterations = 1
            facts[fn.name] = one
        if diags is not None:
            for name in members:
                for line, lp in _dropped_paths(graphs[name], facts):
                    diags.warn(not_a_place(lp), function=name, line=line)
    return {name: facts[name] for members in reversed(cg.merged_nodes) for name in members}


def _dropped_paths(g: FlowGraph, facts: dict[str, FunctionFlowFacts]):
    """(line, path) for each path a call in g drops from its callee's MELS,
    then MRLS, because the argument for the path's root parameter is not a
    place; in statement and call order."""
    for node in g.stmt_nodes:
        for call in node.calls:
            callee = facts.get(call.name)
            if callee is not None and None in call.arg_paths:
                p = callee.params
                for paths in (callee.mels, callee.mrls):
                    for lp in rename_set(paths, to_caller, p, call, p)[1]:
                        yield node.line, lp
