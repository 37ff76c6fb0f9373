"""Top-down entry-lock propagation over the original call graph.

Callers hand the locks they hold at a call site down to the callee: the
callee's entry lock set (ELS) is the intersection, over every call site, of
what is surely held there, renamed into the callee's namespace. From ELS come
the propagated set PLS = ELS - MELS, the return set RLS = MRLS + PLS, and the
per-line map of held locks used by the transformer; together they are the
function's summary record.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .ast import Call, LockPath, Program, to_callee
from .cfg import FlowGraph, solve
from .diagnostics import Diagnostics
from .flowanalysis import FunctionFlowFacts, join, meet, minus
from .summary import FunctionSummary


@dataclass
class CallSiteFact:
    """One syntactic call: who calls whom, with what surely held there."""

    caller: str
    callee: str
    available: frozenset[LockPath]
    call: Call
    line: int


def collect_call_facts(program: Program, flow: dict[str, FunctionFlowFacts],
                       graphs: dict[str, FlowGraph]) -> list[CallSiteFact]:
    """One fact per syntactic call to a defined function, in program order."""
    defined = {f.name for f in program.functions}
    facts: list[CallSiteFact] = []
    for fn in program.functions:
        g = graphs[fn.name]
        avail_in = flow[fn.name].avail_in
        for node in g.stmt_nodes:
            for call in node.calls:
                if call.name in defined:
                    facts.append(CallSiteFact(
                        fn.name, call.name, avail_in[node], call, node.line))
    return facts


def _to_callee_set(paths: frozenset[LockPath] | None, params,
                   site: CallSiteFact, caller_params: tuple[str, ...],
                   diags: Diagnostics | None) -> frozenset[LockPath] | None:
    """The caller's held paths as the callee names them at site. A path
    that no argument prefixes keeps its name, unless it is rooted at a
    caller parameter: the callee cannot name it, so it is dropped with a
    warning, in path order. paths itself when the result equals it."""
    if paths is None:
        return None
    kept = set()
    for p in sorted(paths):
        q = to_callee(p, params, site.call)
        if q is None and p.root in caller_params:
            if diags is not None:
                diags.warn(
                    "held lock %s has no parameter image at call to %s; "
                    "not propagated" % (p.text, site.callee),
                    function=site.caller, line=site.line)
            continue
        kept.add(p if q is None else q)
    return paths if kept == paths else frozenset(kept)


def propagate(program: Program, flow: dict[str, FunctionFlowFacts],
              graphs: dict[str, FlowGraph],
              diags: Diagnostics | None = None,
              ) -> dict[str, FunctionSummary]:
    """Solve ELS for every function and assemble its summary record.

    Caller-less functions start at ELS = MELS; everything else starts at Top
    (None) and shrinks monotonically as callers settle; the worklist
    visits callers first (_callers_first). Functions reachable
    only from call cycles with no root keep Top forever; they are clamped to
    their own MELS with a diagnostic.
    """
    by_callee: dict[str, list[CallSiteFact]] = defaultdict(list)
    # each caller's distinct callees, in first-call order
    callees_of: dict[str, dict[str, None]] = defaultdict(dict)
    for fact in collect_call_facts(program, flow, graphs):
        by_callee[fact.callee].append(fact)
        callees_of[fact.caller][fact.callee] = None
    params_of = {f.name: tuple(f.param_names) for f in program.functions}

    els: dict[str, frozenset[LockPath] | None] = {}
    for fn in program.functions:
        els[fn.name] = None if by_callee.get(fn.name) else flow[fn.name].mels

    def prop_into(callee: str, report: Diagnostics | None) -> frozenset[LockPath] | None:
        result = None
        for s in by_callee[callee]:
            held = join(s.available, els[s.caller])
            renamed = _to_callee_set(held, params_of[callee], s,
                                     params_of[s.caller], report)
            result = meet(result, renamed)
        return result

    def els_step(name: str):
        new = prop_into(name, None)
        if new == els[name]:
            return ()
        els[name] = new
        return callees_of[name]

    solve([name for name in _callers_first(params_of, callees_of)
           if by_callee.get(name)], els_step)

    # Report drops once, after convergence.
    if diags is not None:
        for name in params_of:
            if by_callee.get(name) and els[name] is not None:
                prop_into(name, diags)

    summaries: dict[str, FunctionSummary] = {}
    for fn in program.functions:
        facts = flow[fn.name]
        entry = els[fn.name]
        if entry is None:
            entry = facts.mels
            if diags is not None:
                diags.warn(
                    "entry lock set of %s is unconstrained (callers form a "
                    "dead cycle); using its own released set" % fn.name,
                    function=fn.name)
        pls = minus(entry, facts.mels)
        summaries[fn.name] = FunctionSummary(
            entry, join(facts.mrls, pls), _lock_lines(graphs[fn.name], facts, pls))
    return summaries


def _callers_first(names, callees_of: dict[str, dict[str, None]]) -> list[str]:
    """names in reverse DFS postorder over the call graph, so that outside
    call cycles every caller comes before its callees. ELS is the greatest
    fixpoint reached from Top, so the order changes only how often a
    callee is re-visited, never its result."""
    post: list[str] = []
    seen: set[str] = set()
    for root in names:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(callees_of.get(root, ())))]
        while stack:
            name, callees = stack[-1]
            for callee in callees:
                if callee not in seen:
                    seen.add(callee)
                    stack.append((callee, iter(callees_of.get(callee, ()))))
                    break
            else:
                stack.pop()
                post.append(name)
    post.reverse()
    return post


def _lock_lines(g: FlowGraph, facts: FunctionFlowFacts,
                pls: frozenset[LockPath]) -> dict[LockPath, frozenset[int]]:
    lines: dict[LockPath, set[int]] = defaultdict(set)
    for node in g.stmt_nodes:
        for p in join(facts.avail_in[node], pls):
            lines[p].add(node.line)
    return {p: frozenset(ls) for p, ls in lines.items()}
