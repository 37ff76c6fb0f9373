"""Top-down entry-lock propagation over the original call graph.

Callers hand the locks they hold at a call site down to the callee: the
callee's entry lock set (ELS) is the intersection, over every call site, of
what is surely held there, renamed into the callee's namespace. From ELS come
the propagated set PLS = ELS - MELS, the return set RLS = MRLS + PLS, and the
per-line map of held locks used by the transformer; together they are the
function's summary record. Equal entry and return sets are one object
across all the records.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .ast import Call, LockPath, Program, to_callee
from .cfg import FlowGraph, solve
from .diagnostics import Diagnostics
from .flowanalysis import FunctionFlowFacts, held_set, meet, propagated_set, rename_set
from .summary import FunctionSummary


@dataclass(slots=True)
class CallSiteFact:
    """One syntactic call: who calls whom, with what surely held there."""

    caller: str
    available: frozenset[LockPath]
    call: Call
    line: int


def collect_call_facts(program: Program, flow: dict[str, FunctionFlowFacts],
                       graphs: dict[str, FlowGraph]) -> list[CallSiteFact]:
    """One fact per syntactic call to a defined function, in program order."""
    facts: list[CallSiteFact] = []
    for fn in program.functions:
        g = graphs[fn.name]
        avail_in = flow[fn.name].avail_in
        for node in g.stmt_nodes:
            for call in node.calls:
                if program.function(call.name) is not None:
                    facts.append(CallSiteFact(fn.name, avail_in[node], call, node.line))
    return facts


def _no_image(p: LockPath, call: Call) -> str:
    return ("held lock %s has no parameter image at call to %s; "
            "not propagated" % (p.text, call.name))


def propagate(program: Program, flow: dict[str, FunctionFlowFacts],
              graphs: dict[str, FlowGraph],
              diags: Diagnostics | None = None,
              ) -> dict[str, FunctionSummary]:
    """Solve ELS for every function and assemble its summary record.

    Caller-less functions start at ELS = MELS; everything else starts at Top
    (None) and shrinks monotonically as callers settle; the worklist
    visits callers first (_callers_first). A call site hands down what the
    caller surely holds there, held_set(avail_in, PLS). Functions reachable
    only from call cycles with no root keep Top forever; they are clamped to
    their own MELS with a diagnostic.
    """
    by_callee: dict[str, list[CallSiteFact]] = defaultdict(list)
    # each caller's distinct callees, in first-call order
    callees_of: dict[str, dict[str, None]] = defaultdict(dict)
    for fact in collect_call_facts(program, flow, graphs):
        by_callee[fact.call.name].append(fact)
        callees_of[fact.caller][fact.call.name] = None

    # ELS and PLS per function, in program order.
    els: dict[str, frozenset[LockPath] | None] = {}
    pls: dict[str, frozenset[LockPath] | None] = {}
    for fn in program.functions:
        mels = flow[fn.name].mels
        els[fn.name] = None if by_callee.get(fn.name) else mels
        pls[fn.name] = propagated_set(els[fn.name], mels)

    def prop_into(callee: str, report: Diagnostics | None) -> frozenset[LockPath] | None:
        params = flow[callee].params
        result = None
        for s in by_callee[callee]:
            # A held path no argument carries keeps its name, unless it is
            # rooted at a parameter of the caller.
            renamed = rename_set(held_set(s.available, pls[s.caller]), to_callee, params,
                                 s.call, flow[s.caller].params, _no_image, report,
                                 s.caller, s.line)
            result = meet(result, renamed)
        return result

    # Each callee's drops from its last visit, kept only when there are
    # some. A caller whose ELS changes re-queues its callees, so that
    # visit renamed against every caller's final PLS.
    drops: dict[str, Diagnostics] = {}

    def els_step(name: str):
        report = Diagnostics() if diags is not None else None
        new = prop_into(name, report)
        if report:
            drops[name] = report
        else:
            drops.pop(name, None)
        if new == els[name]:
            return ()
        els[name] = new
        pls[name] = propagated_set(new, flow[name].mels)
        return callees_of[name]

    solve([name for name in _callers_first(els, callees_of)
           if by_callee.get(name)], els_step)

    if diags is not None:
        for name in els:
            if name in drops and els[name] is not None:
                diags.extend(drops[name])

    summaries: dict[str, FunctionSummary] = {}
    # One object per distinct entry or return set across the summaries.
    shared: dict[frozenset[LockPath], frozenset[LockPath]] = {}
    for fn in program.functions:
        facts = flow[fn.name]
        entry, fn_pls = els[fn.name], pls[fn.name]
        if entry is None:
            entry = facts.mels
            if diags is not None:
                diags.warn(
                    "entry lock set of %s is unconstrained (callers form a "
                    "dead cycle); using its own released set" % fn.name,
                    function=fn.name)
            fn_pls = propagated_set(entry, facts.mels)
        ret = held_set(facts.mrls, fn_pls)
        summaries[fn.name] = FunctionSummary(
            shared.setdefault(entry, entry), shared.setdefault(ret, ret),
            _lock_lines(graphs[fn.name], facts, fn_pls))
    return summaries


def _callers_first(names, callees_of: dict[str, dict[str, None]]) -> list[str]:
    """names in reverse DFS postorder over the call graph, so that outside
    call cycles every caller comes before its callees. ELS is the greatest
    fixpoint reached from Top, so the order changes only how often a
    callee is re-visited, never its result. Seeded instead with the flow
    facts' order reversed, outputs stay the same but bench recursive_rings
    renames almost 5x the call-site sets (570 -> 2,750); test_memory bounds
    it."""
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
        for p in held_set(facts.avail_in[node], pls):
            lines[p].add(node.line)
    return {p: frozenset(ls) for p, ls in lines.items()}
