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

from .ast import Call, LockPath, Program, ValueRecord, to_callee
from .cfg import FlowGraph, solve
from .diagnostics import Diagnostics
from .flowanalysis import FunctionFlowFacts, held_set, meet, propagated_set, rename_set
from .summary import FunctionSummary


class CallSiteFact(ValueRecord):
    """One syntactic call: who calls whom, with what surely held there, and
    propagation's last renaming of it: the caller PLS it renamed, the held
    set the callee got, and the paths it dropped, in path order."""

    __slots__ = ("caller", "available", "call", "line", "pls", "renamed", "dropped")

    def __init__(self, caller: str, available: frozenset[LockPath], call: Call, line: int):
        self.caller = caller
        self.available = available
        self.call = call
        self.line = line
        self.pls = self.renamed = False  # no PLS is False: never renamed
        self.dropped: tuple[LockPath, ...] = ()


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


def propagate(program: Program, flow: dict[str, FunctionFlowFacts],
              graphs: dict[str, FlowGraph],
              diags: Diagnostics | None = None,
              ) -> dict[str, FunctionSummary]:
    """Solve ELS for every function and assemble its summary record.

    Caller-less functions start at ELS = MELS; everything else starts at Top
    (None) and shrinks monotonically as callers settle. The worklist takes
    the flow facts' order, callers first; ELS is the greatest fixpoint, so
    the order changes only how often a callee is re-visited. A call site
    hands down what the caller surely holds there, held_set(avail_in, PLS).
    Functions reachable only from call cycles with no root keep Top
    forever; they are clamped to their own MELS with a diagnostic.

    The solve only computes. A caller whose PLS changes re-queues its
    callees, read off its own calls, and a site is renamed again only once
    its caller's PLS has changed, so its last renaming saw its caller's
    final PLS. Its drops are reported after the solve, for callees with a
    finite ELS.
    """
    by_callee: dict[str, list[CallSiteFact]] = defaultdict(list)
    for fact in collect_call_facts(program, flow, graphs):
        by_callee[fact.call.name].append(fact)

    # ELS and PLS per function, in program order.
    els: dict[str, frozenset[LockPath] | None] = {}
    pls: dict[str, frozenset[LockPath] | None] = {}
    renamed_sets: dict = {}  # one object per distinct renamed set
    for fn in program.functions:
        mels = flow[fn.name].mels
        els[fn.name] = None if by_callee.get(fn.name) else mels
        pls[fn.name] = propagated_set(els[fn.name], mels)

    def els_step(name: str):
        params = flow[name].params
        new = None
        for s in by_callee[name]:
            if s.pls is not pls[s.caller]:
                s.pls = pls[s.caller]
                # A held path no argument carries keeps its name, unless it is
                # rooted at a parameter of the caller; then it is dropped.
                renamed, s.dropped = rename_set(held_set(s.available, s.pls), to_callee,
                                                params, s.call, flow[s.caller].params)
                s.renamed = renamed_sets.setdefault(renamed, renamed)
            new = meet(new, s.renamed)
        if new == els[name]:
            return ()
        els[name] = new
        new = propagated_set(new, flow[name].mels)
        if new == pls[name]:  # what the callees get is unchanged
            return ()
        pls[name] = new
        # its callees in call order; solve queues each once, at its first call
        return [c.name for c in program.function(name).calls if c.name in by_callee]

    solve([name for name in flow if by_callee.get(name)], els_step)

    if diags is not None:
        for name, entry in els.items():
            if entry is not None:
                for s in by_callee.get(name, ()):
                    for p in s.dropped:
                        diags.warn("held lock %s has no parameter image at call to %s; "
                                   "not propagated" % (".".join(p), s.call.name),
                                   function=s.caller, line=s.line)

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


def _lock_lines(g: FlowGraph, facts: FunctionFlowFacts,
                pls: frozenset[LockPath]) -> dict[LockPath, tuple[int, ...]]:
    """The lines where each lock is surely held, as an ascending tuple."""
    # Lines by avail_in set, one object per value: one join per held set.
    by_avail: dict[frozenset[LockPath], list[int]] = defaultdict(list)
    for node in g.stmt_nodes:
        by_avail[facts.avail_in[node]].append(node.line)
    lines: dict[LockPath, set[int]] = defaultdict(set)
    for avail, group in by_avail.items():
        for p in held_set(avail, pls):
            lines[p].update(group)
    return {p: tuple(sorted(ls)) for p, ls in lines.items()}
