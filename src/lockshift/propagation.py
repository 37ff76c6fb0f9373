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

from .ast import Expr, LockPath, Program, place_path
from .cfg import FlowGraph, solve
from .diagnostics import Diagnostics
from .flowanalysis import FunctionFlowFacts, join, meet
from .summary import FunctionSummary


@dataclass
class CallSiteFact:
    """One syntactic call: who calls whom, with what surely held there."""

    caller: str
    callee: str
    available: frozenset[LockPath]
    args: list[Expr]
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
                        fn.name, call.name, avail_in[node],
                        list(call.args), node.line))
    return facts


def unalias(path: LockPath, args: list[Expr], params) -> tuple[LockPath, bool]:
    """Rename a caller-side path into the callee namespace.

    The first parameter whose argument place is a prefix of path wins; the
    prefix is replaced by the parameter name. Returns (path, matched).
    """
    for i, param in enumerate(params):
        if i >= len(args):
            break
        arg_path = place_path(args[i])
        if arg_path is None:
            continue
        if path.starts_with(arg_path):
            return LockPath((param,) + path.segments[len(arg_path.segments):]), True
    return path, False


def unalias_set(paths: frozenset[LockPath] | None, args, params,
                caller_params: set[str], diags: Diagnostics | None = None,
                caller: str | None = None, callee: str | None = None,
                line: int | None = None) -> frozenset[LockPath] | None:
    """Elementwise unalias. Paths rooted at a caller local with no parameter
    image cannot be named in the callee and are dropped, in path order."""
    if paths is None:
        return None
    kept = set()
    for p in sorted(paths):
        q, matched = unalias(p, args, params)
        if not matched and p.root in caller_params:
            if diags is not None:
                diags.warn(
                    "held lock %s has no parameter image at call to %s; "
                    "not propagated" % (p.text, callee),
                    function=caller, line=line)
            continue
        kept.add(q)
    return frozenset(kept)


def propagate(program: Program, flow: dict[str, FunctionFlowFacts],
              graphs: dict[str, FlowGraph],
              diags: Diagnostics | None = None,
              ) -> dict[str, FunctionSummary]:
    """Solve ELS for every function and assemble its summary record.

    Caller-less functions start at ELS = MELS; everything else starts at Top
    (None) and shrinks monotonically as callers settle. Functions reachable
    only from call cycles with no root keep Top forever; they are clamped to
    their own MELS with a diagnostic.
    """
    by_callee: dict[str, list[CallSiteFact]] = defaultdict(list)
    callees_of: dict[str, list[str]] = defaultdict(list)
    for fact in collect_call_facts(program, flow, graphs):
        by_callee[fact.callee].append(fact)
        if fact.callee not in callees_of[fact.caller]:
            callees_of[fact.caller].append(fact.callee)
    params_of = {f.name: tuple(f.param_names) for f in program.functions}

    els: dict[str, frozenset[LockPath] | None] = {}
    for fn in program.functions:
        els[fn.name] = None if by_callee.get(fn.name) else flow[fn.name].mels

    def prop_into(callee: str, report: Diagnostics | None) -> frozenset[LockPath] | None:
        result = None
        for s in by_callee[callee]:
            held = join(s.available, els[s.caller])
            renamed = unalias_set(held, s.args, params_of[callee],
                                  set(params_of[s.caller]), report,
                                  s.caller, callee, s.line)
            result = meet(result, renamed)
        return result

    def els_step(name: str):
        new = prop_into(name, None)
        if new == els[name]:
            return ()
        els[name] = new
        return callees_of[name]

    solve([name for name in params_of if by_callee.get(name)], els_step)

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
        pls = entry - facts.mels
        summaries[fn.name] = FunctionSummary(
            entry, facts.mrls | pls, _lock_lines(graphs[fn.name], facts, pls))
    return summaries


def _lock_lines(g: FlowGraph, facts: FunctionFlowFacts,
                pls: frozenset[LockPath]) -> dict[LockPath, frozenset[int]]:
    lines: dict[LockPath, set[int]] = defaultdict(set)
    for node in g.stmt_nodes:
        for p in facts.avail_in[node] | pls:
            lines[p].add(node.line)
    return {p: frozenset(ls) for p, ls in lines.items()}
