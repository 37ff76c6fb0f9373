"""Differential test of the lock-set walks against the flow-graph passes.

`flowanalysis` computes MELS, MRLS and the per-statement sets by walking
each function's statement tree over bit masks: the backward may pass on
`cfg.flow_back`, the forward must pass on `cfg.flow`. The reference below
is the pair of passes they replaced: both run the shared worklist
(`cfg.solve`) over the function's flow graph, on frozensets, with Top as
None. Both must give the same MELS, MRLS, sweep counts, every node's four
sets and every warning, or the same error.
"""
from __future__ import annotations

import pytest

from lockshift import flowanalysis
from lockshift.cfg import solve
from lockshift.diagnostics import Diagnostics, LockshiftError
from lockshift.flowanalysis import (
    _EMPTY, FunctionFlowFacts, flow_sets, join, meet, minus, stmt_effects)
from lockshift.parser import parse
from lockshift.pipeline import lock_sets

from helpers import while_nest
from test_scc_reference import RANDOM_PROGRAMS, SccGen


def reference_flow_sets(g, callee_facts):
    """(live_in, live_out, avail_in, avail_out) per node of g, both passes
    solved on the worklist against fixed callee summaries."""
    effects = {n: e for n in g.stmt_nodes
               if (e := stmt_effects(n, callee_facts))}
    succ = g.succ
    pred = {n: [] for n in succ}
    for n, ss in succ.items():
        for s in ss:
            pred[s].append(n)

    # Backward may pass, least fixpoint from the empty set.
    live_in = dict.fromkeys(succ, _EMPTY)
    live_out = dict.fromkeys(succ, _EMPTY)

    def live_step(n):
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

    solve(reversed(succ), live_step)

    # Forward must pass, greatest fixpoint from Top (None), entry seeded with
    # MELS.
    avail_in = dict.fromkeys(succ)
    avail_out = dict.fromkeys(succ)
    avail_in[g.entry] = avail_out[g.entry] = live_in[g.entry]

    def avail_step(n):
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

    solve((n for n in succ if n is not g.entry), avail_step)
    return live_in, live_out, avail_in, avail_out


def reference_analyze_function(fn, g, callee_facts, shared=None):
    """analyze_function on the reference passes."""
    live_in, _, avail_in, avail_out = reference_flow_sets(g, callee_facts)
    return FunctionFlowFacts(tuple(fn.param_names), live_in[g.entry], avail_out[g.ret],
                             avail_in)


def observe(program, analyze, sets, monkeypatch):
    """Every fact and warning of program's lock-set phases with each
    function solved by analyze, and each node's four sets by sets."""
    diags = Diagnostics()
    with monkeypatch.context() as m:
        m.setattr(flowanalysis, "analyze_function", analyze)
        try:
            graphs, _, flow = lock_sets(program, diags)
        except LockshiftError as exc:
            return type(exc).__name__, str(exc), [d.render() for d in diags]
    facts = {}
    for name, f in flow.items():
        g = graphs[name]
        maps = sets(g, flow)
        facts[name] = (f.mels, f.mrls, f.scc_iterations,
                       [(f.avail_in[n], *(m[n] for m in maps)) for n in g.nodes])
    return facts, [d.render() for d in diags]


def assert_matches_reference(program, monkeypatch, label):
    want = observe(program, reference_analyze_function, reference_flow_sets, monkeypatch)
    got = observe(program, flowanalysis.analyze_function, flow_sets, monkeypatch)
    assert got == want, label
    return got


def test_the_pinned_programs_match_the_reference(corpus, monkeypatch):
    """The pinned corpus holds SccGen seeds 0 to 159."""
    checked = 0
    for name, run in corpus.items():
        if run.program is not None:
            assert_matches_reference(run.program, monkeypatch, name)
            checked += 1
    assert checked > 300


def test_more_random_sccs_match_the_reference(monkeypatch):
    errors = 0
    for seed in range(160, RANDOM_PROGRAMS):
        got = assert_matches_reference(parse(SccGen(seed).program()), monkeypatch,
                                       "scc/%d" % seed)
        errors += len(got) == 3
    # About one in thirteen never converges; both must fail alike.
    assert 0 < errors < 40


@pytest.mark.parametrize("depth", [5, 30, 60, 90])
def test_while_nests_match_the_reference(depth, monkeypatch):
    facts, _ = assert_matches_reference(parse(while_nest(depth)), monkeypatch,
                                        "nest %d" % depth)
    mels, mrls, _, per_node = facts["f"]
    assert {".".join(p) for p in mels} == {"m"} and mrls == mels
    # m is surely held only at entry, the outer loop's while and if heads,
    # the first unlock and ret: every loop below may be entered unheld.
    assert sum(1 for sets in per_node if sets[0] == mels) == 5
