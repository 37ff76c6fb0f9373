"""The shared worklist solver, and that no pass depends on its seed order.

The ownership checker and the lock-set passes walk the statement tree and
have no worklist; test_guardcheck_reference and test_flow_reference hold
them to the worklist passes they replaced.
"""
from __future__ import annotations

from importlib import import_module

import pytest

from lockshift import cfg, flowanalysis, propagation
from lockshift.diagnostics import Diagnostics, LockshiftError
from lockshift.parser import parse
from lockshift.pipeline import lock_sets, run_pipeline
from lockshift.printer import print_guarded
from lockshift.summary import write_summary

from helpers import FIXTURES, corpus_paths

PROGRAMS = sorted(FIXTURES.glob("*.mc")) + corpus_paths()


def test_a_node_is_queued_at_most_once_at_a_time():
    asks = {0: [1, 2, 1], 1: [2, 0]}
    visits = []

    def step(n):
        visits.append(n)
        return asks.pop(n, [])

    cfg.solve([0], step)
    # 1 is asked for twice while queued, 2 once while queued; 0 comes back
    # once it has left the queue.
    assert visits == [0, 1, 2, 0]


def _observables(program_text: str):
    """Everything a run shows: summary, guarded text, errors, warnings,
    and the per-statement lock sets of the flow passes, which lock_sets
    computes again on the run's program under the same seed order."""
    diags = Diagnostics()
    try:
        result, guarded, errors = run_pipeline(program_text, diags=diags)
    except LockshiftError as exc:
        return ("error", str(exc), [d.render() for d in diags])
    per_node = {}
    graphs, _, flow = lock_sets(result.program)
    for fn, f in flow.items():
        g = graphs[fn]
        live_in, live_out, avail_in, avail_out = flowanalysis.flow_sets(g, flow)
        per_node[fn] = [(live_in[n], live_out[n], avail_in[n], avail_out[n],
                         f.avail_in[n]) for n in g.nodes]
    return (write_summary(result.lock_summary), print_guarded(guarded),
            [str(e) for e in errors], [d.render() for d in diags], per_node)


def _reverse_seeds(monkeypatch) -> list[list]:
    """Make every pass on the worklist, propagation and lending, seed it in
    reverse order. Returns the list of seeds handed to the solver, which
    grows with each solve. The lock-set passes walk the statement tree and
    have no worklist."""
    seeds: list[list] = []

    def solve_reversed(seed, step):
        seed = list(seed)
        seeds.append(seed)
        cfg.solve(seed[::-1], step)

    # the package's `transform` is the function, which hides its module
    for module in (propagation, import_module("lockshift.transform")):
        monkeypatch.setattr(module, "solve", solve_reversed)
    return seeds


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_results_do_not_depend_on_the_seed_order(path, monkeypatch):
    text = path.read_text()
    expected = _observables(text)
    seeds = _reverse_seeds(monkeypatch)
    assert _observables(text) == expected
    # Propagation seeds its worklist with the functions that have callers.
    program = parse(text)
    if len({c.name for fn in program.functions for c in fn.calls
            if program.function(c.name) is not None}) > 1:
        assert any(len(seed) > 1 for seed in seeds)

