"""Self-test of the benchmark at tiny sizes; runs in seconds.

    python3 bench/selftest.py

Checks that each generator's built-in answer matches lockshift's output on
a few seeds, that a seed reproduces its input byte for byte, and that both
run modes emit exactly the metrics BENCHMARK.json names, with their units,
and without failed operations (which covers the traced pass's byte
equality with the untraced pipeline). In the traced pass every layer's
self time must be above 0, so a layer the tracer no longer reaches shows,
and so must every counter a workload exercises.
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run  # puts the checkout's src/ on sys.path
import gen

TINY = {"call_chain": 12, "wide_body": 40, "recursive_rings": 2}
# Per-layer metrics allowed to read 0 at tiny sizes. The collector may not
# run, the tracing overhead is noise, and wide_body's thread entries are
# started through pthread_create, so they have no direct calls. The
# checker's counters are compared with the generator's answer instead.
MAY_BE_ZERO = {"gc.s", "gc.collections", "trace.overhead_s",
               "guardcheck.errors", "guardcheck.rejected_functions"}
NO_CALLS = {"callgraph.edges", "propagation.call_sites", "transform.guard_params"}


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit("selftest: FAIL: " + message)


def check_layers(name: str, metrics: dict) -> None:
    zero_ok = MAY_BE_ZERO | (NO_CALLS if name == "wide_body" else set())
    for metric, (value, _) in metrics.items():
        expect(metric in zero_ok or value > 0,
               "%s: per-layer %s reads %s" % (name, metric, value))
    rejected = len(gen.WORKLOADS[name][0](TINY[name], 7).rejected)
    expect(metrics["guardcheck.rejected_functions"][0] == rejected,
           "%s: guardcheck.rejected_functions %s, expected %d"
           % (name, metrics["guardcheck.rejected_functions"][0], rejected))


def main() -> int:
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    expect({w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS),
           "BENCHMARK.json workloads differ from gen.WORKLOADS")

    for name, (factory, _) in gen.WORKLOADS.items():
        for seed in range(3):
            case = factory(TINY[name], seed)
            expect(case.source == factory(TINY[name], seed).source,
                   "%s seed %d does not reproduce its input" % (name, seed))
            tally = run.Tally()
            inp = run.Input(case, tally)
            rejected, _ = run.check_call(inp.guarded_text)
            inp.judge_check(rejected)
            expect(tally.failed == 0, "%s seed %d: output differs from the "
                   "generator's answer" % (name, seed))
        expect(factory(TINY[name], 0).source != factory(TINY[name], 1).source,
               "%s ignores its seed" % name)

    saved = dict(gen.WORKLOADS)
    gen.WORKLOADS.update({k: (f, TINY[k]) for k, (f, _) in saved.items()})
    try:
        for name in gen.WORKLOADS:
            for mode, kind in ((run.run_untraced, "end_to_end"),
                               (run.run_traced, "per_layer")):
                tally = run.Tally()
                with redirect_stdout(io.StringIO()):
                    metrics = mode(name, 7, 0, tally)
                got = {k: u for k, (_, u) in metrics.items()}
                expect(got == units[kind], "%s %s metrics %s, BENCHMARK.json "
                       "names %s" % (name, kind, got, units[kind]))
                expect(tally.attempted > 0 and tally.failed == 0,
                       "%s %s: %d of %d operations failed"
                       % (name, kind, tally.failed, tally.attempted))
                if kind == "per_layer":
                    check_layers(name, metrics)
    finally:
        gen.WORKLOADS.update(saved)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
