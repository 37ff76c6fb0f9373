"""End-to-end benchmark of the lockshift pipeline on generated programs.

    python3 bench/run.py --workload call_chain --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports lockshift from its
`src/`. The input is generated from the seed (see gen.py), every output is
checked against the answer the generator built in, and the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones a user waits for:

    analyze_s    source text -> lock summary JSON (the `analyze` command)
    full_s       analyze, transform, check and print (the `full` command)
    check_s      parse_guarded + check on full's output (the `check` command)
    scale_2x     median full_s at the workload size / at half that size
    peak_mem_mb  tracemalloc peak of one full call, in its own untimed pass
    setup_s      fresh interpreter: import lockshift and generate the input

Timings are medians over the samples taken in `--seconds`, in seconds at
reference speed (see Scale); sample counts and quartiles are printed above
the JSON line. With `--trace 1` the run takes traced samples (layers.py)
and reports per-layer self times and counters instead. An operation is one
full call or one check call; it fails when it raises, or when its output
differs from the generator's answer or from `run_pipeline`'s output for
the same input.
"""
from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# Typical time of reference_work() on the 2-core Intel Xeon VM
# (Python 3.11) where the baseline was taken; see Scale.
REFERENCE_WORK_S = 0.04

# Runs in a fresh interpreter; prints the seconds spent importing lockshift
# and generating the workload input.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import lockshift, gen
factory, size = gen.WORKLOADS[sys.argv[3]]
factory(size, int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def _import_lockshift():
    sys.path.insert(0, str(SRC))
    try:
        import lockshift
    except ImportError as exc:
        sys.exit("bench: cannot import lockshift from %s: %s" % (SRC, exc))
    if Path(lockshift.__file__).resolve().parent.parent != SRC:
        sys.exit("bench: imported lockshift from %s, not %s" % (lockshift.__file__, SRC))


_import_lockshift()

import gen  # noqa: E402
import layers  # noqa: E402
from lockshift.diagnostics import Diagnostics  # noqa: E402
from lockshift.guardcheck import check  # noqa: E402
from lockshift.parser import parse_guarded  # noqa: E402
from lockshift.pipeline import analyze_program, run_pipeline  # noqa: E402
from lockshift.printer import print_guarded  # noqa: E402
from lockshift.summary import write_summary  # noqa: E402
from lockshift.transform import transform  # noqa: E402


@dataclass
class FullOutput:
    summary_json: str
    guarded_text: str
    rejected: frozenset[str]
    analyze_s: float
    full_s: float


def full_call(source: str) -> FullOutput:
    """The `full` command: analyze_program + write_summary (timed as
    analyze_s), then transform, check and print (the whole is full_s)."""
    diags = Diagnostics()
    t0 = time.perf_counter()
    result = analyze_program(source, diags=diags)
    summary_json = write_summary(result.lock_summary)
    t1 = time.perf_counter()
    guarded = transform(result.program, result.lock_summary, diags)
    errors = check(guarded, diags)
    text = print_guarded(guarded)
    t2 = time.perf_counter()
    return FullOutput(summary_json, text, frozenset(e.function for e in errors),
                      t1 - t0, t2 - t0)


def check_call(text: str) -> tuple[frozenset[str], float]:
    """The `check` command on guarded text: rejected functions, seconds."""
    t0 = time.perf_counter()
    errors = check(parse_guarded(text))
    return frozenset(e.function for e in errors), time.perf_counter() - t0


def oracle_mismatches(case: gen.Case, summary_json: str, rejected) -> list[str]:
    """Differences between an output and the generator's answer."""
    data = json.loads(summary_json)
    out = []
    if data["global_lock_map"] != case.global_lock_map:
        out.append("global_lock_map %s" % data["global_lock_map"])
    if data["struct_lock_map"] != case.struct_lock_map:
        out.append("struct_lock_map %s" % data["struct_lock_map"])
    fmap = data["function_map"]
    for name, want in case.locks.items():
        got = fmap.get(name, {})
        got = (got.get("entry_lock", []), got.get("return_lock", []))
        if got != want:
            out.append("%s entry/return %s, expected %s" % (name, got, want))
    if rejected != case.rejected:
        out.append("rejected %s, expected %s" % (sorted(rejected), sorted(case.rejected)))
    return out


class Input:
    """One generated input, its reference output and the operation tally.

    The reference is the output of `pipeline.run_pipeline`, untimed; every
    later output for this input must match it byte for byte.
    """

    def __init__(self, case: gen.Case, tally: "Tally"):
        self.case = case
        self.tally = tally
        try:
            result, guarded, errors = run_pipeline(case.source)
        except Exception:
            traceback.print_exc()
            sys.exit("bench: run_pipeline raised on the generated input")
        self.summary_json = write_summary(result.lock_summary)
        self.guarded_text = print_guarded(guarded)
        tally.judge(oracle_mismatches(
            case, self.summary_json, frozenset(e.function for e in errors)))

    def judge_full(self, summary_json: str, text: str, rejected) -> None:
        problems = oracle_mismatches(self.case, summary_json, rejected)
        if summary_json != self.summary_json:
            problems.append("summary JSON differs from run_pipeline's")
        if text != self.guarded_text:
            problems.append("guarded text differs from run_pipeline's")
        self.tally.judge(problems)

    def judge_check(self, rejected) -> None:
        problems = []
        if rejected != self.case.rejected:
            problems.append("check rejected %s, expected %s"
                            % (sorted(rejected), sorted(self.case.rejected)))
        self.tally.judge(problems)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def judge(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print("bench: wrong output: %s" % "; ".join(problems), file=sys.stderr)

    def attempt(self, fn, *args):
        """Run one operation; an exception counts as a failed attempt."""
        try:
            return fn(*args)
        except Exception:
            self.attempted += 1
            self.failed += 1
            if self.failed <= 5:
                traceback.print_exc()
            return None


def fresh() -> None:
    """Sample hygiene, run outside every timed span once the caller has
    dropped the previous sample's results. On a 2,000-function chain,
    keeping the previous result alive put the median full_s at 1.58-2.22 s
    across four processes; releasing it and collecting first gave
    1.39-1.54 s. GC stays enabled inside the timed span."""
    gc.collect()


class _Node:
    __slots__ = ("kind", "kids", "attrs")

    def __init__(self, kind: str, kids: list, attrs: dict):
        self.kind = kind
        self.kids = kids
        self.attrs = attrs


def reference_work() -> float:
    """Seconds to build and walk a fixed graph of small objects, dicts and
    sets, with the collector off. It runs no lockshift code and keeps
    nothing, so it tracks only how fast the machine runs allocation-heavy
    Python like the pipeline's at the moment."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        nodes: list[_Node] = []
        for i in range(20000):
            kids = [nodes[i // 2]] if i else []
            nodes.append(_Node("k%d" % (i & 63), kids, {"line": i, "name": "v%d" % (i & 511)}))
        seen: set[str] = set()
        for n in nodes:
            seen.add(n.attrs["name"])
            n.attrs["held"] = frozenset(seen) if n.attrs["line"] & 1023 == 0 else None
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Scale:
    """Converts measured seconds to seconds at reference speed.

    On a shared 2-core VM the speed given to one process drifted by up to
    +-25% within minutes: across ten seeds the median full_s of a run spread
    by 0.18-0.39 of its median (quartile distance). Each sample is therefore
    scaled by REFERENCE_WORK_S over the mean of reference_work()'s times
    just before and just after the sample. In 8 processes of 15 s on
    wide_body this cut the spread of the median full_s from 0.25 to 0.03.
    A change to lockshift cannot move the reference, so it shows in full
    in the scaled figures.
    """

    def __init__(self) -> None:
        self.before = reference_work()
        self.times: list[float] = [self.before]

    def factor(self) -> float:
        after = reference_work()
        self.times.append(after)
        factor = 2 * REFERENCE_WORK_S / (self.before + after)
        self.before = after
        return factor


def timed_full(inp: Input, scale: Scale, analyze: list[float] | None,
               full: list[float]) -> str | None:
    """One full call; returns the guarded text for the check call."""
    out = inp.tally.attempt(full_call, inp.case.source)
    if out is None:
        return None
    factor = scale.factor()
    inp.judge_full(out.summary_json, out.guarded_text, out.rejected)
    if analyze is not None:
        analyze.append(out.analyze_s * factor)
    full.append(out.full_s * factor)
    return out.guarded_text


def timed_check(inp: Input, scale: Scale, text: str, check_s: list[float]) -> None:
    out = inp.tally.attempt(check_call, text)
    if out is not None:
        check_s.append(out[1] * scale.factor())
        inp.judge_check(out[0])


def setup_probe(workload: str, seed: int, scale: Scale) -> float:
    """Import + input generation in a fresh interpreter, in seconds at
    reference speed."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)],
        capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit("bench: set-up probe failed:\n" + done.stderr)
    return float(done.stdout) * scale.factor()


def peak_mem_mb(inp: Input) -> float:
    """tracemalloc peak during one full call, in MB (10**6 bytes). Tracing
    slows the call several-fold, so this pass is never timed."""
    fresh()
    tracemalloc.start()
    try:
        out = inp.tally.attempt(full_call, inp.case.source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if out is None:
        sys.exit("bench: the peak memory pass failed")
    inp.judge_full(out.summary_json, out.guarded_text, out.rejected)
    return peak / 1e6


def median_of(name: str, values: list[float], unit: str = "s") -> float:
    """Print the sample distribution; return its median."""
    if not values:
        sys.exit("bench: no successful %s sample" % name)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    print("%-18s median %.4f %s  q1 %.4f  q3 %.4f  max %.4f  over %d samples"
          % (name, median, unit, q1, q3, max(values), len(values)))
    return median


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Interleave samples at the workload size, at half of it, and set-up
    probes. Single probes varied by up to 50%, and a burst of probes moved
    with the machine's slower phases, so they are spread over the run."""
    factory, size = gen.WORKLOADS[workload]
    full = Input(factory(size, seed), tally)
    half = Input(factory(size // 2, seed), tally)
    scale = Scale()
    analyze_s, full_s, check_s, half_full_s, setup_s = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        fresh()
        text = timed_full(full, scale, analyze_s, full_s)
        if text is not None:
            fresh()
            timed_check(full, scale, text, check_s)
        text = None
        fresh()
        timed_full(half, scale, None, half_full_s)
        setup_s.append(setup_probe(workload, seed, scale))
        if time.perf_counter() >= deadline:
            break
    median = {name: median_of(name, values) for name, values in (
        ("analyze_s", analyze_s), ("full_s", full_s), ("check_s", check_s),
        ("half-size full_s", half_full_s), ("setup_s", setup_s))}
    metrics = {
        "analyze_s": (median["analyze_s"], "s"),
        "full_s": (median["full_s"], "s"),
        "check_s": (median["check_s"], "s"),
        "scale_2x": (median["full_s"] / median["half-size full_s"], "ratio"),
        "peak_mem_mb": (peak_mem_mb(full), "MB"),
        "setup_s": (median["setup_s"], "s"),
    }
    median_of("reference work", scale.times)
    return metrics


def run_traced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced samples; report the medians of the
    per-layer self times, the counters of the traced samples, and the
    median over adjacent pairs of traced minus untraced full path time."""
    factory, size = gen.WORKLOADS[workload]
    inp = Input(factory(size, seed), tally)
    scale = Scale()
    full_s: list[float] = []
    overhead_s: list[float] = []
    self_s: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    deadline = time.perf_counter() + seconds
    while True:
        fresh()
        untraced_ok = timed_full(inp, scale, None, full_s) is not None
        fresh()
        out = tally.attempt(layers.traced_sample, inp.case.source)
        if out is not None:
            factor = scale.factor()
            inp.judge_full(out.summary_json, out.guarded_text, out.rejected)
            inp.judge_check(out.check_rejected)
            if untraced_ok:
                overhead_s.append(out.full_s * factor - full_s[-1])
            for name, value in out.self_s.items():
                self_s.setdefault(name, []).append(value * factor)
            counts = out.counts
        out = None
        if time.perf_counter() >= deadline:
            break
    median_of("full_s", full_s)
    overhead = median_of("trace overhead", overhead_s)
    median_of("reference work", scale.times)
    metrics = {name: (statistics.median(values), "s") for name, values in self_s.items()}
    total = sum(v for v, _ in metrics.values())
    for name, (value, _) in metrics.items():
        print("%-18s self %.4f s  %5.1f%%" % (name, value, 100 * value / total))
    for name, unit in layers.METRICS.items():
        if unit == "count":
            metrics[name] = (counts[name], unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    return {name: metrics[name] for name in layers.METRICS}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    metrics = run(args.workload, args.seed, args.seconds, tally)
    print("attempted %d operations, failed %d (failed_frac %.4f)"
          % (tally.attempted, tally.failed, tally.failed / max(tally.attempted, 1)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
