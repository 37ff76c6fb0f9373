"""Differential test of the recursive-SCC fixpoint against a reference loop.

`analyze_scc` skips members whose SCC callees did not change since their
last solve. The reference below re-solves every member on every sweep, as
the analysis originally did, so both must agree on everything observable:
summaries, every per-node set, sweep counts, traces, diagnostics, the
summary JSON and the guarded output.

The skip keeps the sweep order on purpose. The joint system is not
monotone: avail_in[entry] is seeded with the member's own MELS, and MELS
depends on callee MRLS through the lock kills, so the fixpoint reached
depends on the order members are solved in. A worklist that reorders the
solves (callees first, or only callers from a queue) can change MELS/MRLS;
on seeded random SCCs such a variant lost a lock from a return set.
"""
from __future__ import annotations

import random

import pytest

from lockshift import flowanalysis
from lockshift.diagnostics import Diagnostics, IterationBudgetExceeded, LockshiftError
from lockshift.flowanalysis import FunctionFlowFacts, analyze_function, flow_sets
from lockshift.pipeline import run_pipeline
from lockshift.printer import print_guarded
from lockshift.summary import write_summary

from helpers import FIXTURES, FLOW_CASES

RANDOM_PROGRAMS = 320
# About one random SCC in thirteen never converges: a return lock keeps
# cycling around the ring. Both loops then raise IterationBudgetExceeded
# after identical traces; a small sweep budget keeps those cases cheap.
# Converging random SCCs take at most 14 sweeps.
RANDOM_BUDGET = 64


def reference_analyze_scc(fns, graphs, outer_facts, budget=1000, diags=None,
                          trace=None):
    """Round-robin joint fixpoint that re-solves every member each sweep.

    It differs from the original loop only in its warnings: those of every
    sweep but the last are dropped, so each converged warning is reported
    once, after the no-base-case warnings.
    """
    current = {}
    for fn in fns:
        seed = FunctionFlowFacts(fn.name, tuple(fn.param_names), mrls=None)
        current[fn.name] = seed
    clamped = set()
    for iteration in range(1, budget + 1):
        changed = False
        sweep = None if diags is None else Diagnostics()
        for fn in fns:
            env = dict(outer_facts)
            env.update(current)
            new = analyze_function(fn, graphs[fn.name], env, sweep)
            old = current[fn.name]
            if new.mels != old.mels or new.mrls != old.mrls:
                changed = True
            current[fn.name] = new
            if trace is not None:
                trace.append((iteration, fn.name, new.mels, new.mrls))
        if not changed:
            stuck = [name for name, f in current.items() if f.mrls is None]
            if stuck:
                for name in stuck:
                    current[name].mrls = frozenset()
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
                diags.extend(sweep)
            return current
    raise IterationBudgetExceeded([fn.name for fn in fns], budget)


def observe(source: str, scc, monkeypatch, budget: int) -> dict:
    """Everything the pipeline yields on source when SCCs are solved by scc."""
    traces = []

    def traced(fns, graphs, outer_facts, budget=1000, diags=None, trace=None):
        sweeps = []
        traces.append(sweeps)
        return scc(fns, graphs, outer_facts, budget, diags, sweeps)

    diags = Diagnostics()
    with monkeypatch.context() as m:
        m.setattr(flowanalysis, "analyze_scc", traced)
        try:
            result, guarded, errors = run_pipeline(source, budget, diags)
        except LockshiftError as exc:
            return {"error": (type(exc).__name__, str(exc)), "traces": traces,
                    "diags": [d.render() for d in diags]}
    flow = {}
    for name, f in result.flow.items():
        g = result.graphs[name]
        all_sets = flow_sets(result.program.function(name), g, result.flow)
        per_node = [[sets[n] for n in g.nodes] for sets in (f.avail_in, *all_sets)]
        flow[name] = (f.mels, f.mrls, f.scc_iterations, per_node)
    return {"flow": flow, "traces": traces,
            "diags": [d.render() for d in diags],
            "summary": write_summary(result.lock_summary),
            "guarded": print_guarded(guarded),
            "errors": [str(e) for e in errors]}


def assert_same(source: str, monkeypatch, label: str, budget: int = 1000) -> dict:
    got = observe(source, flowanalysis.analyze_scc, monkeypatch, budget)
    want = observe(source, reference_analyze_scc, monkeypatch, budget)
    assert got == want, "%s differs from the reference:\n%s" % (label, source)
    return got


class SccGen:
    """Seeded generator of programs around one recursive SCC of 1-6 members.

    Members share the signature (struct s *p, struct s *q, int k) and form a
    ring f0 -> f1 -> ... -> f0, plus random extra calls between members.
    Bodies lock and unlock parameter fields and globals, call members with
    place arguments and with the non-place `get()`, and nest calls in ifs
    and loops. A ring call is guarded by `0 < k` only sometimes, so some
    SCCs have no base case.
    """

    LOCKS = ["p->m", "q->m", "p->w", "g1", "g2", "ga.m"]
    ARGS = ["p", "q", "&ga", "&gb", "get()"]
    ACCESSES = ["p->n = p->n + 1;", "q->n = q->n + 1;", "c = c + 1;",
                "ga.n = ga.n + 1;"]
    # worker and main have no parameters, so they use globals only
    TOP_LOCKS = ["g1", "g2", "ga.m"]
    TOP_ARGS = ["&ga", "&gb", "get()"]
    TOP_ACCESSES = ["c = c + 1;", "ga.n = ga.n + 1;"]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.in_member = True

    def program(self) -> str:
        rng = self.rng
        self.members = rng.randint(1, 6)
        lines = ["struct s { int n; mutex_t m; mutex_t w; };",
                 "struct s ga;", "struct s gb;", "mutex_t g1;", "mutex_t g2;",
                 "int c;", "thread_t t;",
                 "struct s *get() {", "    return &ga;", "}"]
        for i in range(self.members):
            body = self.stmts(1, 4)
            ring = ["    " + self.call((i + 1) % self.members)]
            if rng.random() < 0.5:
                ring = ["    if (0 < k) {", "    " + ring[0], "    }"]
            at = rng.randint(0, len(body))
            lines.append("void f%d(struct s *p, struct s *q, int k) {" % i)
            lines += body[:at] + ring + body[at:]
            lines.append("}")
        self.in_member = False
        lines += ["void worker() {"] + self.stmts(1, 2) + [
            "    " + self.call(rng.randrange(self.members)), "}"]
        lines += ["void main() {", "    pthread_mutex_init(&ga.m);",
                  "    pthread_create(&t, worker);"] + self.stmts(1, 2) + [
            "    " + self.call(0), "}"]
        return "\n".join(lines) + "\n"

    def call(self, callee: int) -> str:
        choices = self.ARGS if self.in_member else self.TOP_ARGS
        args = [self.rng.choice(choices), self.rng.choice(choices)]
        k = self.rng.choice(["k", "k - 1", "3"]) if self.in_member else "3"
        return "f%d(%s, %s, %s);" % (callee, args[0], args[1], k)

    def stmts(self, depth: int, budget: int) -> list[str]:
        out: list[str] = []
        for _ in range(self.rng.randint(1, budget)):
            out += self.stmt(depth)
        return out

    def stmt(self, depth: int) -> list[str]:
        rng = self.rng
        pad = "    " * depth
        roll = rng.random()
        lock = rng.choice(self.LOCKS if self.in_member else self.TOP_LOCKS)
        if roll < 0.25:
            return [pad + "pthread_mutex_lock(&%s);" % lock]
        if roll < 0.5:
            return [pad + "pthread_mutex_unlock(&%s);" % lock]
        if roll < 0.62:
            return [pad + rng.choice(self.ACCESSES if self.in_member
                                     else self.TOP_ACCESSES)]
        if roll < 0.77:
            return [pad + self.call(rng.randrange(self.members))]
        if depth >= 3:
            return [pad + "c = c + 1;"]
        body = self.stmts(depth + 1, 2)
        if roll < 0.84:
            return [pad + "if (c) {", pad + "    return;", pad + "}"]
        if roll < 0.94:
            return [pad + "if (c) {"] + body + [pad + "}"]
        return [pad + "while (c) {"] + body + [pad + "}"]


FIXTURE_PATHS = sorted(FIXTURES.glob("**/*.mc"))


@pytest.mark.parametrize("path", FIXTURE_PATHS,
                         ids=[str(p.relative_to(FIXTURES)) for p in FIXTURE_PATHS])
def test_matches_reference_on_fixtures(path, monkeypatch):
    assert_same(path.read_text(), monkeypatch, str(path.relative_to(FIXTURES)))


@pytest.mark.parametrize("name,source", [(c[0], c[1]) for c in FLOW_CASES],
                         ids=[c[0] for c in FLOW_CASES])
def test_matches_reference_on_flow_cases(name, source, monkeypatch):
    assert_same(source, monkeypatch, name)


def test_matches_reference_on_random_sccs(monkeypatch):
    # Also check that the generated SCCs reach the cases that matter.
    seen = set()
    for seed in range(RANDOM_PROGRAMS):
        gen = SccGen(seed)
        got = assert_same(gen.program(), monkeypatch, "seed %d" % seed,
                          RANDOM_BUDGET)
        if "error" in got:
            seen.add(got["error"][0])
            continue
        members = [got["flow"]["f%d" % i] for i in range(gen.members)]
        seen.add("members=%d" % gen.members)
        if max(iterations for _, _, iterations, _ in members) > 2:
            seen.add("3+ sweeps")
        if any(mels for mels, _, _, _ in members):
            seen.add("entry locks")
        if any(mrls for _, mrls, _, _ in members):
            seen.add("return locks")
        text = " ".join(got["diags"])
        if "no terminating path" in text:
            seen.add("no base case")
        if "is not a place" in text:
            seen.add("non-place argument")
        if got["errors"]:
            seen.add("rejected")
    assert seen >= {"members=%d" % n for n in range(1, 7)} | {
        "IterationBudgetExceeded", "3+ sweeps", "entry locks", "return locks",
        "no base case", "non-place argument", "rejected"}, seen
