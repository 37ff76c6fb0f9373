"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Tolerances are pinned here once: criteria 1 through 5 demand exact set,
structural, or byte equality with zero slack; criterion 6 allows the
synthetic 5,000-function pipeline up to PIPELINE_BUDGET_SECONDS of wall
time.
"""
import functools
import time

from lockshift.ast import path_of
from lockshift.guardcheck import check
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import lock_sets, run_pipeline
from lockshift.printer import print_guarded
from lockshift.summary import read_summary, write_summary

from helpers import (
    CALLER_PROVIDES,
    FLOW_CASES,
    ProgramGen,
    chain_program,
    corpus_paths,
    fixture_text,
    locks,
)
from test_oracle import ORACLE_SOURCES, assert_oracle_matches

PIPELINE_BUDGET_SECONDS = 10.0
GENERATOR_SEEDS = range(80)


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print("acceptance criterion %d (%s): FAIL" % (number, label))
                raise
            print("acceptance criterion %d (%s): PASS" % (number, label))
            return result
        return run
    return wrap


@criterion(1, "per-function lock sets match the worked examples")
def test_criterion_1_flow_examples():
    for name, source, expected in FLOW_CASES:
        flow = lock_sets(parse(source)).flow
        for fn_name, (entry, ret) in expected.items():
            facts = flow[fn_name]
            assert facts.mels == locks(*entry), (name, fn_name, "entry")
            assert facts.mrls == locks(*ret), (name, fn_name, "return")
    for name in ("recursive_unlock", "recursive_lock"):
        source = dict((n, s) for n, s, _ in FLOW_CASES)[name]
        assert lock_sets(parse(source)).flow["rec"].scc_iterations <= 2, name


@criterion(2, "counter example yields the reference summary and output")
def test_criterion_2_listing_pipeline():
    result, guarded, errors = run_pipeline(fixture_text("listing1.mc"))
    s = result.lock_summary
    assert s.global_lock_map == {"n": "m"}
    assert s.struct_lock_map == {"s": {"n": "m"}}
    assert s.function("unlock").entry_lock == locks("m")
    assert s.function("lock").return_lock == locks("m")
    assert s.function("foo").lock_line == {path_of("m"): (16, 17)}

    text = print_guarded(guarded)
    assert text == fixture_text("listing1.gmc")
    assert "struct mData { int n; };" in text
    assert "void unlock(guard<m> m_guard)" in text
    assert "guard<m> lock()" in text
    assert "m_guard = lock();" in text
    assert "unlock(m_guard);" in text
    assert "m.get_mut().n" in text
    assert errors == []


@criterion(3, "the corpus is accepted and the failure fixtures are rejected")
def test_criterion_3_guardcheck_acceptance():
    paths = corpus_paths()
    assert len(paths) >= 25, "corpus too small"
    for path in paths:
        _, _, errors = run_pipeline(path.read_text())
        assert errors == [], (path.stem, [str(e) for e in errors])

    _, _, errors = run_pipeline(fixture_text("cond_acq.mc"))
    assert {e.kind for e in errors} == {"UseOfUninit"}

    errors = check(parse_guarded(fixture_text("path_divergent.gmc")))
    assert {e.kind for e in errors} == {"ConflictingPaths"}


@criterion(4, "solver equals brute-force path enumeration")
def test_criterion_4_oracle_equivalence():
    small = 0
    for source in ORACLE_SOURCES:
        assert assert_oracle_matches(source) <= 12
        small += 1
    for seed in GENERATOR_SEEDS:
        if assert_oracle_matches(ProgramGen(seed).program()) <= 12:
            small += 1
    assert small >= 40, "too few small fixtures to call this exhaustive"


@criterion(5, "structural invariants hold on every fixture")
def test_criterion_5_invariants():
    sources = [path.read_text() for path in corpus_paths()]
    sources.append(fixture_text("listing1.mc"))
    sources.append(fixture_text("cond_acq.mc"))
    sources.append(CALLER_PROVIDES)
    sources.extend(source for _, source, _ in FLOW_CASES)
    for source in sources:
        result, guarded, _ = run_pipeline(source)
        flow = lock_sets(result.program).flow
        for name, s in result.lock_summary.function_map.items():
            f = flow[name]
            pls = s.entry_lock - f.mels
            assert f.mels <= s.entry_lock, name
            assert f.mrls <= s.return_lock, name
            assert s.return_lock - f.mrls == pls, name
        text = print_guarded(guarded)
        assert "pthread_mutex_lock" not in text
        assert "pthread_mutex_unlock" not in text
        summary_text = write_summary(result.lock_summary)
        assert write_summary(read_summary(summary_text)) == summary_text


@criterion(6, "a 5,000-function synthetic chain finishes in time")
def test_criterion_6_performance():
    source = chain_program(5000)
    start = time.perf_counter()
    _, _, errors = run_pipeline(source)
    elapsed = time.perf_counter() - start
    assert errors == []
    assert elapsed < PIPELINE_BUDGET_SECONDS, "%.2fs" % elapsed
