"""The phases leave no cyclic garbage, and each public phase entry runs with
the cyclic collector paused, restoring the caller's setting afterwards.

A wall-clock scaling test (time at 4n over time at n) would flake on a
shared machine, so these tests count objects and collector passes instead.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from lockshift.diagnostics import ParseError
from lockshift.guardcheck import check
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import analyze_program, run_pipeline
from lockshift.printer import print_guarded

from corpus import programs
from helpers import FIXTURES, chain_program, corpus_paths


def _programs() -> dict[str, str]:
    paths = corpus_paths() + sorted(FIXTURES.glob("*.mc"))
    out = {p.name: p.read_text() for p in paths}
    for name in ("call_chain", "wide_body", "recursive_rings"):
        out["bench-%s" % name] = programs()["bench/%s/1" % name]
    return out


PROGRAMS = _programs()


@contextmanager
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", PROGRAMS)
def test_phases_leave_no_cyclic_garbage(name):
    """Everything a phase drops is freed by reference counting alone; a
    reference cycle would wait for the collector the phases pause."""
    with collector_off():
        # Objects older than the test, garbage among them, cannot be the
        # phases' garbage; frozen, they are neither counted nor re-scanned
        # by the collects below.
        gc.freeze()
        try:
            _, guarded, _ = run_pipeline(PROGRAMS[name])
            assert gc.collect() == 0, "run_pipeline"
            text = print_guarded(guarded)
            assert gc.collect() == 0, "print_guarded"
            reparsed = parse_guarded(text)
            assert gc.collect() == 0, "parse_guarded"
            check(reparsed)
            assert gc.collect() == 0, "check"
        finally:
            gc.unfreeze()


def test_a_full_and_check_run_takes_few_collector_passes():
    """On a 2,000-function chain the collector ran ~490 times, re-scanning
    the growing program each time, before the phases paused it."""
    source = chain_program(2000)
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        _, guarded, _ = run_pipeline(source)
        check(parse_guarded(print_guarded(guarded)))
    finally:
        gc.callbacks.remove(count)
    assert gc.isenabled()
    assert len(passes) <= 10, "generations collected: %s" % passes


def test_a_caller_that_turned_the_collector_off_keeps_it_off():
    with collector_off():
        run_pipeline(PROGRAMS["bench-call_chain"])
        parse("int n;\n")
        assert not gc.isenabled()


@pytest.mark.parametrize("entry", [parse, analyze_program])
def test_the_collector_is_back_on_after_a_parse_error(entry):
    assert gc.isenabled()
    with pytest.raises(ParseError):
        entry("void f( {\n")
    assert gc.isenabled()
