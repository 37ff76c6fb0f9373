"""The pinned corpus, and one pipeline run of each of its programs.

`programs()` names every plain-dialect input whose outputs
`fixtures/outputs.sha256` pins: the fixtures and corpus, the flow cases,
seeded `SccGen` and `ProgramGen` programs and small programs of every bench
family. `run_corpus()` parses each once and runs the pipeline on it once,
and keeps what the corpus-wide tests read. The analysis result keeps
no flow graphs or facts, so a run computes them with `lock_sets` the first
time a test reads `PinnedRun.sets`, and keeps them for the session. The
tests get these runs from the session fixture `corpus` (conftest.py); none
may change them.
"""
from __future__ import annotations

import functools
import runpy
from dataclasses import dataclass
from pathlib import Path

from lockshift.ast import Program
from lockshift.diagnostics import (
    Diagnostics,
    LockshiftError,
    NoFixpoint,
    UnsupportedCall,
)
from lockshift.guardcheck import OwnershipError, check
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import AnalysisResult, LockSets, analyze_program, lock_sets
from lockshift.printer import print_guarded
from lockshift.summary import write_summary
from lockshift.transform import transform

from helpers import FIXTURES, FLOW_CASES, ProgramGen
from test_scc_reference import SccGen

GEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


@functools.cache
def programs() -> dict[str, str]:
    """Plain-dialect inputs by name."""
    out = {"mc/%s" % p.relative_to(FIXTURES): p.read_text()
           for p in sorted(FIXTURES.glob("**/*.mc"))}
    for name, source, _ in FLOW_CASES:
        out["flow/%s" % name] = source
    for seed in range(160):
        out["scc/%d" % seed] = SccGen(seed).program()
    for seed in range(100):
        out["gen/%d" % seed] = ProgramGen(seed).program()
    workloads = runpy.run_path(str(GEN_PATH))["WORKLOADS"]
    for family, size in (("call_chain", 12), ("wide_body", 40), ("recursive_rings", 2)):
        for seed in range(1, 5):
            out["bench/%s/%d" % (family, seed)] = workloads[family][0](size, seed).source
    return out


def first_seeds(names, **limits: int) -> list[str]:
    """The names, keeping of each generated kind in limits only its seeds
    below the limit: first_seeds(names, scc=60) keeps scc/0 to scc/59."""
    out = []
    for name in names:
        kind, *_, seed = name.split("/")
        if kind not in limits or int(seed) < limits[kind]:
            out.append(name)
    return out


@dataclass(frozen=True)
class PinnedRun:
    """One program's run: parse, then `run_pipeline`, then the
    printed text parsed back. The texts are those the digests pin. Where
    the transformer refuses the program, the run keeps the analysis: its
    result, summary and diagnostics, and the refusal as its error."""

    source: str
    program: Program | None = None  # None when the source does not parse
    error: LockshiftError | None = None  # raised by parse or the pipeline
    result: AnalysisResult | None = None
    guarded: Program | None = None
    errors: tuple[OwnershipError, ...] = ()
    summary: str = ""  # write_summary of the analysis's lock summary
    printed: str = ""  # print_guarded of the guarded program
    error_texts: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()  # rendered warnings of every phase
    reparsed: Program | None = None  # parse_guarded of the printed text
    reparse_error: LockshiftError | None = None

    @functools.cached_property
    def sets(self) -> LockSets:
        """The flow graphs, call graph and flow facts of the analysis,
        computed again on the first read."""
        return lock_sets(self.program)


def run_program(source: str, program: Program | None = None) -> PinnedRun:
    """The run of source, or of program when given: source parsed already,
    and perhaps altered."""
    if program is None:
        try:
            program = parse(source)
        except LockshiftError as exc:
            return PinnedRun(source, error=exc.with_traceback(None))
    # run_pipeline's phases, one by one, to keep the analysis of a program
    # the transformer refuses.
    diags = Diagnostics()
    try:
        result = analyze_program(program, diags)
    except LockshiftError as exc:
        return PinnedRun(source, program, exc.with_traceback(None))
    summary = write_summary(result.lock_summary)
    try:
        guarded = transform(program, result.lock_summary, diags)
    except UnsupportedCall as exc:
        return PinnedRun(source, program, exc.with_traceback(None), result,
                         summary=summary, diagnostics=tuple(d.render() for d in diags))
    errors = check(guarded)
    printed = print_guarded(guarded)
    reparsed = reparse_error = None
    try:
        reparsed = parse_guarded(printed)
    except LockshiftError as exc:
        reparse_error = exc.with_traceback(None)
    return PinnedRun(
        source, program, None, result, guarded, tuple(errors), summary, printed,
        tuple(str(e) for e in errors), tuple(d.render() for d in diags),
        reparsed, reparse_error)


def run_corpus() -> dict[str, PinnedRun]:
    return {name: run_program(source) for name, source in programs().items()}


def analyzed(runs: dict[str, PinnedRun]):
    """(name, run) for each run whose analysis completed, also where the
    transformer refused it (UnsupportedCall). Runs with no fixpoint are skipped;
    any other error fails the calling test."""
    for name, run in runs.items():
        if isinstance(run.error, NoFixpoint):
            continue
        assert run.error is None or isinstance(run.error, UnsupportedCall), (name, run.error)
        yield name, run


def completed(runs: dict[str, PinnedRun]):
    """(name, run) for each run the pipeline completed."""
    for name, run in analyzed(runs):
        if run.error is None:
            yield name, run
