"""Every output of the pipeline, pinned by digest.

`fixtures/outputs.sha256` holds one line per program: the sha256 of its
summary JSON, guarded text, checker errors and diagnostics, or of the error
it raises. A program the transformer refuses (`UnsupportedCall`) is pinned
by its summary JSON, the refusal and its diagnostics. The programs are the fixtures and corpus, the flow cases, seeded
`SccGen` and `ProgramGen` programs and small programs of every bench family;
each guarded fixture is pinned by its checker errors and diagnostics. A
change that alters any output fails here and names the programs it touched.

The digests are taken from the session's one run of each program
(`corpus.run_corpus`). Regenerate the file from the same runs with
`PYTHONPATH=src python tests/test_outputs_pinned.py` and say in the change's
notes which lines moved and why.
"""
from __future__ import annotations

import hashlib

from lockshift.diagnostics import (
    Diagnostics,
    IterationBudgetExceeded,
    LockshiftError,
    UnsupportedCall,
)
from lockshift.guardcheck import check
from lockshift.parser import parse_guarded
from lockshift.printer import print_guarded

from corpus import PinnedRun, run_corpus
from helpers import FIXTURES

PINNED = FIXTURES / "outputs.sha256"


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _error_parts(exc: LockshiftError) -> list[str]:
    return ["error", type(exc).__name__, str(exc)]


def _error_digest(exc: LockshiftError) -> str:
    return _digest(_error_parts(exc))


def _errors_and_diags(error_texts, diagnostics) -> list[str]:
    return ["errors", *error_texts, "diagnostics", *diagnostics]


def program_digest(run: PinnedRun) -> str:
    if run.error is None:
        return _digest([run.summary, run.printed]
                       + _errors_and_diags(run.error_texts, run.diagnostics))
    if run.result is None:
        return _error_digest(run.error)
    # The transformer refused the program: its analysis is pinned too.
    return _digest([run.summary, *_error_parts(run.error), "diagnostics", *run.diagnostics])


def guarded_digest(text: str) -> str:
    diags = Diagnostics()
    try:
        errors = check(parse_guarded(text), diags)
    except LockshiftError as exc:
        return _error_digest(exc)
    return _digest(_errors_and_diags([str(e) for e in errors],
                                     [d.render() for d in diags]))


def digests(runs: dict[str, PinnedRun]) -> dict[str, str]:
    out = {name: program_digest(run) for name, run in runs.items()}
    for p in sorted(FIXTURES.glob("*.gmc")):
        out["gmc/%s" % p.name] = guarded_digest(p.read_text())
    return out


def read_pinned() -> dict[str, str]:
    out = {}
    for line in PINNED.read_text().splitlines():
        digest, name = line.split("  ", 1)
        out[name] = digest
    return out


def test_every_output_matches_its_pinned_digest(corpus):
    pinned = read_pinned()
    got = digests(corpus)
    assert sorted(got) == sorted(pinned)
    changed = [name for name in got if got[name] != pinned[name]]
    assert changed == []


def test_every_printed_output_prints_back_unchanged(corpus):
    """The written program is the checked program: every printed output
    parses back, prints back the same and gets the same verdict."""
    refused, exhausted, held = 0, 0, 0
    for name, run in corpus.items():
        if isinstance(run.error, IterationBudgetExceeded):
            exhausted += 1
            continue
        if isinstance(run.error, UnsupportedCall):
            refused += 1
            continue
        assert run.error is None and run.reparse_error is None, name
        assert print_guarded(run.reparsed) == run.printed, name
        assert check(run.reparsed) == list(run.errors), name
        held += 1
    assert (held, refused, exhausted) == (218, 93, 15)


# (completed and accepted, checker-rejected, refused, over budget) per family:
# the fixtures and corpus, the flow cases, ProgramGen, the bench families
# and SccGen. A change in precision shows as a diff of this table.
CENSUS = {
    "mc": (44, 1, 0, 0),
    "flow": (9, 0, 0, 0),
    "gen": (56, 44, 0, 0),
    "bench": (8, 4, 0, 0),
    "scc": (5, 47, 93, 15),
}


def test_the_census_of_each_family_is_pinned(corpus):
    census = {family: [0, 0, 0, 0] for family in CENSUS}
    for name, run in corpus.items():
        if isinstance(run.error, IterationBudgetExceeded):
            column = 3
        elif isinstance(run.error, UnsupportedCall):
            column = 2
        else:
            assert run.error is None, name
            column = 1 if run.errors else 0
        census[name.split("/")[0]][column] += 1
    assert {family: tuple(row) for family, row in census.items()} == CENSUS


if __name__ == "__main__":
    PINNED.write_text("".join("%s  %s\n" % (d, name)
                              for name, d in digests(run_corpus()).items()))
