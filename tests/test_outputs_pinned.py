"""Every output of the pipeline, pinned by digest.

`fixtures/outputs.sha256` holds one line per program: the sha256 of its
summary JSON, guarded text, checker errors and diagnostics, or of the error
it raises. A program the transformer refuses (`UnsupportedCall`) is pinned
by its summary JSON, the refusal and its diagnostics. The programs are the fixtures and corpus, the flow cases, seeded
`SccGen` and `ProgramGen` programs and small programs of every bench family;
each guarded fixture is pinned by its checker errors and diagnostics. A
change that alters any output fails here and names the programs it touched.

`fixtures/outputs.ledger` says the same thing readably, one line per
program: its census column (with the refusal's reason and line, the
checker's error kinds with their counts, the rule that proved a fixpoint
does not exist, or the error raised), its
warnings counted by kind, and the sizes of its two lock maps. A moved
digest then reads as a diff of its ledger line.

The digests and the ledger are taken from the session's one run of each
program (`corpus.run_corpus`). Regenerate both files from the same runs with
`PYTHONPATH=src python tests/test_outputs_pinned.py`, which prints each
program whose digest moved with its old and new ledger lines, and say in
the change's notes which lines moved and why.
"""
from __future__ import annotations

import hashlib
from collections import Counter

from lockshift.diagnostics import (
    Diagnostics,
    LockshiftError,
    NoFixpoint,
    UnsupportedCall,
)
from lockshift.guardcheck import check
from lockshift.parser import parse_guarded
from lockshift.printer import print_guarded

from corpus import PinnedRun, run_corpus
from helpers import FIXTURES

PINNED = FIXTURES / "outputs.sha256"
LEDGER = FIXTURES / "outputs.ledger"


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


# The kind of each warning, by a phrase of its message. A message that
# matches none fails the ledger, so a new kind of warning gets a name here.
_WARNING_KINDS = (
    ("unreachable statement", "unreachable"),
    ("has no terminating path", "no-terminating-path"),
    ("is not a place", "not-a-place"),
    ("has no parameter image", "no-parameter-image"),
    ("is unconstrained", "unconstrained-entry"),
    ("is invoked from outside", "external"),
    ("payload struct name", "struct-renamed"),
    ("guard name", "guard-renamed"),
)

# The reason of each refusal (UnsupportedCall), by a phrase of its message.
_REFUSALS = (("inside an expression", "inside an expression"),
             ("is not a place", "not a place"))

# The rule that proved a fixpoint does not exist (NoFixpoint), by its reason.
_NO_FIXPOINT = (("starts where", "cycle"), ("is longer than", "growth"))


def _kind(text: str, kinds) -> str:
    for phrase, kind in kinds:
        if phrase in text:
            return kind
    raise AssertionError("no ledger kind for %r" % text)


def _counts(kinds) -> str:
    return ", ".join("%s %d" % kv for kv in sorted(Counter(kinds).items()))


def _warnings(diagnostics) -> str:
    return "warnings " + (_counts(_kind(d, _WARNING_KINDS) for d in diagnostics)
                          or "none")


def _verdict(errors) -> str:
    if not errors:
        return "accepted"
    return "rejected (%s)" % _counts(e.kind for e in errors)


def program_line(run: PinnedRun) -> str:
    """The census column, the warnings and the lock-map sizes of run."""
    if isinstance(run.error, NoFixpoint):
        return "no fixpoint (%s: %s)" % (_kind(run.error.reason, _NO_FIXPOINT),
                                         run.error.reason)
    if run.result is None:
        return "error (%s, line %d)" % (type(run.error).__name__, run.error.line)
    if run.error is None:
        column = _verdict(run.errors)
    else:
        column = "refused (%s, line %d)" % (_kind(str(run.error), _REFUSALS),
                                            run.error.line)
    ls = run.result.lock_summary
    return "%s; %s; maps %d globals, %d fields" % (
        column, _warnings(run.diagnostics), len(ls.global_lock_map),
        sum(map(len, ls.struct_lock_map.values())))


def guarded_line(text: str) -> str:
    """The checker's verdict on a guarded program, and its warnings."""
    diags = Diagnostics()
    try:
        errors = check(parse_guarded(text), diags)
    except LockshiftError as exc:
        return "error (%s)" % type(exc).__name__
    return "%s; %s" % (_verdict(errors), _warnings(d.render() for d in diags))


def ledger(runs: dict[str, PinnedRun]) -> dict[str, str]:
    out = {name: program_line(run) for name, run in runs.items()}
    for p in sorted(FIXTURES.glob("*.gmc")):
        out["gmc/%s" % p.name] = guarded_line(p.read_text())
    return out


def read_ledger() -> dict[str, str]:
    out = {}
    for line in LEDGER.read_text().splitlines():
        name, entry = line.split(": ", 1)
        out[name] = entry
    return out


def test_every_output_matches_its_pinned_digest(corpus):
    pinned = read_pinned()
    got = digests(corpus)
    assert sorted(got) == sorted(pinned)
    changed = [name for name in got if got[name] != pinned[name]]
    assert changed == []


def test_every_program_matches_its_ledger_line(corpus):
    pinned = read_ledger()
    got = ledger(corpus)
    assert sorted(got) == sorted(pinned)
    changed = ["%s: %s -> %s" % (name, pinned[name], got[name])
               for name in got if got[name] != pinned[name]]
    assert changed == []


def test_every_printed_output_prints_back_unchanged(corpus):
    """The written program is the checked program: every printed output
    parses back, prints back the same and gets the same verdict."""
    refused, exhausted, held = 0, 0, 0
    for name, run in corpus.items():
        if isinstance(run.error, NoFixpoint):
            exhausted += 1
            continue
        if isinstance(run.error, UnsupportedCall):
            refused += 1
            continue
        assert run.error is None and run.reparse_error is None, name
        assert print_guarded(run.reparsed) == run.printed, name
        assert check(run.reparsed) == list(run.errors), name
        held += 1
    assert (held, refused, exhausted) == (220, 91, 15)


# (completed and accepted, checker-rejected, refused, no fixpoint) per family:
# the fixtures and corpus, the flow cases, ProgramGen, the bench families
# and SccGen. A change in precision shows as a diff of this table.
CENSUS = {
    "mc": (44, 1, 0, 0),
    "flow": (9, 0, 0, 0),
    "gen": (56, 44, 0, 0),
    "bench": (8, 4, 0, 0),
    "scc": (6, 48, 91, 15),
}


def test_the_census_of_each_family_is_pinned(corpus):
    census = {family: [0, 0, 0, 0] for family in CENSUS}
    for name, run in corpus.items():
        if isinstance(run.error, NoFixpoint):
            column = 3
        elif isinstance(run.error, UnsupportedCall):
            column = 2
        else:
            assert run.error is None, name
            column = 1 if run.errors else 0
        census[name.split("/")[0]][column] += 1
    assert {family: tuple(row) for family, row in census.items()} == CENSUS


if __name__ == "__main__":
    old_digests, old_lines = read_pinned(), read_ledger()
    runs = run_corpus()
    new_digests, new_lines = digests(runs), ledger(runs)
    PINNED.write_text("".join("%s  %s\n" % (d, name)
                              for name, d in new_digests.items()))
    LEDGER.write_text("".join("%s: %s\n" % (name, entry)
                              for name, entry in new_lines.items()))
    moved = [name for name in {**old_digests, **new_digests}
             if old_digests.get(name) != new_digests.get(name)]
    for name in moved:
        print("%s\n  - %s\n  + %s" % (name, old_lines.get(name, "(none)"),
                                      new_lines.get(name, "(none)")))
    print("%d digests moved" % len(moved))
