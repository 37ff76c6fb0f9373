"""Every output of the pipeline, pinned by digest.

`fixtures/outputs.sha256` holds one line per program: the sha256 of its
summary JSON, guarded text, checker errors and diagnostics, or of the error
it raises. The programs are the fixtures and corpus, the flow cases, seeded
`SccGen` and `ProgramGen` programs and small programs of every bench family;
each guarded fixture is pinned by its checker errors and diagnostics. A
change that alters any output fails here and names the programs it touched.

Regenerate the file with `PYTHONPATH=src python tests/test_outputs_pinned.py`
and say in the change's notes which lines moved and why.
"""
from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

from lockshift.diagnostics import Diagnostics, IterationBudgetExceeded, LockshiftError
from lockshift.guardcheck import check
from lockshift.parser import parse_guarded
from lockshift.pipeline import run_pipeline
from lockshift.printer import print_guarded
from lockshift.summary import write_summary

from helpers import FIXTURES, FLOW_CASES, ProgramGen
from test_scc_reference import SccGen

PINNED = FIXTURES / "outputs.sha256"
GEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
BUDGET = 64


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


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _errors_and_diags(errors, diags: Diagnostics) -> list[str]:
    return (["errors"] + [str(e) for e in errors]
            + ["diagnostics"] + [d.render() for d in diags])


def program_digest(source: str) -> str:
    diags = Diagnostics()
    try:
        result, guarded, errors = run_pipeline(source, BUDGET, diags)
    except LockshiftError as exc:
        return _digest(["error", type(exc).__name__, str(exc)])
    return _digest([write_summary(result.lock_summary), print_guarded(guarded)]
                   + _errors_and_diags(errors, diags))


def guarded_digest(text: str) -> str:
    diags = Diagnostics()
    try:
        errors = check(parse_guarded(text), diags)
    except LockshiftError as exc:
        return _digest(["error", type(exc).__name__, str(exc)])
    return _digest(_errors_and_diags(errors, diags))


def digests() -> dict[str, str]:
    out = {name: program_digest(source) for name, source in programs().items()}
    for p in sorted(FIXTURES.glob("*.gmc")):
        out["gmc/%s" % p.name] = guarded_digest(p.read_text())
    return out


def read_pinned() -> dict[str, str]:
    out = {}
    for line in PINNED.read_text().splitlines():
        digest, name = line.split("  ", 1)
        out[name] = digest
    return out


def test_every_output_matches_its_pinned_digest():
    pinned = read_pinned()
    got = digests()
    assert sorted(got) == sorted(pinned)
    changed = [name for name in got if got[name] != pinned[name]]
    assert changed == []


# The printed outputs that do not parse back: each has a call to which the
# transformer passes only some of its callee's guards (ROADMAP item 1).
UNPARSABLE = {"scc/19", "scc/40", "scc/62"}


def test_every_printed_output_prints_back_unchanged():
    unparsable, exhausted, held = set(), 0, 0
    for name, source in programs().items():
        try:
            text = print_guarded(run_pipeline(source, BUDGET)[1])
        except IterationBudgetExceeded:
            exhausted += 1
            continue
        try:
            program = parse_guarded(text)
        except LockshiftError:
            unparsable.add(name)
            continue
        assert print_guarded(program) == text, name
        held += 1
    assert unparsable == UNPARSABLE
    assert (held, exhausted) == (308, 15)


if __name__ == "__main__":
    PINNED.write_text("".join("%s  %s\n" % (d, name) for name, d in digests().items()))
