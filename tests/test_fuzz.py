"""Seeded token-level fuzzing of both front ends.

Every fixture and corpus program, and the guarded text the pipeline prints
for it, is mutated a few tokens at a time: deletions, duplications and swaps.
Whatever a mutant is, the pipeline and the checker may reject it only with a
LockshiftError, never with any other exception. The outcome of every mutant,
each error's type, message and position included, is pinned by one digest.
A plain mutant the pipeline completes must print a guarded program that
parses back and gets the same checker errors.
"""
from __future__ import annotations

import hashlib
import random

from lockshift.diagnostics import LockshiftError
from lockshift.guardcheck import check
from lockshift.lexer import tokenize
from lockshift.parser import parse_guarded
from lockshift.pipeline import run_pipeline
from lockshift.printer import print_guarded

from helpers import FIXTURES

SEED = 20231
MUTANTS_PER_SOURCE = 20
BUDGET = 64
# SHA-256 of every mutant's outcome, in order: "ok", or
# "type|message|line|col" of the LockshiftError it raised.
OUTCOMES_SHA256 = "ea423f66d0172ab47535a1198e3bfe22b1c73d5607432370e8b0d7c769dec245"


def token_texts(source: str) -> list[tuple[int, str]]:
    tokens = tokenize(source)
    return list(zip(tokens.lines, tokens.values))[:-1]  # all but eof


def mutate(tokens: list[tuple[int, str]], rng: random.Random) -> str:
    """Apply 1-3 random deletions, duplications or swaps; a token keeps its
    line, and a new line starts wherever the line number changes."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        if not tokens:
            break
        i = rng.randrange(len(tokens))
        op = rng.choice(("delete", "duplicate", "swap"))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    out, prev = [], None
    for line, text in tokens:
        out.append(text if prev is None else ("\n" if line != prev else " ") + text)
        prev = line
    return "".join(out) + "\n"


def analyze_and_check(source: str):
    """The guarded program and its checker errors."""
    _, guarded, errors = run_pipeline(source, BUDGET)
    return guarded, errors


def parse_and_check(source: str) -> None:
    check(parse_guarded(source))


def sources(corpus) -> tuple[list[str], list[str]]:
    runs = [run for name, run in corpus.items() if name.startswith("mc/")]
    plain = [run.source for run in runs]
    guarded = [p.read_text() for p in sorted(FIXTURES.glob("**/*.gmc"))]
    guarded += [run.printed for run in runs if run.error is None]
    return plain, guarded


def test_mutants_fail_only_with_lockshift_errors(corpus):
    rng = random.Random(SEED)
    plain, guarded = sources(corpus)
    escapes = []
    outcomes = []
    survivors = []  # (guarded program, checker errors) of completed plain mutants
    tried = 0
    for run, corpus in ((analyze_and_check, plain), (parse_and_check, guarded)):
        for source in corpus:
            tokens = token_texts(source)
            for _ in range(MUTANTS_PER_SOURCE):
                mutant = mutate(tokens, rng)
                tried += 1
                try:
                    survived = run(mutant)
                    outcomes.append("ok")
                    if survived is not None:
                        survivors.append(survived)
                except LockshiftError as exc:
                    outcomes.append("%s|%s|%s|%s" % (
                        type(exc).__name__, getattr(exc, "message", exc),
                        getattr(exc, "line", ""), getattr(exc, "col", "")))
                except Exception as exc:  # noqa: BLE001 - any other escape is the bug
                    escapes.append("%s: %s: %s\n%s"
                                   % (run.__name__, type(exc).__name__, exc, mutant))
    assert tried >= 1500
    assert not escapes, "%d escapes, first:\n%s" % (len(escapes), escapes[0])
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == OUTCOMES_SHA256
    assert len(survivors) == 29
    for guarded, errors in survivors:
        reparsed = parse_guarded(print_guarded(guarded))
        assert check(reparsed) == errors
