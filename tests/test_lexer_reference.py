"""Differential test of the tokenizer against a reference scanner.

`lexer.tokenize` splits the source into lines, takes each line's tokens with
one regex `findall` and computes a token's column only on demand. The
reference below is an earlier scanner: one match per token, blank run or
newline over the whole source, tracking the line start by hand. Its only
change is the digit class, `[0-9]` where it had `\\d`, which also matched
non-ASCII digits. Both must give the same (kind, value, line, col) stream,
or fail with the same ParseError message and position, on every input below.
"""
from __future__ import annotations

import importlib.util
import random
import re
import sys
import time

import pytest

from lockshift.ast import KEYWORDS
from lockshift.diagnostics import ParseError
from lockshift.lexer import tokenize
from lockshift.pipeline import run_pipeline
from lockshift.printer import print_guarded

from helpers import FIXTURES

_REFERENCE_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<nl>\n)
    | (?P<comment>//[^\n]*)
    | (?P<int>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>->|==|!=|<=|[{}()\[\];,.&*+\-<>=])
    """,
    re.VERBOSE,
)


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    n = len(source)
    while pos < n:
        m = _REFERENCE_RE.match(source, pos)
        if m is None:
            raise ParseError(
                "unexpected character %r" % source[pos], line, pos - line_start + 1
            )
        pos = m.end()
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = pos
            continue
        if kind in ("ws", "comment"):
            continue
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "ident" and value in KEYWORDS:
            kind = "kw"
        tokens.append((kind, value, line, col))
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


def outcome(scan, source: str):
    try:
        return scan(source)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


def token_tuples(source: str) -> list[tuple[str, str, int, int]]:
    tokens = tokenize(source)
    return [(tokens.kinds[i], tokens.values[i], tokens.lines[i], tokens.col(i))
            for i in range(len(tokens))]


def lexer_outcome(source: str):
    return outcome(token_tuples, source)


def assert_same(source: str) -> None:
    assert lexer_outcome(source) == outcome(reference_tokenize, source), repr(source)


def _load_bench_gen():
    spec = importlib.util.spec_from_file_location(
        "bench_gen", FIXTURES.parent.parent / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def bench_sources() -> list[str]:
    """Small programs of each bench family, plain and printed guarded."""
    gen = _load_bench_gen()
    out = []
    for name, size in (("call_chain", 12), ("wide_body", 40), ("recursive_rings", 2)):
        source = gen.WORKLOADS[name][0](size, 7).source
        _, guarded, _ = run_pipeline(source)
        out += [source, print_guarded(guarded)]
    return out


EDGE_INPUTS = [
    "",
    "int n;",
    "int n;\n",
    "int n;\r\nmutex_t m;\r\n",
    "\tint\tn ;\t\n\t",
    "int n; // trailing comment",
    "int n; //",
    "// only a comment\n",
    "int n;\f\n",
    "int n;\n@\n",
    "int n = ٣;\n",
    "int n = 1٣;\n",
    "xé = 1;",
    "   \n  \n",
    "a->b == c != d <= e < f",
    "a-->b",
    "\r",
    "n = 07 + 12ab;",
]


def test_token_streams_match_on_fixtures_and_corpus():
    paths = sorted(FIXTURES.rglob("*.mc")) + sorted(FIXTURES.rglob("*.gmc"))
    assert len(paths) > 40
    for path in paths:
        assert_same(path.read_text())


def test_token_streams_match_on_bench_programs():
    for source in bench_sources():
        assert_same(source)


@pytest.mark.parametrize("source", EDGE_INPUTS, ids=repr)
def test_token_streams_match_on_edge_inputs(source):
    assert_same(source)


def test_trailing_blanks_lex_in_linear_time():
    # A match that has to fail would rescan a blank run from each of its
    # blanks: quadratic, several seconds for this input.
    source = "int n;" + " \t" * 5000 + "\n" + " " * 10000
    start = time.perf_counter()
    tokens = tokenize(source)
    assert time.perf_counter() - start < 0.5
    eof = len(tokens) - 1
    assert (tokens.kinds[eof], tokens.lines[eof], tokens.col(eof)) == ("eof", 2, 10001)
    assert_same(source)


MUTATION_ALPHABET = "ab_Z09 \t\r\n\f\v/{}()[];,.&*+-<>=!@#\"'٣é "


def test_token_streams_match_on_seeded_mutations():
    rng = random.Random(20261018)
    bases = [(FIXTURES / "listing1.mc").read_text(),
             (FIXTURES / "listing1.gmc").read_text()] + EDGE_INPUTS[1:8]
    for _ in range(3000):
        chars = list(rng.choice(bases))
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, len(chars))
            op = rng.random()
            if op < 0.4 and i < len(chars):
                chars[i] = rng.choice(MUTATION_ALPHABET)
            elif op < 0.7:
                chars.insert(i, rng.choice(MUTATION_ALPHABET))
            elif i < len(chars):
                del chars[i]
        assert_same("".join(chars))
