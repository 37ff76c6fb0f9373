"""Differential test of the JSON writer against the standard encoder.

`summary.write_json` writes the lock summary and the `--dump-flow` file. The
reference below is what both used before: `json.dumps(value, indent=2,
sort_keys=True)`, which with an indent runs json's pure-Python encoder.
Both must give the same bytes on every pinned run's summary, on the flow
dumps of the dump programs and on the hand-made values below; values
outside dicts, lists, strings and ints are a TypeError.
"""
from __future__ import annotations

import json

import pytest

from lockshift.ast import path_of
from lockshift.cli import _flow_dump
from lockshift.parser import parse
from lockshift.pipeline import lock_sets
from lockshift.summary import (
    FunctionSummary,
    LockSummary,
    read_summary,
    write_json,
    write_summary,
)

from corpus import analyzed
from helpers import locks
from test_dumps import PROGRAMS


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def assert_canonical(text: str) -> None:
    """text is the reference's rendering of what it holds, plus a newline,
    and write_json renders the same value to the same bytes."""
    value = json.loads(text)
    assert write_json(value) == reference(value)
    assert text == reference(value) + "\n"


def test_every_pinned_summary_matches_the_reference(corpus):
    checked = 0
    for name, run in analyzed(corpus):
        assert run.summary, name
        assert_canonical(run.summary)
        checked += 1
    assert checked > 300


@pytest.mark.parametrize("name", PROGRAMS)
def test_the_flow_dumps_match_the_reference(name):
    program = parse(PROGRAMS[name])
    assert_canonical(_flow_dump(program, lock_sets(program)))


SUMMARIES = {
    "empty": LockSummary(),
    "entry-lock-only": LockSummary(function_map={
        "f": FunctionSummary(entry_lock=locks("m", "p.m"))}),
    "nested-struct-maps": LockSummary(
        {"n": "m"}, {"s": {"a": "m", "b": "m2"}, "t": {}},
        {"g": FunctionSummary(locks("m"), locks("m"),
                              {path_of("m"): frozenset([3, 1, 12])})}),
    "non-ascii-and-quotes": read_summary(
        '{"global_lock_map": {"é": "a\\"b", "a\\"b": "é"}}'),
}


@pytest.mark.parametrize("name", SUMMARIES)
def test_hand_made_summaries_match_the_reference(name):
    assert_canonical(write_summary(SUMMARIES[name]))


@pytest.mark.parametrize("value", [
    {}, [], "", 0, -7, 2 ** 70, [[], {}], {"b": [1, [2, []]], "a": {"c": {}}},
    "\u00e9 \u2028 \U0001f600", "tab\tnewline\ncontrol\x00\x1f quote\" backslash\\",
], ids=repr)
def test_values_match_the_reference(value):
    assert write_json(value) == reference(value)


@pytest.mark.parametrize("value", [True, 1.5, None, [False], {"k": None}, (1,), {1: 2}],
                         ids=repr)
def test_other_values_are_a_type_error(value):
    with pytest.raises(TypeError):
        write_json(value)
