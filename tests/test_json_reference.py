"""Differential test of the JSON writers against the standard encoder.

`summary.write_json` writes the lock maps of the summary and the
`--dump-flow` file; `summary.write_summary` writes the function map itself,
each distinct lock set once. The reference below is what both used before:
`json.dumps(value, indent=2, sort_keys=True)`, which with an indent runs
json's pure-Python encoder. They must give the same bytes as the reference
on the data of every pinned run's summary, on the flow dumps of the dump
programs and on the hand-made values below; values outside dicts, lists,
strings and ints are a TypeError. The hand-made summaries cover what the
function map's writer has to lay out: sets and line maps empty or not,
paths rooted at a parameter, and one set object shared by several
functions.
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


def summary_data(s: LockSummary) -> dict:
    """The value the summary JSON holds: each set a list in path order,
    each line set sorted, functions with nothing to say left out."""
    return {
        "global_lock_map": s.global_lock_map,
        "struct_lock_map": s.struct_lock_map,
        "function_map": {
            name: {"entry_lock": [".".join(p) for p in sorted(fs.entry_lock)],
                   "return_lock": [".".join(p) for p in sorted(fs.return_lock)],
                   "lock_line": {".".join(p): sorted(ls) for p, ls in fs.lock_line.items()}}
            for name, fs in s.function_map.items() if not fs.is_empty()},
    }


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
        assert run.summary == reference(summary_data(run.result.lock_summary)) + "\n", name
        checked += 1
    assert checked > 300


@pytest.mark.parametrize("name", PROGRAMS)
def test_the_flow_dumps_match_the_reference(name):
    program = parse(PROGRAMS[name])
    assert_canonical(_flow_dump(program, lock_sets(program)))


SHARED = locks("m", "w")
SUMMARIES = {
    "empty": LockSummary(),
    "entry-lock-only": LockSummary(function_map={
        "f": FunctionSummary(entry_lock=locks("m", "p.m"))}),
    "nested-struct-maps": LockSummary(
        {"n": "m"}, {"s": {"a": "m", "b": "m2"}, "t": {}},
        {"g": FunctionSummary(locks("m"), locks("m"),
                              {path_of("m"): (1, 3, 12)})}),
    "non-ascii-and-quotes": read_summary(
        '{"global_lock_map": {"é": "a\\"b", "a\\"b": "é"}}'),
    "return-lock-only": LockSummary(function_map={
        "f": FunctionSummary(return_lock=locks("m", "w"))}),
    "lock-line-only": LockSummary(function_map={
        "f": FunctionSummary(lock_line={path_of("m"): (7,)})}),
    "empty-line-set": read_summary('{"function_map": {"f": {"lock_line": {"m": []}}}}'),
    "parameter-rooted": LockSummary(function_map={
        "f": FunctionSummary(locks("p.m", "g"), locks("p.m"),
                             {path_of("p.m"): (4, 5), path_of("g"): (5,)})}),
    "shared-set-object": LockSummary(function_map={
        "f": FunctionSummary(SHARED, SHARED), "g": FunctionSummary(locks(), SHARED),
        "h": FunctionSummary()}),
}


@pytest.mark.parametrize("name", SUMMARIES)
def test_hand_made_summaries_match_the_reference(name):
    text = write_summary(SUMMARIES[name])
    assert_canonical(text)
    assert text == reference(summary_data(SUMMARIES[name])) + "\n"


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
