"""Metamorphic tests (Chen et al., ACM CSUR 2018): a change to a program
that keeps its meaning must keep the analysis's results.

Definition order. Functions may call each other in any textual order, so
reversing the function definitions of a pinned program must keep its
summary JSON and its checker verdict. The exceptions are pinned: recursive
SCCs whose joint fixpoint depends on the order its members are swept in,
which is the call graph's discovery order and so follows the definitions.
ROADMAP.md's convergent, order-independent SCC fixpoint would empty the
list.
"""
from __future__ import annotations

from lockshift.parser import parse

from corpus import analyzed, run_program

# scc/85's checker verdict changes too.
ORDER_DEPENDENT = {"scc/16", "scc/54", "scc/81", "scc/85", "scc/111"}


def _outcome(run) -> tuple:
    """The summary JSON and the checker verdict: the checker's errors, or
    the kind of error that stopped the pipeline. Both walk the functions
    in definition order, so the errors are compared as a set and only a
    refusal's kind, not the call it names first."""
    return run.summary, sorted(run.error_texts), type(run.error).__name__


def test_reversing_the_function_definitions_keeps_summary_and_verdict(corpus):
    changed = set()
    checked = 0
    for name, run in analyzed(corpus):
        program = parse(run.source)
        program.functions.reverse()
        if _outcome(run_program(run.source, program)) != _outcome(run):
            changed.add(name)
        checked += 1
    assert checked > 300
    assert changed == ORDER_DEPENDENT
