"""Metamorphic tests (Chen et al., ACM CSUR 2018): a change to a program
that keeps its meaning must keep the analysis's results.

Definition order. Functions may call each other in any textual order, so
reversing the function definitions of a pinned program must keep its
summary JSON, its checker verdict and the guards each function lends.
The exceptions are pinned: recursive SCCs whose joint fixpoint depends on
the order its members are swept in, which is the call graph's discovery
order and so follows the definitions. ROADMAP.md's convergent,
order-independent SCC fixpoint would empty the list.
"""
from __future__ import annotations

from lockshift.parser import parse

from corpus import analyzed, completed, run_program

# scc/85's checker verdict changes too.
ORDER_DEPENDENT = {"scc/16", "scc/54", "scc/81", "scc/85", "scc/111"}


def _outcome(run) -> tuple:
    """The summary JSON and the checker verdict: the checker's errors, or
    the kind of error that stopped the pipeline. Both walk the functions
    in definition order, so the errors are compared as a set and only a
    refusal's kind, not the call it names first."""
    return run.summary, sorted(run.error_texts), type(run.error).__name__


def _reversed(run):
    """The run of run's source with its function definitions reversed."""
    program = parse(run.source)
    program.functions.reverse()
    return run_program(run.source, program)


def test_reversing_the_function_definitions_keeps_summary_and_verdict(corpus):
    changed = set()
    checked = 0
    for name, run in analyzed(corpus):
        if _outcome(_reversed(run)) != _outcome(run):
            changed.add(name)
        checked += 1
    assert checked > 300
    assert changed == ORDER_DEPENDENT


def _lent(program) -> dict[str, frozenset]:
    """The lock paths of each function's lent guard parameters."""
    return {fn.name: frozenset(q.ty.path for q in fn.params if q.ty.lent)
            for fn in program.functions}


def test_reversing_the_function_definitions_keeps_what_each_function_lends(corpus):
    """Lending is the greatest fixpoint over the call graph, and the order
    in which the transformer visits functions cannot move it. The counts
    are of the corpus: programs, and lent guard parameters."""
    checked = lent = 0
    for name, run in completed(corpus):
        if name in ORDER_DEPENDENT:
            continue
        flipped = _reversed(run)
        assert flipped.error is None, name
        want = _lent(run.guarded)
        assert _lent(flipped.guarded) == want, name
        checked += 1
        lent += sum(map(len, want.values()))
    assert (checked, lent) == (220, 86)
