"""Ownership checking of guard variables in the guarded dialect."""

from lockshift.diagnostics import Diagnostics
from lockshift.guardcheck import check
from lockshift.parser import parse_guarded

from corpus import completed
from helpers import fixture_text

HEADER = """\
struct mData { int n; };
mutex<mData> m = mData { n = 0 };
int b;
int k;
"""


def errors_in(body):
    return check(parse_guarded(HEADER + body))


def test_the_golden_output_is_accepted():
    assert check(parse_guarded(fixture_text("listing1.gmc"))) == []


def test_dereferencing_an_unacquired_guard_is_uninitialized_use():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    (*m_guard).n = 1;\n"
        "}\n")
    assert [(e.kind, e.guard, e.function, e.line) for e in errs] == [
        ("UseOfUninit", "m_guard", "f", 6)]


def test_dropping_an_unacquired_guard_is_uninitialized_use():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    drop(m_guard);\n"
        "}\n")
    assert [(e.kind, e.line) for e in errs] == [("UseOfUninit", 6)]


def test_use_after_drop_is_a_move_error():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    m_guard = m.acquire();\n"
        "    drop(m_guard);\n"
        "    (*m_guard).n = 1;\n"
        "}\n")
    assert [(e.kind, e.line) for e in errs] == [("UseAfterMove", 8)]


def test_double_drop_is_a_move_error():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    m_guard = m.acquire();\n"
        "    drop(m_guard);\n"
        "    drop(m_guard);\n"
        "}\n")
    assert [(e.kind, e.line) for e in errs] == [("UseAfterMove", 8)]


def test_conditional_acquisition_conflicts_at_the_join():
    errs = check(parse_guarded(fixture_text("path_divergent.gmc")))
    assert [(e.kind, e.guard, e.function, e.line) for e in errs] == [
        ("ConflictingPaths", "m_guard", "f", 7)]


def test_acquire_and_release_inside_a_loop_is_fine():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    while (b) {\n"
        "        m_guard = m.acquire();\n"
        "        (*m_guard).n = (*m_guard).n + 1;\n"
        "        drop(m_guard);\n"
        "    }\n"
        "}\n")
    assert errs == []


def test_overwriting_an_owned_guard_is_not_a_use():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    m_guard = m.acquire();\n"
        "    m_guard = m.acquire();\n"
        "    drop(m_guard);\n"
        "}\n")
    assert errs == []


def test_guard_parameters_start_out_owned():
    errs = errors_in(
        "void callee(guard<m> m_guard) {\n"
        "    drop(m_guard);\n"
        "}\n")
    assert errs == []


def test_passing_a_guard_to_a_call_consumes_it():
    errs = errors_in(
        "void callee(guard<m> g2) {\n"
        "    drop(g2);\n"
        "}\n"
        "void f() { guard<m> m_guard;\n"
        "    m_guard = m.acquire();\n"
        "    callee(m_guard);\n"
        "    drop(m_guard);\n"
        "}\n")
    assert [(e.kind, e.line) for e in errs] == [("UseAfterMove", 11)]


def test_returning_a_guard_consumes_it_cleanly():
    errs = errors_in(
        "guard<m> lock() { guard<m> m_guard;\n"
        "    m_guard = m.acquire();\n"
        "    return m_guard;\n"
        "}\n")
    assert errs == []


def test_tuple_call_results_rebind_the_guard_after_the_arguments_move():
    errs = errors_in(
        "(int, guard<m>) pop(guard<m> m_guard) {\n"
        "    return ((*m_guard).n, m_guard);\n"
        "}\n"
        "void f() { guard<m> m_guard;\n"
        "    m_guard = m.acquire();\n"
        "    (k, m_guard) = pop(m_guard);\n"
        "    drop(m_guard);\n"
        "}\n")
    assert errs == []


def test_errors_are_ordered_by_line():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    (*m_guard).n = 1;\n"
        "    (*m_guard).n = 2;\n"
        "}\n")
    assert [e.line for e in errs] == [6, 7]
    assert {e.kind for e in errs} == {"UseOfUninit"}


def test_repeated_hits_in_a_loop_are_reported_once():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    while (b) {\n"
        "        (*m_guard).n = 1;\n"
        "    }\n"
        "}\n")
    assert len(errs) == 1
    assert errs[0].kind == "UseOfUninit"


def test_acquiring_on_every_path_satisfies_the_join():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    if (b) {\n"
        "        m_guard = m.acquire();\n"
        "    } else {\n"
        "        m_guard = m.acquire();\n"
        "    }\n"
        "    drop(m_guard);\n"
        "}\n")
    assert errs == []


def test_errors_render_with_their_location():
    errs = errors_in(
        "void f() { guard<m> m_guard;\n"
        "    drop(m_guard);\n"
        "}\n")
    assert str(errs[0]) == "UseOfUninit: m_guard at f line 6"


def test_the_checker_warns_about_the_dead_code_the_analysis_found(corpus):
    # run_pipeline and `full` drop the checker's warnings as repeats of
    # these, so they must be the same warnings, in the same order.
    dead = 0
    for name, run in completed(corpus):
        diags = Diagnostics()
        check(run.guarded, diags)
        want = [d for d in run.diagnostics if "unreachable statement" in d]
        assert [d.render() for d in diags] == want, name
        dead += bool(want)
    assert dead >= 15
