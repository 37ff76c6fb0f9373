"""Rewriting plain programs into the guarded dialect."""

import pytest

from lockshift.ast import LockPath
from lockshift.diagnostics import SummaryMismatch
from lockshift.guardcheck import check
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import run_pipeline
from lockshift.printer import print_guarded, print_source
from lockshift.summary import read_summary
from lockshift.transform import access_multiset, guard_name_for, transform

from helpers import CORPUS, corpus_paths, fixture_text


def pipeline_text(source):
    result, guarded, errors = run_pipeline(source)
    return result, guarded, errors, print_guarded(guarded)


def test_counter_example_matches_the_golden_output():
    result, guarded, errors, text = pipeline_text(fixture_text("listing1.mc"))
    assert errors == []
    assert text == fixture_text("listing1.gmc")


def test_guard_names_flatten_the_lock_path():
    assert guard_name_for(LockPath(("m",))) == "m_guard"
    assert guard_name_for(LockPath(("x", "m"))) == "x_m_guard"


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_lock_api_calls_never_survive(path):
    _, _, _, text = pipeline_text(path.read_text())
    assert "pthread_mutex_lock" not in text
    assert "pthread_mutex_unlock" not in text
    assert "pthread_mutex_init" not in text


def test_thread_creation_survives():
    _, _, _, text = pipeline_text((CORPUS / "thread_create.mc").read_text())
    assert "pthread_create(&t1, worker);" in text
    assert "pthread_create(&t2, worker);" in text


def test_lock_free_programs_come_through_untouched():
    result, guarded, errors, text = pipeline_text(
        (CORPUS / "lock_free.mc").read_text())
    assert errors == []
    assert text == print_source(result.program)


@pytest.mark.parametrize(
    "name",
    ["inc_global", "two_locks_split", "guard_args_chain",
     "access_in_call_args", "state_machine"],
)
def test_every_data_access_is_preserved(name):
    result, guarded, _, _ = pipeline_text((CORPUS / (name + ".mc")).read_text())
    assert access_multiset(guarded) == access_multiset(result.program)


def test_access_bookkeeping_maps_guards_back_to_their_data():
    result, guarded, _, _ = pipeline_text(fixture_text("listing1.mc"))
    assert access_multiset(guarded) == access_multiset(result.program)


def test_taking_the_address_of_a_protected_global_is_not_an_access():
    result, guarded, _, text = pipeline_text("""\
mutex_t m;
int n;
thread_t t;
void set(int *p) { *p = 1; }
void w() {
    pthread_mutex_lock(&m);
    set(&n);
    n = n + 1;
    pthread_mutex_unlock(&m);
}
void main() { pthread_create(&t, w); }
""")
    assert "set(&(*m_guard).n" in text
    assert access_multiset(guarded) == access_multiset(result.program)
    assert check(parse_guarded(text)) == []


def test_protected_globals_move_into_the_mutex_with_their_initializers():
    _, _, _, text = pipeline_text((CORPUS / "global_inits.mc").read_text())
    assert "struct mData { int n; };" in text
    assert "mutex<mData> m = mData { n = 5 };" in text
    assert "int k = 2;" in text
    assert "int n = 5;" not in text


def test_colliding_guard_names_get_a_suffix():
    result, _, errors, text = pipeline_text(
        (CORPUS / "shadow_name.mc").read_text())
    assert errors == []
    assert "m_guard2 = m.acquire();" in text
    assert "drop(m_guard2);" in text
    assert any("renamed m_guard2" in d.message
               for d in result.diagnostics)


def test_colliding_payload_struct_names_get_a_suffix():
    result, _, errors, text = pipeline_text(
        (CORPUS / "payload_name.mc").read_text())
    assert errors == []
    assert "struct mData { int k; };" in text
    assert "struct mData2 { int n; };" in text
    assert "mutex<mData2> m = mData2 { n = 0 };" in text
    assert [d.message for d in result.diagnostics] == [
        "payload struct name mData taken; using mData2"]
    assert check(parse_guarded(text)) == []


def test_unprotected_mutexes_keep_plain_declarations_but_still_yield_guards():
    _, _, errors, text = pipeline_text(
        (CORPUS / "unprotected_concurrent.mc").read_text())
    assert errors == []
    assert "mutex_t m;" in text
    assert "m_guard = m.acquire();" in text
    assert "mutex<" not in text


EXTERNAL_UNLOCK = """\
int n;
mutex_t m;
void main() {
    pthread_mutex_unlock(&m);
}
"""


def test_externally_invoked_functions_keep_their_signatures():
    result, _, errors, text = pipeline_text(EXTERNAL_UNLOCK)
    assert "void main() {" in text
    assert "main(guard" not in text
    assert any("invoked from outside" in d.message for d in result.diagnostics)
    assert [e.kind for e in errors] == ["UseOfUninit"]


INHERITED_CALL_ARG = """\
int n;
mutex_t m;
int twice(int v) {
    return v + v;
}
void bump() {
    pthread_mutex_lock(&m);
    n = twice(n);
    pthread_mutex_unlock(&m);
}
"""


def test_guard_threading_through_a_self_feeding_call_is_rejected():
    result, _, errors, text = pipeline_text(INHERITED_CALL_ARG)
    assert "((*m_guard).n, m_guard) = twice((*m_guard).n, m_guard);" in text
    assert [(e.kind, e.function) for e in errors] == [("UseAfterMove", "bump")]


def test_summaries_for_some_other_program_are_refused():
    program = parse(EXTERNAL_UNLOCK)
    stray = read_summary('{"global_lock_map": {"ghost": "m"}}')
    with pytest.raises(SummaryMismatch):
        transform(program, stray)
