"""Inference of which lock protects which global or struct field."""

from lockshift.ast import LockPath, data_accesses, iter_stmts
from lockshift.datalock import (
    AccessRecord,
    FieldTarget,
    GlobalTarget,
    candidate_lock,
    collect_accesses,
)
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import analyze_program

from helpers import CORPUS, fixture_text, locks


def records_for(source):
    result = analyze_program(source)
    return collect_accesses(result.program, result.flow, result.summaries,
                            result.graphs)


def accesses_by_line(program):
    """{line: [(kind, expr class, datum text)]} over every statement."""
    out = {}
    for fn in program.functions:
        for st in iter_stmts(fn.body):
            out.setdefault(st.line, []).extend(
                (kind, type(e).__name__, datum.text)
                for kind, e, datum in data_accesses(st))
    return out


def test_data_accesses_order_kinds_and_address_only_operands():
    by_line = accesses_by_line(parse("""\
struct S { int x; mutex_t lk; };
int n;
int *q;
struct S s;
void g(int *a, int *b) { }
int f(struct S *p) {
    n = n + s.x;
    g(&n, &p->x);
    pthread_mutex_lock(&p->lk);
    *q = n;
    p->x = *q;
    while (0 < p->x) { }
    return s.x;
}
"""))
    # The place comes before the value; the base s of s.x is not read.
    assert by_line[7] == [("write", "Var", "n"), ("read", "Var", "n"),
                          ("read", "FieldAccess", "s.x")]
    # Operands of & compute addresses only, and locks hold no data.
    assert by_line[8] == []
    assert by_line[9] == []
    # A dereferenced place keeps the write kind.
    assert by_line[10] == [("write", "Var", "q"), ("read", "Var", "n")]
    assert by_line[11] == [("write", "FieldAccess", "p.x"), ("read", "Var", "q")]
    assert by_line[12] == [("read", "FieldAccess", "p.x")]
    assert by_line[13] == [("read", "FieldAccess", "s.x")]


def test_data_accesses_in_the_guarded_dialect():
    by_line = accesses_by_line(parse_guarded("""\
struct mData { int n; };
mutex<mData> m = mData { n = 0 };
int k;
(int, guard<m>) take(guard<m> g) { return ((*g).n, g); }
void f() { guard<m> m_guard;
    m_guard = m.acquire();
    (k, m_guard) = take(m_guard);
    (_, m_guard) = take(m_guard);
    (*m_guard).n = m.get_mut().n + k;
    drop(m_guard); }
"""))
    # Payload accesses map back to the datum the lock owns.
    assert by_line[4] == [("read", "GuardDeref", "n")]
    assert by_line[6] == []
    # Place targets of a destructuring call are writes; guards and _ are not.
    assert by_line[7] == [("write", "Var", "k")]
    assert by_line[8] == []
    assert by_line[9] == [("write", "GuardDeref", "n"),
                          ("read", "GetMutAccess", "n"), ("read", "Var", "k")]
    assert by_line[10] == []


def verdict_for(result, target):
    for v in result.verdicts:
        if v.target == target:
            return v
    raise AssertionError("no verdict for %r" % (target,))


COUNTER = """\
int n;
int unused;
mutex_t m;
void f() {
    pthread_mutex_lock(&m);
    n = n + 1;
    pthread_mutex_unlock(&m);
}
"""


def test_compound_assignment_yields_one_write_and_one_read():
    recs = [r for r in records_for(COUNTER) if r.target == GlobalTarget("n")]
    assert sorted((r.kind, r.line) for r in recs) == [("read", 6), ("write", 6)]
    assert all(r.held == locks("m") for r in recs)
    assert all(r.function == "f" for r in recs)


def test_lock_operands_are_not_data_accesses():
    assert all(r.target != GlobalTarget("m") for r in records_for(COUNTER))


def test_untouched_global_gets_no_verdict():
    result = analyze_program(COUNTER)
    assert all(v.target != GlobalTarget("unused") for v in result.verdicts)
    assert "unused" not in result.lock_summary.global_lock_map


SURVEY = """\
int n;
int k;
mutex_t m;
int probe(int v) {
    return v;
}
void f() {
    pthread_mutex_lock(&m);
    while (n < 10) {
        n = n + 1;
    }
    probe(k);
    pthread_mutex_unlock(&m);
}
"""


def test_conditions_and_call_arguments_count_as_reads():
    recs = records_for(SURVEY)
    reads = {(r.target, r.kind, r.line) for r in recs}
    assert (GlobalTarget("n"), "read", 9) in reads
    assert (GlobalTarget("k"), "read", 12) in reads
    assert all(r.held == locks("m") for r in recs if r.function == "f")


STRUCT_PAIR = """\
struct s { int n; mutex_t m; };
struct s inst;
void f(struct s *x) {
    pthread_mutex_lock(&x->m);
    x->n = x->n + 1;
    pthread_mutex_unlock(&x->m);
}
void g() {
    f(&inst);
}
"""


def test_field_accesses_record_struct_base_and_held_path():
    recs = records_for(STRUCT_PAIR)
    field = [r for r in recs if isinstance(r.target, FieldTarget)]
    assert {(r.target, r.kind) for r in field} == {
        (FieldTarget("s", LockPath(("x",)), "n"), "write"),
        (FieldTarget("s", LockPath(("x",)), "n"), "read"),
    }
    assert all(r.held == locks("x.m") for r in field)


def test_address_of_bases_touch_no_data():
    recs = records_for(STRUCT_PAIR)
    assert all(r.target != GlobalTarget("inst") for r in recs)


def synthetic(held, kind="read"):
    return AccessRecord("f", 1, locks(*held), GlobalTarget("n"), kind)


def global_path(record, name):
    return LockPath((name,))


def test_candidate_is_the_most_frequently_held_lock():
    recs = [synthetic(["a"]), synthetic(["a", "b"]), synthetic([])]
    assert candidate_lock(recs, ["a", "b"], global_path) == "a"


def test_candidate_tie_breaks_to_the_smaller_name():
    recs = [synthetic(["b"]), synthetic(["a"])]
    assert candidate_lock(recs, ["b", "a"], global_path) == "a"


def test_candidate_absent_when_no_lock_is_ever_held():
    recs = [synthetic([]), synthetic([])]
    assert candidate_lock(recs, ["a", "b"], global_path) is None


READ_ONLY = """\
int n;
int out;
mutex_t m;
void f() {
    pthread_mutex_lock(&m);
    out = n;
    pthread_mutex_unlock(&m);
}
"""


def test_protection_requires_a_write_under_the_lock():
    result = analyze_program(READ_ONLY)
    assert result.lock_summary.global_lock_map == {"out": "m"}
    v = verdict_for(result, GlobalTarget("n"))
    assert v.candidate == "m"
    assert not v.protected


MIXED_GUARDS = """\
int n;
mutex_t a;
mutex_t b;
void f() {
    pthread_mutex_lock(&a);
    n = n + 1;
    n = n + 2;
    pthread_mutex_unlock(&a);
}
void g() {
    pthread_mutex_lock(&b);
    n = 5;
    pthread_mutex_unlock(&b);
}
"""


def test_argmax_picks_the_dominant_lock_and_tolerates_sequential_outliers():
    result = analyze_program(MIXED_GUARDS)
    assert result.lock_summary.global_lock_map == {"n": "a"}
    v = verdict_for(result, GlobalTarget("n"))
    assert v.protected
    assert [r.function for r in v.unsafe_accesses] == ["g"]


SPAWNED_HELPER = """\
int n;
mutex_t m;
thread_t t;
void scribble() {
    n = 7;
}
void worker() {
    pthread_mutex_lock(&m);
    n = n + 1;
    pthread_mutex_unlock(&m);
    scribble();
}
void main() {
    pthread_create(&t, worker);
}
"""


def test_unsafe_access_reachable_from_a_thread_entry_defeats_protection():
    result = analyze_program(SPAWNED_HELPER)
    assert result.lock_summary.global_lock_map == {}
    v = verdict_for(result, GlobalTarget("n"))
    assert v.candidate == "m"
    assert not v.protected
    assert "scribble" in {r.function for r in v.unsafe_accesses}


def test_unreachable_from_threads_means_sequential():
    source = (CORPUS / "main_only_unsafe.mc").read_text()
    result = analyze_program(source)
    assert result.lock_summary.global_lock_map == {"n": "m"}


def test_direct_unguarded_write_in_a_worker_defeats_protection():
    source = (CORPUS / "unprotected_concurrent.mc").read_text()
    result = analyze_program(source)
    assert result.lock_summary.global_lock_map == {}


INIT_IN_WORKER = """\
struct box { int n; mutex_t m; };
struct box inst;
thread_t t;
void worker() {
    pthread_mutex_init(&inst.m);
    inst.n = 0;
    pthread_mutex_lock(&inst.m);
    inst.n = inst.n + 1;
    pthread_mutex_unlock(&inst.m);
}
void main() {
    pthread_create(&t, worker);
}
"""


def test_field_init_makes_the_bare_access_non_concurrent():
    result = analyze_program(INIT_IN_WORKER)
    assert result.lock_summary.struct_lock_map == {"box": {"n": "m"}}


INIT_OTHER_BASE = """\
struct box { int n; mutex_t m; };
struct box inst;
struct box other;
thread_t t;
void worker() {
    pthread_mutex_init(&other.m);
    inst.n = 0;
    pthread_mutex_lock(&inst.m);
    inst.n = inst.n + 1;
    pthread_mutex_unlock(&inst.m);
}
void main() {
    pthread_create(&t, worker);
}
"""


def test_init_on_a_different_base_path_does_not_excuse_the_access():
    result = analyze_program(INIT_OTHER_BASE)
    assert result.lock_summary.struct_lock_map == {}
    v = verdict_for(result, ("box", "n"))
    assert v.candidate == "m"
    assert not v.protected


GLOBAL_INIT_NO_RESCUE = """\
int n;
mutex_t m;
thread_t t;
void worker() {
    pthread_mutex_init(&m);
    n = 0;
    pthread_mutex_lock(&m);
    n = n + 1;
    pthread_mutex_unlock(&m);
}
void main() {
    pthread_create(&t, worker);
}
"""


def test_the_init_excuse_applies_to_struct_fields_only():
    result = analyze_program(GLOBAL_INIT_NO_RESCUE)
    assert result.lock_summary.global_lock_map == {}


GLOBAL_LOCK_ON_FIELD = """\
struct box { int n; };
struct box inst;
mutex_t m;
void f() {
    pthread_mutex_lock(&m);
    inst.n = inst.n + 1;
    pthread_mutex_unlock(&m);
}
"""


def test_field_candidates_come_only_from_sibling_lock_fields():
    result = analyze_program(GLOBAL_LOCK_ON_FIELD)
    assert result.lock_summary.struct_lock_map == {}
    v = verdict_for(result, ("box", "n"))
    assert v.candidate is None
    assert not v.protected


def test_counter_example_yields_both_maps():
    result = analyze_program(fixture_text("listing1.mc"))
    assert result.lock_summary.global_lock_map == {"n": "m"}
    assert result.lock_summary.struct_lock_map == {"s": {"n": "m"}}


def test_protected_verdicts_keep_their_bookkeeping_invariants():
    for source in (COUNTER, MIXED_GUARDS, INIT_IN_WORKER):
        result = analyze_program(source)
        for v in result.verdicts:
            if v.protected:
                assert v.candidate is not None
