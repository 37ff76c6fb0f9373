"""Inference of which lock protects which global or struct field."""

import random

import pytest

from lockshift.ast import Type, data_accesses, iter_stmts, path_of
from lockshift.datalock import (
    AccessRecord,
    ProtectionVerdict,
    candidate_lock,
    collect_accesses,
    infer_data_locks,
    judge_protection,
)
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import analyze_program, lock_sets
from lockshift.propagation import propagate

from helpers import CORPUS, fixture_text, locks


def records_for(source):
    result = analyze_program(source)
    graphs, _, flow = lock_sets(result.program)
    return collect_accesses(result.program, flow,
                            result.lock_summary.function_map, graphs)


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
    # An operand of & is read, and locks hold no data.
    assert by_line[8] == [("read", "Var", "n"), ("read", "FieldAccess", "p.x")]
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
    assert by_line[4] == [("read", "PayloadAccess", "n")]
    assert by_line[6] == []
    # Place targets of a destructuring call are writes; guards and _ are not.
    assert by_line[7] == [("write", "Var", "k")]
    assert by_line[8] == []
    assert by_line[9] == [("write", "PayloadAccess", "n"),
                          ("read", "PayloadAccess", "n"), ("read", "Var", "k")]
    assert by_line[10] == []


def target_of(record):
    """(owning struct or None, datum path text) of an access record."""
    return (record.struct, record.datum.text)


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
    recs = [r for r in records_for(COUNTER) if target_of(r) == (None, "n")]
    assert sorted((r.kind, r.line) for r in recs) == [("read", 6), ("write", 6)]
    assert all(r.held == locks("m") for r in recs)
    assert all(r.function == "f" for r in recs)


def test_lock_operands_are_not_data_accesses():
    assert all(target_of(r) != (None, "m") for r in records_for(COUNTER))


def test_untouched_global_gets_no_verdict():
    result = analyze_program(COUNTER)
    assert all(v.target != (None, "unused") for v in result.verdicts)
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
    reads = {(target_of(r), r.kind, r.line) for r in recs}
    assert ((None, "n"), "read", 9) in reads
    assert ((None, "k"), "read", 12) in reads
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
    field = [r for r in recs if r.struct is not None]
    assert {(target_of(r), r.kind) for r in field} == {
        (("s", "x.n"), "write"),
        (("s", "x.n"), "read"),
    }
    assert all(r.held == locks("x.m") for r in field)


def test_address_of_bases_touch_no_data():
    recs = records_for(STRUCT_PAIR)
    assert all(target_of(r) != (None, "inst") for r in recs)


def synthetic(held, kind="read"):
    return AccessRecord("f", 1, locks(*held), path_of("n"), None, kind)


def test_candidate_is_the_most_frequently_held_lock():
    recs = [synthetic(["a"]), synthetic(["a", "b"]), synthetic([])]
    assert candidate_lock(recs, ["a", "b"]) == "a"


def test_candidate_tie_breaks_to_the_smaller_name():
    recs = [synthetic(["b"]), synthetic(["a"])]
    assert candidate_lock(recs, ["b", "a"]) == "a"


def test_candidate_absent_when_no_lock_is_ever_held():
    recs = [synthetic([]), synthetic([])]
    assert candidate_lock(recs, ["a", "b"]) is None


def test_candidate_counts_only_locks_beside_the_datum():
    """y.m held while accessing x.n does not count for m; x.m does."""
    recs = [AccessRecord("f", 1, locks("y.m", "m"), path_of("x.n"), "s", "write"),
            AccessRecord("f", 2, locks("x.w"), path_of("x.n"), "s", "read"),
            AccessRecord("f", 3, locks("y.m", "x.w"), path_of("x.n"), "s", "read")]
    assert candidate_lock(recs, ["m", "w"]) == "w"
    assert candidate_lock(recs[:1], ["m", "w"]) is None


def reference_candidate_lock(records, choices):
    """The per-name count candidate_lock replaced: one sibling path and
    one pass over the records for each lock name."""
    best, best_count = None, 0
    for name in sorted(choices):
        count = sum(1 for r in records if r.datum.sibling(name) in r.held)
        if count > best_count:
            best, best_count = name, count
    return best


def reference_judge_protection(records, candidate, concurrent, target):
    safe = [r for r in records if r.datum.sibling(candidate) in r.held]
    unsafe = [r for r in records if r.datum.sibling(candidate) not in r.held]
    ok = any(r.kind == "write" for r in safe) and not any(concurrent(r) for r in unsafe)
    return ProtectionVerdict(target, candidate, ok, unsafe)


# Lock paths beside and away from the data below, under several prefixes.
HELD_POOL = ["m", "w", "a", "x.m", "x.w", "y.m", "y.a", "x.p.m", "x.p.w", "m.m"]
DATA = [("n", None), ("x.n", "s"), ("y.n", "s"), ("x.p.n", "t")]


def random_records(rng: random.Random) -> list[AccessRecord]:
    datum, struct = rng.choice(DATA)
    return [AccessRecord(rng.choice(["f", "g", "h"]), line,
                         locks(*rng.sample(HELD_POOL, rng.randint(0, 4))),
                         path_of(datum), struct, rng.choice(["read", "write"]))
            for line in range(rng.randint(0, 8))]


@pytest.mark.parametrize("seed", range(20))
def test_candidate_and_judgement_match_the_per_name_reference(seed):
    rng = random.Random(seed)
    for _ in range(100):
        recs = random_records(rng)
        choices = rng.sample(["m", "w", "a", "b"], rng.randint(0, 4))
        cand = candidate_lock(recs, choices)
        assert cand == reference_candidate_lock(recs, choices)
        racy = set(rng.sample(["f", "g", "h"], rng.randint(0, 3)))

        def concurrent(r):
            return r.function in racy

        for name in [cand] if cand is not None else choices:
            got = judge_protection(recs, name, concurrent, (None, "n"))
            want = reference_judge_protection(recs, name, concurrent, (None, "n"))
            assert (got.target, got.candidate, got.protected) == (
                want.target, want.candidate, want.protected)
            # AccessRecord compares by value; unsafe keeps the record order.
            assert [id(r) for r in got.unsafe_accesses] == [
                id(r) for r in want.unsafe_accesses]


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
    v = verdict_for(result, (None, "n"))
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
    v = verdict_for(result, (None, "n"))
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
    v = verdict_for(result, (None, "n"))
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


POINTER_READ = """\
struct s { int a; };
struct s q;
struct s *r;
mutex_t m;
thread_t t;
void h() {
    %s = 1;
}
void w() {
    pthread_mutex_lock(&m);
    r = &q;
    pthread_mutex_unlock(&m);
    h();
}
void main() {
    pthread_create(&t, w);
}
"""


@pytest.mark.parametrize("place", ["r->a", "(*r).a"], ids=["arrow", "dereferenced"])
def test_a_field_access_reads_the_pointer_it_goes_through(place):
    """h reads r unheld to reach r->a, and the transformer would rewrite
    that r, so r is not protected by m."""
    result = analyze_program(POINTER_READ % place)
    assert result.lock_summary.global_lock_map == {}
    v = verdict_for(result, (None, "r"))
    assert v.candidate == "m" and not v.protected
    assert [(r.function, r.kind, r.line) for r in v.unsafe_accesses] == [("h", "read", 7)]


def test_taking_the_address_of_a_datum_unheld_is_an_access():
    result = analyze_program("""\
int n;
int *p;
mutex_t m;
thread_t t;
void w() {
    pthread_mutex_lock(&m);
    n = 1;
    pthread_mutex_unlock(&m);
    p = &n;
}
void main() {
    pthread_create(&t, w);
}
""")
    assert "n" not in result.lock_summary.global_lock_map
    v = verdict_for(result, (None, "n"))
    assert v.candidate == "m" and not v.protected
    assert [(r.kind, r.line) for r in v.unsafe_accesses] == [("read", 9)]


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


def _many_globals(n: int) -> str:
    """n globals, each written under the one lock by its own function."""
    lines = ["int g%d;" % i for i in range(n)] + ["mutex_t m;"]
    lines += ["void f%d() { pthread_mutex_lock(&m); g%d = %d; pthread_mutex_unlock(&m); }"
              % (i, i, i) for i in range(n)]
    lines.append("void main() { %s }" % " ".join("f%d();" % i for i in range(n)))
    return "\n".join(lines) + "\n"


def _is_mutex_calls_during_inference(n: int, monkeypatch) -> int:
    program = parse(_many_globals(n))
    graphs, cg, flow = lock_sets(program)
    summaries = propagate(program, flow, graphs)
    calls = 0
    real = Type.is_mutex

    def counted(ty):
        nonlocal calls
        calls += 1
        return real(ty)

    with monkeypatch.context() as m:
        m.setattr(Type, "is_mutex", counted)
        global_map, _, _ = infer_data_locks(program, flow, summaries, graphs, cg)
    assert len(global_map) == n
    return calls


def test_inference_looks_at_each_declaration_once_not_once_per_datum(monkeypatch):
    """The lock names beside a datum are found once per struct and once for
    the globals, so doubling the globals at most doubles the work: looking
    them up again per datum made it quadruple."""
    small = _is_mutex_calls_during_inference(100, monkeypatch)
    large = _is_mutex_calls_during_inference(200, monkeypatch)
    assert small > 0
    assert large <= 2 * small, (small, large)
