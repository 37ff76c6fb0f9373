"""Entry-lock propagation from callers to callees and the held-line map."""
from __future__ import annotations

from lockshift.pipeline import analyze_program

from helpers import CALLER_PROVIDES, fixture_text, locks


def summaries_of(source: str):
    return analyze_program(source).summaries


def test_caller_provides_entry_set():
    s = summaries_of(CALLER_PROVIDES)["inc"]
    assert s.mels == frozenset() and s.mrls == frozenset()
    assert s.els == locks("m")
    assert s.pls == locks("m")
    assert s.rls == locks("m")


def test_root_functions_keep_their_own_entry_set():
    s = summaries_of(CALLER_PROVIDES)
    assert s["safe_inc"].els == frozenset()
    assert s["main"].els == frozenset()


def test_multiple_callers_intersect():
    s = summaries_of(fixture_text("corpus/multi_caller.mc"))["helper"]
    assert s.els == locks("b")
    assert s.pls == locks("b")


def test_propagation_renames_through_pointer_arguments():
    source = """
    struct s { int n; mutex_t m; };
    struct s inst;
    void touch(struct s *a) {
        a->n = a->n + 1;
    }
    void run(struct s *b) {
        pthread_mutex_lock(&b->m);
        touch(b);
        pthread_mutex_unlock(&b->m);
    }
    void main() {
        run(&inst);
    }
    """
    s = summaries_of(source)
    assert s["touch"].els == locks("a.m")
    assert s["run"].els == frozenset()


def test_transitive_propagation_through_middle_function():
    s = summaries_of(fixture_text("corpus/guard_args_chain.mc"))
    assert s["middle"].els == locks("m")
    assert s["leaf"].els == locks("m")


def test_unmatched_param_rooted_lock_is_dropped_with_diagnostic():
    source = """
    struct s { int n; mutex_t m; };
    struct s inst;
    void helper() {
    }
    void run(struct s *b) {
        pthread_mutex_lock(&b->m);
        helper();
        pthread_mutex_unlock(&b->m);
    }
    void main() {
        run(&inst);
    }
    """
    result = analyze_program(source)
    assert result.summaries["helper"].els == frozenset()
    drops = [d for d in result.diagnostics if "no parameter image" in d.message]
    assert len(drops) == 1
    assert drops[0].function == "run"


def test_dead_cycle_is_clamped_to_own_released_set():
    source = """
    mutex_t m;
    void a() {
        pthread_mutex_unlock(&m);
        b();
    }
    void b() {
        pthread_mutex_lock(&m);
        a();
    }
    """
    result = analyze_program(source)
    assert result.summaries["a"].els == locks("m")
    assert result.summaries["a"].pls == frozenset()
    clamped = [d for d in result.diagnostics if "dead cycle" in d.message]
    assert {d.function for d in clamped} == {"a", "b"}


def test_global_locks_survive_propagation_without_arguments():
    s = summaries_of(fixture_text("corpus/unlock_chain.mc"))
    assert s["release"].els == locks("m")
    assert s["release_outer"].els == locks("m")


def test_lock_line_lists_lines_where_lock_is_held():
    s = summaries_of(fixture_text("listing1.mc"))
    lines = {p.text: ls for p, ls in s["foo"].lock_line.items()}
    assert lines == {"m": [16, 17]}
    lines = {p.text: ls for p, ls in s["f"].lock_line.items()}
    assert lines == {"m": [6]}
    lines = {p.text: ls for p, ls in s["unlock"].lock_line.items()}
    assert lines == {"m": [7]}
    lines = {p.text: ls for p, ls in s["h"].lock_line.items()}
    assert lines == {"x.m": [20, 21]}


def test_lock_line_includes_propagated_locks_everywhere():
    s = summaries_of(CALLER_PROVIDES)
    lines = {p.text: ls for p, ls in s["inc"].lock_line.items()}
    assert lines == {"m": [4]}


def test_entry_minus_released_equals_return_minus_surely_held():
    for src in (CALLER_PROVIDES, fixture_text("corpus/multi_caller.mc"),
                fixture_text("listing1.mc")):
        for s in summaries_of(src).values():
            assert s.els - s.mels == s.rls - s.mrls == s.pls
