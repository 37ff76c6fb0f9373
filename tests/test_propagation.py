"""Entry-lock propagation from callers to callees and the held-line map."""
from __future__ import annotations

import time

from lockshift.ast import to_callee
from lockshift.callgraph import build_call_graph
from lockshift.cfg import build_cfg
from lockshift.flowanalysis import analyze_program_flow
from lockshift.parser import parse
from lockshift.pipeline import analyze_program, lock_sets, run_pipeline
from lockshift.propagation import propagate

from corpus import analyzed
from helpers import CALLER_PROVIDES, fixture_text, locks


def summaries_of(source: str):
    """Each function's summary record, as propagation wrote it."""
    return analyze_program(source).lock_summary.function_map


def test_caller_provides_entry_set():
    result = analyze_program(CALLER_PROVIDES)
    s = result.lock_summary.function("inc")
    f = lock_sets(result.program).flow["inc"]
    assert f.mels == frozenset() and f.mrls == frozenset()
    assert s.entry_lock == locks("m")
    assert s.entry_lock - f.mels == locks("m")
    assert s.return_lock == locks("m")


def test_root_functions_keep_their_own_entry_set():
    s = summaries_of(CALLER_PROVIDES)
    assert s["safe_inc"].entry_lock == frozenset()
    assert s["main"].entry_lock == frozenset()


def test_multiple_callers_intersect():
    result = analyze_program(fixture_text("corpus/multi_caller.mc"))
    s = result.lock_summary.function("helper")
    assert s.entry_lock == locks("b")
    assert s.entry_lock - lock_sets(result.program).flow["helper"].mels == locks("b")


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
    assert s["touch"].entry_lock == locks("a.m")
    assert s["run"].entry_lock == frozenset()


def test_transitive_propagation_through_middle_function():
    s = summaries_of(fixture_text("corpus/guard_args_chain.mc"))
    assert s["middle"].entry_lock == locks("m")
    assert s["leaf"].entry_lock == locks("m")


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
    assert result.lock_summary.function("helper").entry_lock == frozenset()
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
    entry = result.lock_summary.function("a").entry_lock
    assert entry == locks("m")
    assert entry - lock_sets(result.program).flow["a"].mels == frozenset()
    clamped = [d for d in result.diagnostics if "dead cycle" in d.message]
    assert {d.function for d in clamped} == {"a", "b"}


def test_a_lock_the_caller_released_is_not_handed_down():
    # main holds m at its call to f, and f releases m before it calls g:
    # m is in f's entry set but not held at g's call site.
    source = (
        "mutex_t m; int n; thread_t t; void g() { n = 1; } "
        "void f() { pthread_mutex_unlock(&m); g(); } "
        "void w() { pthread_mutex_lock(&m); n = 2; pthread_mutex_unlock(&m); } "
        "void main() { pthread_create(&t, w); pthread_mutex_lock(&m); f(); }\n")
    result, _, errors = run_pipeline(source)
    assert result.lock_summary.function("f").entry_lock == locks("m")
    assert result.lock_summary.function("g").entry_lock == frozenset()
    assert errors == []


def test_every_entry_set_is_held_at_each_of_its_call_sites(corpus):
    """At every call site, the locks the caller surely holds there
    (avail_in + ELS - MELS), named as the callee names them, cover the
    callee's entry set. A held path that no argument carries keeps its
    name, unless it is rooted at a caller parameter. Functions whose entry
    set was clamped at a dead cycle are skipped."""
    checked = 0
    for name, run in analyzed(corpus):
        graphs, _, flow = run.sets
        summary = run.result.lock_summary
        clamped = {d.function for d in run.result.diagnostics
                   if "dead cycle" in d.message}
        params = {fn.name: fn.param_names for fn in run.program.functions}
        for caller in params:
            if caller in clamped:
                continue
            facts = flow[caller]
            pls = summary.function(caller).entry_lock - facts.mels
            for node in graphs[caller].stmt_nodes:
                held = facts.avail_in[node] | pls
                for call in node.calls:
                    if call.name not in params or call.name in clamped:
                        continue
                    image = set()
                    for p in held:
                        q = to_callee(p, params[call.name], call)
                        if q is not None:
                            image.add(q)
                        elif p[0] not in params[caller]:
                            image.add(p)
                    entry = summary.function(call.name).entry_lock
                    assert entry <= image, (name, caller, call.name, node.line)
                    checked += 1
    assert checked > 1000, checked


def test_global_locks_survive_propagation_without_arguments():
    s = summaries_of(fixture_text("corpus/unlock_chain.mc"))
    assert s["release"].entry_lock == locks("m")
    assert s["release_outer"].entry_lock == locks("m")


def test_lock_line_lists_lines_where_lock_is_held():
    s = summaries_of(fixture_text("listing1.mc"))
    lines = {".".join(p): sorted(ls) for p, ls in s["foo"].lock_line.items()}
    assert lines == {"m": [16, 17]}
    lines = {".".join(p): sorted(ls) for p, ls in s["f"].lock_line.items()}
    assert lines == {"m": [6]}
    lines = {".".join(p): sorted(ls) for p, ls in s["unlock"].lock_line.items()}
    assert lines == {"m": [7]}
    lines = {".".join(p): sorted(ls) for p, ls in s["h"].lock_line.items()}
    assert lines == {"x.m": [20, 21]}


def test_lock_line_includes_propagated_locks_everywhere():
    s = summaries_of(CALLER_PROVIDES)
    lines = {".".join(p): sorted(ls) for p, ls in s["inc"].lock_line.items()}
    assert lines == {"m": [4]}


def test_entry_minus_released_equals_return_minus_surely_held():
    for src in (CALLER_PROVIDES, fixture_text("corpus/multi_caller.mc"),
                fixture_text("listing1.mc")):
        result = analyze_program(src)
        flow = lock_sets(result.program).flow
        for name, s in result.lock_summary.function_map.items():
            f = flow[name]
            assert s.entry_lock - f.mels == s.return_lock - f.mrls


def test_many_distinct_callees_propagate_in_linear_time():
    # Deduplicating a caller's callees by scanning a list of them is
    # quadratic in their number: several seconds for this program.
    n = 16000
    source = "".join("void f%d() { }\n" % i for i in range(n))
    source += "void main() {\n%s}\n" % "".join("    f%d();\n" % i for i in range(n))
    program = parse(source)
    graphs = {fn.name: build_cfg(fn) for fn in program.functions}
    flow = analyze_program_flow(program, build_call_graph(program), graphs)
    start = time.perf_counter()
    summaries = propagate(program, flow, graphs)
    assert time.perf_counter() - start < 1.5
    assert len(summaries) == n + 1
    assert all(s.entry_lock == frozenset() for s in summaries.values())
