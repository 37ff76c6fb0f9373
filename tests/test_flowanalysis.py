"""Lock-set operators, the call-site binding, the lock effects of calls,
the per-function entry/return analyses, and the check that Top never leaves
the fixpoints."""
from __future__ import annotations

import pytest

from lockshift import flowanalysis
from lockshift.ast import (
    AddrOf,
    Call,
    FieldAccess,
    IntLit,
    LockPath,
    Var,
    place_path,
    to_callee,
    to_caller,
)
from lockshift.cfg import build_cfg
from lockshift.datalock import collect_accesses
from lockshift.diagnostics import Diagnostics, IterationBudgetExceeded
from lockshift.flowanalysis import (
    analyze_function,
    analyze_scc,
    flow_sets,
    join,
    meet,
    minus,
    stmt_effects,
)
from lockshift.parser import parse
from lockshift.pipeline import analyze_program
from lockshift.propagation import collect_call_facts

from corpus import completed, first_seeds
from helpers import FLOW_CASES, RING, locks, ring_program

# The pinned programs the Top check reads: the fixtures, the flow cases and
# the first SccGen programs, of which about one in thirteen never converges
# and is skipped.
SCC_PROGRAMS = 120


# -- lock sets: frozensets, with None for Top ----------------------------------

def test_join_meet_minus_on_finite_sets():
    ab = locks("a", "b")
    b = locks("b")
    assert join(ab, b) == ab
    assert meet(ab, b) == b
    assert minus(ab, b) == locks("a")
    assert minus(b, ab) == frozenset()
    for got in (join(ab, b), meet(ab, b), minus(ab, b)):
        assert type(got) is frozenset


def test_join_meet_minus_treat_none_as_top():
    s = locks("a")
    assert meet(None, s) == s
    assert meet(s, None) == s
    assert meet(None, None) is None
    assert join(None, s) is None
    assert join(s, None) is None
    assert minus(None, s) is None
    assert minus(s, None) == frozenset()
    assert minus(None, None) == frozenset()


# -- call-site binding: to_caller and to_callee --------------------------------

def path(text: str) -> LockPath:
    return LockPath(tuple(text.split(".")))


def call_with(args: list) -> Call:
    """A call as the resolver leaves it, each argument's place recorded."""
    return Call("f", args, arg_paths=tuple(place_path(a) for a in args))


def textual_alias(p: str, params: list[str], arg_places: list[str]) -> str:
    """Independent model of to_caller: textual prefix substitution on the root."""
    for name, place in zip(params, arg_places):
        if p == name or p.startswith(name + "."):
            return place + p[len(name):]
    return p


@pytest.mark.parametrize("p,params,args,arg_texts", [
    ("a.m", ["a"], [Var("b")], ["b"]),
    ("a.m", ["z", "a"], [Var("w"), Var("b")], ["w", "b"]),
    ("m", ["a"], [Var("b")], ["b"]),
    ("a.m.q", ["a"], [AddrOf(FieldAccess(Var("g"), "inner", False))], ["g.inner"]),
    ("a", ["a"], [AddrOf(Var("inst"))], ["inst"]),
])
def test_alias_matches_textual_substitution(p, params, args, arg_texts):
    got = to_caller(path(p), params, call_with(args))
    assert got.text == textual_alias(p, params, arg_texts)


def test_to_caller_is_none_for_a_non_place_argument():
    call = call_with([IntLit(3)])
    assert to_caller(path("a.m"), ["a"], call) is None
    assert to_caller(path("g"), ["a"], call) == path("g")


def textual_to_callee(p: str, params: list[str], arg_places: list) -> str | None:
    """Independent model of to_callee: the first parameter whose argument
    text is p or a dotted prefix of it takes that prefix's place. A None
    argument is not a place."""
    for name, place in zip(params, arg_places):
        if place is not None and (p == place or p.startswith(place + ".")):
            return name + p[len(place):]
    return None


@pytest.mark.parametrize("p,params,args,arg_texts", [
    ("g.m", ["a", "b"], [Var("g"), AddrOf(FieldAccess(Var("g"), "m"))], ["g", "g.m"]),
    ("g.m", ["a", "b"], [AddrOf(FieldAccess(Var("g"), "m")), Var("g")], ["g.m", "g"]),
    ("g", ["p"], [Var("g")], ["g"]),
    ("g.inner.m", ["p"], [AddrOf(FieldAccess(Var("g"), "inner", True))], ["g.inner"]),
    ("g.m", ["a", "p"], [IntLit(3), Var("g")], [None, "g"]),
    ("h.m", ["a", "b"], [Var("g"), IntLit(1)], ["g", None]),
    ("gg.m", ["p"], [Var("g")], ["g"]),
], ids=["first-wins", "first-wins-exact", "exact", "nested-prefix",
        "non-place-skipped", "no-prefix", "not-a-segment-prefix"])
def test_to_callee_matches_textual_prefix_substitution(p, params, args, arg_texts):
    got = to_callee(path(p), params, call_with(args))
    assert (None if got is None else got.text) == textual_to_callee(p, params, arg_texts)


RELEASE_BY_NON_PLACE = """\
struct s { mutex_t m; };
mutex_t g;
void release(struct s *a) {
    pthread_mutex_unlock(&a->m);
    pthread_mutex_unlock(&g);
}
void caller() {
    release(0);
}
"""


def test_flow_drops_a_path_whose_argument_is_not_a_place():
    result = analyze_program(RELEASE_BY_NON_PLACE)
    call_stmt = result.program.function("caller").body.stmts[0]
    diags = Diagnostics()
    assert stmt_effects(call_stmt, result.flow, diags, "caller") == (
        (locks("g"), frozenset()),)
    assert [(d.function, d.line) for d in diags] == [("caller", 8)]
    # Top, the return set of a callee inside an SCC sweep, stays Top.
    top = flowanalysis.FunctionFlowFacts("release", ("a",), locks("a.m"), None)
    assert stmt_effects(call_stmt, {"release": top}) == ((frozenset(), None),)


# Five dropped paths: in hash order the warnings would almost never come out
# sorted, so this pins the order under any PYTHONHASHSEED.
DROPPED = ["a.m", "b.m", "c.m", "d.m", "e.m"]


def test_flow_warns_about_dropped_paths_in_path_order():
    params = ["e", "d", "c", "b", "a"]
    unlocks = "".join("    pthread_mutex_unlock(&%s->m);\n" % p for p in params)
    source = ("struct s { mutex_t m; };\nvoid release(%s) {\n%s}\n"
              "void caller() {\n    release(0, 0, 0, 0, 0);\n}\n"
              % (", ".join("struct s *" + p for p in params), unlocks))
    result = analyze_program(source)
    call_stmt = result.program.function("caller").body.stmts[0]
    diags = Diagnostics()
    assert stmt_effects(call_stmt, result.flow, diags, "caller") == (
        (frozenset(), frozenset()),)
    assert [d.message for d in diags.entries] == [
        "argument for parameter %r is not a place (lock path %s)" % (p[0], p)
        for p in DROPPED]


def test_propagation_warns_about_dropped_paths_in_path_order():
    params = ["e", "d", "c", "b", "a"]
    locked = "".join("    pthread_mutex_lock(&%s->m);\n" % p for p in params)
    source = ("struct s { mutex_t m; };\nmutex_t g;\nvoid callee(int p) { }\n"
              "void caller(%s) {\n%s    pthread_mutex_lock(&g);\n    callee(3);\n}\n"
              % (", ".join("struct s *" + p for p in params), locked))
    result = analyze_program(source)
    assert result.lock_summary.function("callee").entry_lock == locks("g")
    assert [d.message for d in result.diagnostics if "parameter image" in d.message] == [
        "held lock %s has no parameter image at call to callee; not propagated" % p
        for p in DROPPED]


# -- lock effects: one (released, held) pair per call ---------------------------

def stmt_of(source_body: str):
    p = parse("mutex_t m;\nmutex_t w;\nvoid f() { %s }\n" % source_body)
    return p.functions[0].body.stmts[0]


def test_effect_of_lock_and_unlock():
    assert stmt_effects(stmt_of("pthread_mutex_unlock(&m);"), {}) == (
        (locks("m"), frozenset()),)
    assert stmt_effects(stmt_of("pthread_mutex_lock(&m);"), {}) == (
        (frozenset(), locks("m")),)


def test_plain_statement_has_no_effect():
    p = parse("int n;\nvoid f() { n = n + 1; }\n")
    assert stmt_effects(p.functions[0].body.stmts[0], {}) == ()


def test_call_effect_uses_callee_summary_through_alias():
    src = """
    struct s { int n; mutex_t m; };
    struct s inst;
    void release(struct s *a) {
        pthread_mutex_unlock(&a->m);
    }
    void caller() {
        release(&inst);
    }
    """
    result = analyze_program(src)
    call_stmt = result.program.function("caller").body.stmts[0]
    assert stmt_effects(call_stmt, result.flow) == ((locks("inst.m"), frozenset()),)


def test_nested_calls_compose_in_evaluation_order():
    # One statement whose condition both releases (inner callee) and then
    # reacquires (outer callee) the lock: the live set before it must still
    # hold the release, and the avail set after it the reacquisition.
    src = """
    mutex_t m;
    int release() {
        pthread_mutex_unlock(&m);
        return 0;
    }
    int acquire_back(int x) {
        pthread_mutex_lock(&m);
        return x;
    }
    void caller() {
        if (acquire_back(release()) == 0) {
            pthread_mutex_unlock(&m);
        }
    }
    """
    result = analyze_program(src)
    cond_stmt = result.program.function("caller").body.stmts[0]
    assert stmt_effects(cond_stmt, result.flow) == (
        (locks("m"), frozenset()), (frozenset(), locks("m")))
    caller = result.program.function("caller")
    live_in, live_out, avail_in, avail_out = flow_sets(
        caller, result.graphs["caller"], result.flow)
    # Applied in the other order, the effects would take m out of both.
    assert live_out[cond_stmt] == live_in[cond_stmt] == locks("m")
    assert avail_in[cond_stmt] == avail_out[cond_stmt] == locks("m")
    facts = result.flow["caller"]
    assert facts.mels == locks("m")


def test_the_kept_facts_reproduce_every_flow_set(corpus):
    # --dump-flow solves each function again against the final facts; that
    # must give back the entry set, return set and held sets they keep.
    checked = 0
    for name, run in completed(corpus):
        result = run.result
        for fn in result.program.functions:
            f, g = result.flow[fn.name], result.graphs[fn.name]
            live_in, _, avail_in, avail_out = flow_sets(fn, g, result.flow)
            assert live_in[g.entry] == f.mels, (name, fn.name)
            assert avail_out[g.ret] == f.mrls, (name, fn.name)
            assert avail_in == f.avail_in, (name, fn.name)
            checked += 1
    assert checked > 1000


# -- per-function analyses -----------------------------------------------------

@pytest.mark.parametrize("name,source,expected", FLOW_CASES,
                         ids=[c[0] for c in FLOW_CASES])
def test_entry_and_return_lock_sets(name, source, expected):
    result = analyze_program(source)
    for fn_name, (mels, mrls) in expected.items():
        facts = result.flow[fn_name]
        assert sorted(p.text for p in facts.mels) == mels, fn_name
        assert sorted(p.text for p in facts.mrls) == mrls, fn_name


@pytest.mark.parametrize("case", ["recursive_unlock", "recursive_lock"])
def test_recursive_fixpoint_converges_in_two_sweeps(case):
    source = dict((c[0], c[1]) for c in FLOW_CASES)[case]
    result = analyze_program(source)
    assert result.flow["rec"].scc_iterations == 2


def test_non_recursive_functions_take_one_pass():
    result = analyze_program("mutex_t m;\nvoid f() { pthread_mutex_lock(&m); }\n")
    assert result.flow["f"].scc_iterations == 1


def test_scc_trace_shows_monotone_convergence():
    source = dict((c[0], c[1]) for c in FLOW_CASES)["recursive_unlock"]
    p = parse(source)
    fn = p.function("rec")
    trace = []
    analyze_scc([fn], {"rec": build_cfg(fn)}, {}, trace=trace)
    assert [t[0] for t in trace] == [1, 2]
    first, second = trace[0], trace[1]
    assert first[2] == locks("m") and second[2] == locks("m")
    assert second[3] == frozenset()


def test_scc_resolves_only_members_whose_callees_changed(monkeypatch):
    # Each ring needs 9 sweeps: its released lock travels back one member
    # per sweep. Re-solving every member on every sweep costs 9 solves a
    # member; a member whose callees did not change is skipped instead.
    solves: dict[str, int] = {}
    real = flowanalysis.analyze_function

    def counted(fn, *args, **kwargs):
        solves[fn.name] = solves.get(fn.name, 0) + 1
        return real(fn, *args, **kwargs)

    monkeypatch.setattr(flowanalysis, "analyze_function", counted)
    result = analyze_program(ring_program(3))
    members = ["r%dm%d" % (r, i) for r in range(3) for i in range(RING)]
    for name in members:
        assert result.flow[name].scc_iterations == 9, name
        assert solves[name] <= 2, (name, solves[name])


NON_PLACE_RING = """\
struct s { int n; mutex_t m; };
struct s inst;
struct s *get() { return &inst; }
void f0(struct s *x, int k) {
    f1(get(), k);
}
void f1(struct s *x, int k) {
    f2(x, k);
}
void f2(struct s *x, int k) {
    f3(x, k);
}
void f3(struct s *x, int k) {
    pthread_mutex_unlock(&x->m);
    f0(x, k);
}
"""


def test_scc_warnings_are_reported_once_at_convergence():
    # f0's non-place argument meets f1's entry set {x.m} on every sweep after
    # it appears; the warning must come once, after the no-base-case ones.
    p = parse(NON_PLACE_RING)
    fns = [p.function("f%d" % i) for i in range(4)]
    graphs = {fn.name: build_cfg(fn) for fn in fns}
    outer = {"get": analyze_function(p.function("get"), build_cfg(p.function("get")), {})}
    diags = Diagnostics()
    analyze_scc(fns, graphs, outer, diags=diags)
    got = [(d.function, d.line, d.message.split(" (")[0]) for d in diags]
    assert got == [("f%d" % i, None, "function 'f%d' has no terminating path" % i)
                   for i in range(4)] + [
        ("f0", 5, "argument for parameter 'x' is not a place")]


def test_iteration_budget_exceeded_on_growing_paths():
    source = """
    struct node { mutex_t m; struct node *next; };
    void f(struct node *x) {
        pthread_mutex_unlock(&x->m);
        f(x->next);
    }
    """
    with pytest.raises(IterationBudgetExceeded) as exc:
        analyze_program(source, budget=16)
    assert exc.value.functions == ["f"]
    assert exc.value.budget == 16


def test_avail_in_is_seeded_with_entry_set():
    p = parse("mutex_t m;\nvoid f() { pthread_mutex_unlock(&m); }\n")
    fn = p.functions[0]
    g = build_cfg(fn)
    facts = analyze_function(fn, g, {})
    assert facts.avail_in[g.entry] == facts.mels == locks("m")
    live_in, _, avail_in, avail_out = flow_sets(fn, g, {})
    assert avail_in[g.entry] == live_in[g.entry] == facts.mels
    assert avail_out[g.ret] == facts.mrls == frozenset()


# -- Top never escapes ----------------------------------------------------------

def published_sets(result):
    """Every lock set the analysis hands on past its fixpoints."""
    for name, f in result.flow.items():
        yield f.mels
        yield f.mrls
        yield from f.avail_in.values()
        fn = result.program.function(name)
        for sets in flow_sets(fn, result.graphs[name], result.flow):
            yield from sets.values()
    for s in result.lock_summary.function_map.values():
        yield from (s.entry_lock, s.return_lock)
    for fact in collect_call_facts(result.program, result.flow, result.graphs):
        yield fact.available
    for r in collect_accesses(result.program, result.flow,
                              result.lock_summary.function_map, result.graphs):
        yield r.held


def test_every_published_lock_set_is_a_frozenset(corpus):
    names = first_seeds(corpus, scc=SCC_PROGRAMS, gen=0, bench=0)
    converged = 0
    for name, run in completed({name: corpus[name] for name in names}):
        converged += 1
        kinds = {type(s) for s in published_sets(run.result)}
        assert kinds <= {frozenset}, name
    assert converged >= len(names) - SCC_PROGRAMS + 100
