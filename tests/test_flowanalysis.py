"""Lock-set operators, the call-site binding, the lock effects of calls,
the per-function entry/return analyses, the flow facts' callers-first key
order, and the check that Top never leaves the fixpoints."""
from __future__ import annotations

import runpy

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
from lockshift.diagnostics import Diagnostics, NoFixpoint
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
from lockshift.pipeline import analyze_program, lock_sets
from lockshift.propagation import collect_call_facts

from corpus import GEN_PATH, analyzed, first_seeds
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
    return tuple(text.split("."))


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
    assert ".".join(got) == textual_alias(p, params, arg_texts)


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
    assert (None if got is None else ".".join(got)) == textual_to_callee(p, params, arg_texts)


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
    program = parse(RELEASE_BY_NON_PLACE)
    call_stmt = program.function("caller").body.stmts[0]
    diags = Diagnostics()
    assert stmt_effects(call_stmt, lock_sets(program, diags=diags).flow) == (
        (locks("g"), frozenset()),)
    assert [(d.function, d.line) for d in diags] == [("caller", 8)]
    # Top, the return set of a callee inside an SCC sweep, stays Top.
    top = flowanalysis.FunctionFlowFacts(("a",), locks("a.m"), None)
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
    program = parse(source)
    call_stmt = program.function("caller").body.stmts[0]
    diags = Diagnostics()
    assert stmt_effects(call_stmt, lock_sets(program, diags=diags).flow) == (
        (frozenset(), frozenset()),)
    assert [d.message for d in diags.entries] == [
        "argument for parameter %r is not a place (lock path %s)" % (p[0], p)
        for p in DROPPED]


def test_one_call_warns_about_the_dropped_paths_of_a_parameter_in_path_order():
    """Only the dropped paths are sorted; the kept one, g, is not. Five
    paths, as above, so that hash order is almost never path order."""
    fields = "edcba"
    unlocks = "".join("    pthread_mutex_unlock(&p->%s);\n" % f for f in fields)
    source = ("struct s { %s };\nmutex_t g;\nvoid release(struct s *p) {\n%s"
              "    pthread_mutex_unlock(&g);\n}\nvoid caller() {\n    release(0);\n}\n"
              % (" ".join("mutex_t %s;" % f for f in fields), unlocks))
    program = parse(source)
    call_stmt = program.function("caller").body.stmts[0]
    diags = Diagnostics()
    assert stmt_effects(call_stmt, lock_sets(program, diags=diags).flow) == (
        (locks("g"), frozenset()),)
    assert [(d.line, d.message) for d in diags.entries] == [
        (12, "argument for parameter 'p' is not a place (lock path p.%s)" % f)
        for f in sorted(fields)]


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
    program = parse(src)
    call_stmt = program.function("caller").body.stmts[0]
    assert stmt_effects(call_stmt, lock_sets(program).flow) == (
        (locks("inst.m"), frozenset()),)


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
    program = parse(src)
    graphs, _, flow = lock_sets(program)
    cond_stmt = program.function("caller").body.stmts[0]
    assert stmt_effects(cond_stmt, flow) == (
        (locks("m"), frozenset()), (frozenset(), locks("m")))
    live_in, live_out, avail_in, avail_out = flow_sets(graphs["caller"], flow)
    # Applied in the other order, the effects would take m out of both.
    assert live_out[cond_stmt] == live_in[cond_stmt] == locks("m")
    assert avail_in[cond_stmt] == avail_out[cond_stmt] == locks("m")
    assert flow["caller"].mels == locks("m")


def test_the_kept_facts_reproduce_every_flow_set(corpus):
    # --dump-flow solves each function again against the final facts; that
    # must give back the entry set, return set and held sets they keep.
    checked = 0
    for name, run in analyzed(corpus):
        graphs, _, flow = run.sets
        for fn in run.program.functions:
            f, g = flow[fn.name], graphs[fn.name]
            live_in, _, avail_in, avail_out = flow_sets(g, flow)
            assert live_in[g.entry] == f.mels, (name, fn.name)
            assert avail_out[g.ret] == f.mrls, (name, fn.name)
            assert avail_in == f.avail_in, (name, fn.name)
            checked += 1
    assert checked > 1000


def _keyed_callers_first(flow, cg, name) -> int:
    """Check that a caller's key comes before each callee's outside its
    component, and that each component's members are contiguous, in their
    sweep order; return how many edges between components were checked."""
    pos = {f: i for i, f in enumerate(flow)}
    assert sorted(pos) == sorted(cg.edges), name
    scc = {f: i for i, members in enumerate(cg.merged_nodes) for f in members}
    for members in cg.merged_nodes:
        first = pos[members[0]]
        assert [pos[f] for f in members] == list(range(first, first + len(members))), name
    crossing = [(f, g) for f, callees in cg.edges.items() for g in callees if scc[f] != scc[g]]
    for f, g in crossing:
        assert pos[f] < pos[g], (name, f, g)
    return len(crossing)


def test_flow_facts_are_keyed_callers_first(corpus):
    # Propagation solves entry sets in this order.
    checked = sum(_keyed_callers_first(run.sets.flow, run.sets.callgraph, name)
                  for name, run in analyzed(corpus))
    assert checked > 800


def test_bench_flow_facts_are_keyed_callers_first():
    checked = 0
    for family, (factory, size) in runpy.run_path(str(GEN_PATH))["WORKLOADS"].items():
        _, cg, flow = lock_sets(parse(factory(size, 1).source))
        checked += _keyed_callers_first(flow, cg, family)
    assert checked > 900


# -- per-function analyses -----------------------------------------------------

@pytest.mark.parametrize("name,source,expected", FLOW_CASES,
                         ids=[c[0] for c in FLOW_CASES])
def test_entry_and_return_lock_sets(name, source, expected):
    flow = lock_sets(parse(source)).flow
    for fn_name, (mels, mrls) in expected.items():
        facts = flow[fn_name]
        assert sorted(".".join(p) for p in facts.mels) == mels, fn_name
        assert sorted(".".join(p) for p in facts.mrls) == mrls, fn_name


@pytest.mark.parametrize("case", ["recursive_unlock", "recursive_lock"])
def test_recursive_fixpoint_converges_in_two_sweeps(case):
    source = dict((c[0], c[1]) for c in FLOW_CASES)[case]
    assert lock_sets(parse(source)).flow["rec"].scc_iterations == 2


def test_non_recursive_functions_take_one_pass():
    program = parse("mutex_t m;\nvoid f() { pthread_mutex_lock(&m); }\n")
    assert lock_sets(program).flow["f"].scc_iterations == 1


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
    flow = lock_sets(parse(ring_program(3))).flow
    members = ["r%dm%d" % (r, i) for r in range(3) for i in range(RING)]
    for name in members:
        assert flow[name].scc_iterations == 9, name
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
    no_base_case = [("f%d" % i, None, "function 'f%d' has no terminating path" % i)
                    for i in range(4)]
    diags = Diagnostics()
    lock_sets(p, diags=diags)
    got = [(d.function, d.line, d.message.split(" (")[0]) for d in diags]
    assert got == no_base_case + [("f0", 5, "argument for parameter 'x' is not a place")]
    # The sweep itself warns only about the missing base case.
    fns = [p.function("f%d" % i) for i in range(4)]
    graphs = {fn.name: build_cfg(fn) for fn in fns}
    outer = {"get": analyze_function(p.function("get"), build_cfg(p.function("get")), {})}
    diags = Diagnostics()
    analyze_scc(fns, graphs, outer, diags=diags)
    assert [(d.function, d.line, d.message.split(" (")[0]) for d in diags] == no_base_case


def test_no_fixpoint_on_growing_paths():
    source = """
    struct node { mutex_t m; struct node *next; };
    void f(struct node *x) {
        pthread_mutex_unlock(&x->m);
        f(x->next);
    }
    """
    # K = 3: the longest lock-API path x.m, plus 1 for x->next. A fourth
    # name means a path went through the call twice, growing each time.
    with pytest.raises(NoFixpoint) as exc:
        analyze_program(source)
    assert exc.value.functions == ["f"]
    assert exc.value.reason == "lock path x.next.next.m is longer than 3 names"


def test_the_path_limit_starts_from_outer_callees_renamed_at_their_calls():
    # K = 3 for rel's z.next.m as x.next.m, plus 1 for x->inner. A component
    # whose call lengthens no path of its sets still converges.
    head = "struct node { mutex_t m; struct node *next; struct node *inner; };\nint c;\n"
    source = head + """
    void rel(struct node *z) { pthread_mutex_unlock(&z->next->m); }
    void f(struct node *x) { rel(x); if (c) { f(x->inner); } }
    """
    with pytest.raises(NoFixpoint) as exc:
        analyze_program(source)
    assert exc.value.reason == "lock path x.inner.inner.next.m is longer than 4 names"
    facts = lock_sets(parse(head + "void f(struct node *x) { if (c) { f(x->next); } "
                                   "pthread_mutex_lock(&x->m); }\n")).flow["f"]
    assert (facts.mels, facts.mrls) == (frozenset(), locks("x.m"))


def test_avail_in_is_seeded_with_entry_set():
    p = parse("mutex_t m;\nvoid f() { pthread_mutex_unlock(&m); }\n")
    fn = p.functions[0]
    g = build_cfg(fn)
    facts = analyze_function(fn, g, {})
    assert facts.avail_in[g.entry] == facts.mels == locks("m")
    live_in, _, avail_in, avail_out = flow_sets(g, {})
    assert avail_in[g.entry] == live_in[g.entry] == facts.mels
    assert avail_out[g.ret] == facts.mrls == frozenset()


# -- Top never escapes ----------------------------------------------------------

def published_sets(run):
    """Every lock set the analysis hands on past its fixpoints."""
    result = run.result
    graphs, _, flow = run.sets
    for name, f in flow.items():
        yield f.mels
        yield f.mrls
        yield from f.avail_in.values()
        for sets in flow_sets(graphs[name], flow):
            yield from sets.values()
    for s in result.lock_summary.function_map.values():
        yield from (s.entry_lock, s.return_lock)
    for fact in collect_call_facts(result.program, flow, graphs):
        yield fact.available
    for r in collect_accesses(result.program, flow,
                              result.lock_summary.function_map, graphs):
        yield r.held


def test_every_published_lock_set_is_a_frozenset(corpus):
    names = first_seeds(corpus, scc=SCC_PROGRAMS, gen=0, bench=0)
    converged = 0
    for name, run in analyzed({name: corpus[name] for name in names}):
        converged += 1
        kinds = {type(s) for s in published_sets(run)}
        assert kinds <= {frozenset}, name
    assert converged >= len(names) - SCC_PROGRAMS + 100
