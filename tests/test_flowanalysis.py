"""Lock-set operators, the call-site binding, gen/kill transfer, the
per-function entry/return analyses, and the check that Top never leaves the
fixpoints."""
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
    join,
    meet,
    minus,
    transfer_gen_kill,
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
    gk = transfer_gen_kill(call_stmt, result.flow, diags, "caller")
    assert gk.gen_l == gk.kill_a == locks("g")
    assert [(d.function, d.line) for d in diags] == [("caller", 8)]
    # Top, the return set of a callee inside an SCC sweep, stays Top.
    top = flowanalysis.FunctionFlowFacts("release", ("a",), locks("a.m"), None)
    gk = transfer_gen_kill(call_stmt, {"release": top})
    assert gk.kill_l is None and gk.gen_a is None


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
    gk = transfer_gen_kill(call_stmt, result.flow, diags, "caller")
    assert gk.gen_l == frozenset()
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


# -- gen/kill -----------------------------------------------------------------

def stmt_of(source_body: str):
    p = parse("mutex_t m;\nmutex_t w;\nvoid f() { %s }\n" % source_body)
    return p.functions[0].body.stmts[0]


def test_gen_kill_of_lock_and_unlock():
    gk = transfer_gen_kill(stmt_of("pthread_mutex_unlock(&m);"), {})
    assert gk.gen_l == locks("m") and gk.kill_a == locks("m")
    assert gk.kill_l == frozenset() and gk.gen_a == frozenset()
    gk = transfer_gen_kill(stmt_of("pthread_mutex_lock(&m);"), {})
    assert gk.kill_l == locks("m") and gk.gen_a == locks("m")
    assert gk.gen_l == frozenset() and gk.kill_a == frozenset()


def test_gen_kill_of_plain_statement_is_identity():
    p = parse("int n;\nvoid f() { n = n + 1; }\n")
    gk = transfer_gen_kill(p.functions[0].body.stmts[0], {})
    assert gk.gen_l == frozenset() and gk.kill_l == frozenset()
    assert gk.gen_a == frozenset() and gk.kill_a == frozenset()


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
    gk = transfer_gen_kill(call_stmt, result.flow)
    assert gk.gen_l == locks("inst.m")
    assert gk.kill_a == locks("inst.m")


def test_nested_calls_compose_in_evaluation_order():
    # One statement whose condition both releases (inner callee) and then
    # reacquires (outer callee) the lock: the statement-level L-gen must
    # still report the release, and the A-gen the reacquisition.
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
    gk = transfer_gen_kill(cond_stmt, result.flow)
    assert gk.gen_l == locks("m")
    assert gk.kill_l == locks("m")
    assert gk.gen_a == locks("m")
    assert gk.kill_a == locks("m")
    facts = result.flow["caller"]
    assert facts.mels == locks("m")


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
    assert facts.avail_out[g.ret] == frozenset()


# -- Top never escapes ----------------------------------------------------------

def published_sets(result):
    """Every lock set the analysis hands on past its fixpoints."""
    for f in result.flow.values():
        yield f.mels
        yield f.mrls
        for sets in (f.live_in, f.live_out, f.avail_in, f.avail_out):
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
