"""Differential test of the calls the resolver records on each statement
and on each function.

The passes read `Stmt.calls` and `FunctionDef.calls`, which
`parser._Resolver` fills in as it resolves a statement. The reference
below is the walk they replaced: the statement's own expressions (an
Assign's value before its place, only the condition of an If or While),
each searched for calls with arguments before their call, and for a
function, the statements in `iter_stmts` order. For every statement and
function of every program below, both must give the same Call objects in
the same order. A statement the resolver cut as unreachable
(`FunctionDef.unreachable`) records no call, and none of its calls is in
its function's list.
"""
from __future__ import annotations

import pytest

from lockshift.ast import (
    AddrOf,
    Assign,
    Binary,
    Block,
    Call,
    CallAssign,
    Deref,
    FieldAccess,
    If,
    Return,
    TupleExpr,
    While,
    iter_stmts,
    path_of,
)
from lockshift.parser import parse, parse_guarded

from corpus import first_seeds, programs
from helpers import FIXTURES


def reference_stmt_exprs(s):
    if isinstance(s, Assign):
        return [s.value, s.place]
    if isinstance(s, (If, While)):
        return [s.cond]
    if isinstance(s, Return):
        return [s.value] if s.value is not None else []
    if isinstance(s, CallAssign):
        return [s.call]
    return []


def reference_collect_calls(e, out):
    if isinstance(e, Call):
        for a in e.args:
            reference_collect_calls(a, out)
        out.append(e)
    elif isinstance(e, Binary):
        reference_collect_calls(e.lhs, out)
        reference_collect_calls(e.rhs, out)
    elif isinstance(e, (AddrOf, Deref)):
        reference_collect_calls(e.expr, out)
    elif isinstance(e, FieldAccess):
        reference_collect_calls(e.base, out)
    elif isinstance(e, TupleExpr):
        for item in e.items:
            reference_collect_calls(item, out)


def reference_stmt_calls(s):
    out = []
    for e in reference_stmt_exprs(s):
        reference_collect_calls(e, out)
    return out


# The fixtures and flow cases, scc/0-59, gen/0-29 and bench seeds 1 and 2.
PLAIN = first_seeds(programs(), scc=60, gen=30, bench=3)


def assert_matches_reference(program) -> int:
    """Compare every statement; return how many calls were compared."""
    seen = 0
    for fn in program.functions:
        for s in iter_stmts(fn.body):
            got, want = s.calls, reference_stmt_calls(s)
            # Call nodes compare by identity, so this checks the objects.
            assert list(got) == want, "line %d of %s" % (s.line, fn.name)
            # So a statement without calls reports the empty tuple.
            assert type(got) is tuple
            seen += len(got)
    return seen


@pytest.mark.parametrize("name", PLAIN)
def test_recorded_calls_match_the_reference(name, corpus):
    run = corpus[name]
    if run.program is not None:
        assert_matches_reference(run.program)
    if run.reparsed is not None:
        assert_matches_reference(run.reparsed)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.gmc")), ids=lambda p: p.name)
def test_recorded_calls_match_the_reference_on_guarded_fixtures(path):
    assert_matches_reference(parse_guarded(path.read_text()))


def assert_function_calls_match_the_reference(program) -> int:
    """Compare every function; return how many unreachable calls it left out."""
    dead = 0
    for fn in program.functions:
        want = [c for s in iter_stmts(fn.body) for c in reference_stmt_calls(s)]
        assert list(fn.calls) == want, fn.name
        assert type(fn.calls) is tuple
        for s in iter_stmts(Block(stmts=list(fn.unreachable))):
            assert s.calls == (), (fn.name, s.line)
            left_out = reference_stmt_calls(s)
            assert not any(c is d for c in left_out for d in fn.calls), (fn.name, s.line)
            dead += len(left_out)
    return dead


def test_each_functions_calls_match_the_reference_walk(corpus):
    """Over every pinned program, parsed and re-parsed, and every guarded
    fixture."""
    checked = dead = 0
    for run in corpus.values():
        for program in (run.program, run.reparsed):
            if program is not None:
                dead += assert_function_calls_match_the_reference(program)
                checked += 1
    for path in sorted(FIXTURES.glob("*.gmc")):
        assert_function_calls_match_the_reference(parse_guarded(path.read_text()))
    assert checked > 300 and dead > 10


def test_the_inputs_have_calls_to_compare(corpus):
    total = sum(assert_matches_reference(corpus[name].program)
                for name in PLAIN if corpus[name].program is not None)
    assert total > 1000


def _calls(source: str):
    program = parse(source)
    return [[c.name for c in s.calls]
            for fn in program.functions for s in iter_stmts(fn.body)]


CALLEES = """\
int h() { return 1; }
int g(int x) { return x; }
int f(int x) { return x; }
"""


def test_arguments_are_recorded_before_their_call():
    assert _calls(CALLEES + "void main() { f(g(h())); }\n") == [
        [], [], [], ["h", "g", "f"]]


def test_operands_are_recorded_left_to_right():
    source = CALLEES + "int x;\nvoid main() { x = f(h()) + g(1) * f(2); }\n"
    assert _calls(source)[-1] == ["h", "f", "g", "f"]


def test_a_condition_keeps_its_calls_from_the_nested_statements():
    source = CALLEES + """\
void main() {
    if (f(1)) {
        g(2);
    } else {
        h();
    }
    while (g(f(3))) {
        h();
        f(4);
    }
}
"""
    assert _calls(source)[3:] == [["f"], ["g"], ["h"], ["f", "g"], ["h"], ["f"]]


def test_lock_api_calls_are_recorded_with_their_lock():
    program = parse("""\
struct s { int n; mutex_t m; };
struct s a;
mutex_t m;
thread_t t;
void w() { pthread_mutex_lock(&a.m); pthread_mutex_unlock(&a.m); }
void main() {
    pthread_mutex_init(&m);
    pthread_mutex_lock(&m);
    pthread_create(&t, w);
    pthread_mutex_unlock(&m);
}
""")
    got = [(c.name, c.lock) for fn in program.functions
           for s in iter_stmts(fn.body) for c in s.calls]
    assert got == [
        ("pthread_mutex_lock", path_of("a.m")),
        ("pthread_mutex_unlock", path_of("a.m")),
        ("pthread_mutex_init", path_of("m")),
        ("pthread_mutex_lock", path_of("m")),
        ("pthread_create", None),
        ("pthread_mutex_unlock", path_of("m")),
    ]


def test_a_function_keeps_its_calls_in_program_order_and_none_unreachable():
    source = CALLEES + """\
void main() {
    if (f(1)) {
        g(2);
    } else {
        h();
    }
    while (g(f(3))) {
        h();
    }
    return;
    f(4);
}
"""
    main = parse(source).function("main")
    assert [c.name for c in main.calls] == ["f", "g", "h", "f", "g", "h"]
    (dead,) = main.unreachable
    assert dead.calls == () and dead.call.args[0].value == 4


def test_a_function_shares_the_tuple_of_its_one_statement_with_calls():
    program = parse(CALLEES + "int x;\nvoid main() { x = 1; f(g(h())); x = 2; }\n")
    main = program.function("main")
    assert main.calls is main.body.stmts[1].calls
    assert [c.name for c in main.calls] == ["h", "g", "f"]


def test_a_function_without_calls_has_the_empty_tuple():
    program = parse(CALLEES)
    for fn in program.functions:
        assert fn.calls == () and type(fn.calls) is tuple
