"""Lent guards: a guard a function keeps from entry to exit is borrowed.

The transformer lends a lock's guard to a function that has the lock in
its entry and return sets, neither locks nor unlocks it, and passes it only
to callees that lend it too: a greatest fixpoint over the call graph. The
function takes it as `&guard<p> g`, Rust's `g: &mut MutexGuard<'_, P>`,
and does not return it; a caller passes `&g` and keeps its guard. The
resolver lets a lent guard be used only through `(*g).f` and `&g`, and the
checker counts `&g` as a use that needs the guard Owned and leaves it so.
"""
from __future__ import annotations

import hashlib
import json
import runpy

import pytest

from lockshift.ast import CallAssign, iter_stmts
from lockshift.cli import main
from lockshift.diagnostics import ParseError, TypeCheckError
from lockshift.guardcheck import check
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import analyze_program, run_pipeline
from lockshift.printer import print_guarded
from lockshift.summary import read_summary, write_summary
from lockshift.transform import transform

from corpus import GEN_PATH

WORKLOADS = runpy.run_path(str(GEN_PATH))["WORKLOADS"]


def printed(source: str) -> tuple[str, list]:
    """full's guarded text for source, and its checker errors, which the
    text parsed back must give too."""
    _, guarded, errors = run_pipeline(source)
    text = print_guarded(guarded)
    assert check(parse_guarded(text)) == errors
    return text, errors


CHAIN = """\
int n;
int k;
mutex_t m;
mutex_t w;
void f0() {
    pthread_mutex_lock(&m);
    n = n + 1;
}
void f1() {
    k = k + 1;
    f0();
}
void main() {
    pthread_mutex_lock(&w);
    f1();
    pthread_mutex_unlock(&m);
    pthread_mutex_unlock(&w);
}
"""


def test_a_chain_borrows_the_guard_it_keeps_and_moves_the_one_it_takes():
    """w is held across the whole chain, so each function borrows its
    guard; m is acquired inside, so its guard is returned."""
    text, errors = printed(CHAIN)
    assert errors == []
    assert "guard<m> f0(&guard<w> w_guard) { guard<m> m_guard;" in text
    assert "guard<m> f1(&guard<w> w_guard) { guard<m> m_guard;" in text
    assert "    (*w_guard).k = (*w_guard).k + 1;\n    m_guard = f0(&w_guard);" in text
    assert "    return m_guard; }" in text
    assert "    m_guard = f1(&w_guard);" in text  # main keeps w_guard, and drops it
    assert "drop(w_guard); }" in text


def test_a_callee_that_releases_the_lock_takes_its_guard_up_the_chain():
    """f0 releases and retakes w, so it takes w's guard and gives it
    back; so do f1 and f2, which reach f0, whatever their order."""
    source = CHAIN.replace("pthread_mutex_lock(&m);", "pthread_mutex_unlock(&w);\n"
                           "    pthread_mutex_lock(&w);\n    pthread_mutex_lock(&m);")
    source = source.replace("void main() {",
                            "void f2() {\n    f1();\n}\nvoid main() {").replace(
        "    f1();\n    pthread_mutex_unlock(&m);", "    f2();\n    pthread_mutex_unlock(&m);")
    text, errors = printed(source)
    assert errors == []
    assert "&guard" not in text and "&w_guard" not in text
    assert "(m_guard, w_guard) = f1(w_guard);" in text


def test_mutually_recursive_functions_both_borrow():
    """A least fixpoint would lend neither of f and g, each waiting on the
    other; the greatest lends both."""
    text, errors = printed("""\
int n;
mutex_t w;
void f(int x) {
    if (x) {
        g(x - 1);
    }
    n = n + 1;
}
void g(int x) {
    f(x);
}
void main() {
    pthread_mutex_lock(&w);
    f(3);
    pthread_mutex_unlock(&w);
}
""")
    assert errors == []
    assert "void f(int x, &guard<w> w_guard) {" in text
    assert "g(x - 1, &w_guard);" in text
    assert "void g(int x, &guard<w> w_guard) {" in text


ALIASED = """\
struct s { int n; mutex_t m; };
struct s a;
void g(struct s *p, struct s *q) {
    p->n = 1;
}
void f() {
    pthread_mutex_lock(&a.m);
    g(&a, &a);
    pthread_mutex_unlock(&a.m);
}
void main() {
    f();
}
"""


# ALIASED with g defined after f, where the move must not depend on order.
ALIASED_LATE = ALIASED.replace(
    "void g(struct s *p, struct s *q) {\n    p->n = 1;\n}\n", "").replace(
    "void main", "void g(struct s *p, struct s *q) {\n    p->n = 1;\n}\nvoid main")

# f keeps a.m from entry to exit, and its call of g moves the guard: f must
# learn that through the solve, and take and return a.m's guard.
ALIASED_HELD = """\
struct s { int n; mutex_t m; };
struct s a;
void g(struct s *p, struct s *q) {
    p->n = 1;
}
void f() {
    g(&a, &a);
}
void main() {
    pthread_mutex_lock(&a.m);
    f();
    pthread_mutex_unlock(&a.m);
}
"""


def test_one_guard_for_two_locks_of_the_callee_is_not_lent():
    """With a summary where g keeps p.m and q.m, the call g(&a, &a) hands
    a.m's one guard for both: lent twice, it would be two borrows of one
    guard at once, which Rust rejects, so both are moved and the checker
    sees the second move. Neither the order of the definitions nor the
    caller f holding a.m from entry to exit changes that, and then f
    moves a.m's guard too."""
    assert ALIASED_LATE.index("void g") > ALIASED_LATE.index("void f")
    for source, head in [(ALIASED, "void f() { guard<a.m> a_m_guard;"),
                         (ALIASED_LATE, "void f() { guard<a.m> a_m_guard;"),
                         (ALIASED_HELD, "guard<a.m> f(guard<a.m> a_m_guard) {")]:
        program = parse(source)
        data = json.loads(write_summary(analyze_program(program).lock_summary))
        data["function_map"]["g"]["entry_lock"] = ["p.m", "q.m"]
        data["function_map"]["g"]["return_lock"] = ["p.m", "q.m"]
        text = print_guarded(transform(program, read_summary(json.dumps(data))))
        assert "&guard" not in text
        assert "(a_m_guard, a_m_guard) = g(&a, &a, a_m_guard, a_m_guard);" in text
        assert [(e.kind, e.function) for e in check(parse_guarded(text))] == [
            ("UseAfterMove", "f")]
        assert head in text


# A lent guard g of f, used at line 10; h is a guard of v that f owns.
MISUSE = """\
struct wData { int k; };
int n;
mutex<wData> w;
mutex<wData> v;
void look(&guard<w> g) { (*g).k = 1; }
void two(&guard<w> a, &guard<v> b) { }
void take(guard<w> g) { drop(g); }
guard<w> give() { guard<w> h; h = w.acquire(); return h; }
%s f(&guard<w> g) { guard<v> h;
    %s }
void main() { guard<w> h; h = w.acquire(); f(&h); drop(h); }
"""


@pytest.mark.parametrize("ret, stmt, message", [
    ("void", "drop(g);", "lent guard g cannot be dropped"),
    ("guard<w>", "return g;", "lent guard g cannot be returned"),
    ("void", "take(g);", "lent guard g cannot be moved"),
    ("void", "g = give();", "lent guard g cannot be rebound"),
    ("void", "g = w.acquire();", "lent guard g cannot be reacquired"),
    ("void", "take(&g);", "cannot take the address of a non-place"),
    ("void", "look(&n);", "look() borrows a guard for w, so it takes &g"),
    ("void", "look(&v);", "look() borrows a guard for w, so it takes &g"),
    ("void", "(*g).k = &g;", "cannot take the address of a non-place"),
    ("void", "look(g);", "look() borrows a guard for w, so it takes &g"),
    ("void", "two(&g, &g);", "guard g is lent to two() and passed again"),
    ("void", "h = v.acquire(); two(&g, &h); drop(h);", None),
], ids=["drop", "return", "moving-slot", "call-target", "acquire", "address-for-a-moving-slot",
        "int-for-a-lent-slot", "lock-for-a-lent-slot", "address-outside-an-argument",
        "guard-for-a-lent-slot", "lent-twice", "borrowed-then-moved"])
def test_a_lent_guard_is_only_borrowed(tmp_path, capsys, ret, stmt, message):
    """The library raises a located TypeCheckError, and `check` exits 1
    printing only it; a guard the function owns may be lent and then
    moved in later statements."""
    source = MISUSE % (ret, stmt)
    if message is None:
        path = tmp_path / "p.gmc"
        path.write_text(source)
        assert check(parse_guarded(source)) == []
        assert main(["check", str(path)]) == 0
        return
    assert_rejected(tmp_path, capsys, source, message, 10)


def assert_rejected(tmp_path, capsys, source: str, message: str, line: int) -> None:
    """parse_guarded raises a TypeCheckError with message at line, and
    `check` exits 1 printing only it."""
    path = tmp_path / "p.gmc"
    path.write_text(source)
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(source)
    assert (type(exc.value), exc.value.message, exc.value.line) == (TypeCheckError, message, line)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", "%s:%d: error: %s\n" % (path, line, message))


# main, and a thread entry w, taking a guard g of the type given; the
# line where each is rejected, and who is rejected.
UNHANDED = {
    "main": ("struct d { int n; };\nmutex<d> m;\nvoid main(%s g) {\n    (*g).n = 2;\n}\n",
             3, "main()"),
    "entry": ("struct d { int n; };\nmutex<d> m;\nthread_t t;\nvoid w(%s g) { (*g).n = 1; }\n"
              "void main() {\n    pthread_create(&t, w);\n    m.get_mut().n = 2;\n}\n",
              6, "thread entry w()"),
}


@pytest.mark.parametrize("ty", ["guard<m>", "&guard<m>"], ids=["moved", "lent"])
@pytest.mark.parametrize("shape", UNHANDED)
def test_main_and_thread_entries_take_no_guard(tmp_path, capsys, shape, ty):
    """No call hands main, or a function passed to pthread_create, a guard,
    as Rust's main and thread::spawn hand none: such a guard would let w
    write m's payload while main writes it through get_mut. The resolver
    rejects it at main's line, or at the pthread_create."""
    template, line, who = UNHANDED[shape]
    assert_rejected(tmp_path, capsys, template % ty,
                    "%s cannot take guard g: no call hands it one" % who, line)


@pytest.mark.parametrize("source", [
    "struct d { int k; };\nmutex<d> w;\n&guard<w> g;\n",
    "struct d { int k; };\nmutex<d> w;\n(&guard<w>, int) f() { return (0, 0); }\n",
    "struct d { int k; };\nmutex<d> w;\nvoid f() { &guard<w> g; }\n",
], ids=["global", "return-type", "guard-declaration"])
def test_a_lent_guard_type_is_only_a_parameter_type(source):
    with pytest.raises((ParseError, TypeCheckError)):
        parse_guarded(source)


def test_a_lent_guard_is_owned_throughout_and_lending_keeps_a_guard_owned():
    """`&g` needs an owned guard and leaves it owned; a lent parameter
    starts owned."""
    errors = check(parse_guarded(MISUSE % ("void", "look(&g); look(&g); (*g).k = 2;")))
    assert errors == []
    source = ("struct wData { int k; };\nmutex<wData> w;\n"
              "void look(&guard<w> g) { (*g).k = 1; }\n"
              "void main() { guard<w> h;\n look(&h);\n h = w.acquire();\n drop(h);\n"
              " look(&h); }\n")
    assert [str(e) for e in check(parse_guarded(source))] == [
        "UseOfUninit: h at main line 5", "UseAfterMove: h at main line 8"]


# -- the bench families at small sizes --------------------------------------

def _printed_family(family: str, size: int) -> str:
    return printed(WORKLOADS[family][0](size, 1).source)[0]


def test_the_call_chain_returns_one_guard_and_shrinks_by_a_fifth():
    """call_chain(40, 1) printed 6,308 bytes when every guard was moved,
    `(guard<m>, guard<w>) f1(guard<w> w_guard)` and `(m_guard, w_guard) =
    f0(w_guard);`; lending w prints 5,028 (0.797 of it). No function
    returns a tuple and no call has a target list."""
    text = _printed_family("call_chain", 40)
    assert len(text.encode()) <= 0.85 * 6308
    assert len(text.encode()) == 5028
    program = parse_guarded(text)
    assert all(len(fn.rets) == 1 for fn in program.functions)
    assert all(len(s.targets) <= 1 for fn in program.functions for s in iter_stmts(fn.body)
               if type(s) is CallAssign)
    lent = [p for fn in program.functions for p in fn.params if p.ty.lent]
    assert len(lent) == 40


def test_the_recursive_rings_lend_one_guard_of_nine():
    """30 of the 270 guard parameters at bench size, seed 1."""
    program = parse_guarded(_printed_family("recursive_rings", 30))
    params = [p for fn in program.functions for p in fn.params if p.ty.kind == "guard"]
    assert (sum(p.ty.lent for p in params), len(params)) == (30, 270)


def test_the_wide_body_has_no_guard_parameters_and_prints_as_before():
    """Its sha256 at bench size, seed 1, is the one it had before lending."""
    text = _printed_family("wide_body", 900)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "482b73902cfbb8cfa03bc20b674c7ac9b1b476d506505c4f8a9c69c5c936db18")
