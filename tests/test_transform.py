"""Rewriting plain programs into the guarded dialect."""

import pytest

from lockshift.cli import main
from lockshift.diagnostics import SummaryMismatch, TypeCheckError, UnsupportedCall
from lockshift.guardcheck import check
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import analyze_program, run_pipeline
from lockshift.printer import print_guarded, print_source
from lockshift.summary import read_summary
from lockshift.transform import guard_name_for, transform

from helpers import CORPUS, corpus_paths, fixture_text
from test_erasure import erasure_mismatch
from test_scc_reference import SccGen


def pipeline_text(source):
    result, guarded, errors = run_pipeline(source)
    return result, guarded, errors, print_guarded(guarded)


def test_counter_example_matches_the_golden_output():
    result, guarded, errors, text = pipeline_text(fixture_text("listing1.mc"))
    assert errors == []
    assert text == fixture_text("listing1.gmc")


def test_guard_names_flatten_the_lock_path():
    assert guard_name_for(("m",)) == "m_guard"
    assert guard_name_for(("x", "m")) == "x_m_guard"


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
    """The output erases to its source statement by statement, so each
    access survives at its line (test_erasure.py checks every completed
    pinned program this way)."""
    result, _, _, text = pipeline_text((CORPUS / (name + ".mc")).read_text())
    assert erasure_mismatch(result.program, parse_guarded(text)) is None


def test_taking_the_address_of_a_protected_global_is_not_an_access():
    result, _, _, text = pipeline_text("""\
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
    printed = parse_guarded(text)
    assert erasure_mismatch(result.program, printed) is None
    assert check(printed) == []


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


def _collisions(result) -> list[tuple[str, str]]:
    return [(d.function, d.message) for d in result.diagnostics
            if "collides" in d.message]


def test_a_guard_name_a_parameter_holds_gets_a_suffix():
    result, _, errors, text = pipeline_text("""\
int n;
mutex_t m;
void inc(int m_guard) {
    n = n + m_guard;
}
void bump(int m_guard) {
    pthread_mutex_lock(&m);
    inc(m_guard);
    pthread_mutex_unlock(&m);
}
void main() {
    bump(1);
}
""")
    assert errors == []
    assert "void inc(int m_guard, &guard<m> m_guard2) {" in text
    assert "void bump(int m_guard) { guard<m> m_guard2;" in text
    assert "inc(m_guard, &m_guard2);" in text
    assert _collisions(result) == [
        ("inc", "guard name m_guard for m collides; renamed m_guard2"),
        ("bump", "guard name m_guard for m collides; renamed m_guard2")]
    assert check(parse_guarded(text)) == []


def test_a_guard_name_skips_every_taken_suffix():
    result, _, errors, text = pipeline_text("""\
int m_guard;
int m_guard2;
int n;
mutex_t m;
void bump() {
    pthread_mutex_lock(&m);
    n = n + 1;
    pthread_mutex_unlock(&m);
    m_guard = m_guard2;
}
void main() {
    bump();
}
""")
    assert errors == []
    assert "m_guard3 = m.acquire();" in text
    assert "drop(m_guard3);" in text
    assert _collisions(result) == [
        ("bump", "guard name m_guard for m collides; renamed m_guard3")]


def test_guard_names_follow_lock_path_order_not_use_order():
    # a.b and a_b share the base name a_b_guard; c_guard is a global. The
    # body takes the locks in reverse path order: c, a_b, then a.b.
    result, _, errors, text = pipeline_text("""\
struct s { int v; mutex_t b; };
struct s a;
mutex_t a_b;
mutex_t c;
int c_guard;
int n;
int k;
void f() {
    pthread_mutex_lock(&c);
    k = k + 1;
    pthread_mutex_unlock(&c);
    pthread_mutex_lock(&a_b);
    n = n + 1;
    pthread_mutex_unlock(&a_b);
    pthread_mutex_lock(&a.b);
    a.v = a.v + 1;
    pthread_mutex_unlock(&a.b);
}
void main() {
    f();
}
""")
    assert errors == []
    assert ("void f() { guard<a.b> a_b_guard; guard<a_b> a_b_guard2; "
            "guard<c> c_guard2;") in text
    assert "a_b_guard = a.b.acquire();" in text
    assert "a_b_guard2 = a_b.acquire();" in text
    assert _collisions(result) == [
        ("f", "guard name a_b_guard for a_b collides; renamed a_b_guard2"),
        ("f", "guard name c_guard for c collides; renamed c_guard2")]
    assert check(parse_guarded(text)) == []


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
    pthread_mutex_unlock(&m);
    pthread_mutex_lock(&m);
    return v + v;
}
void bump() {
    pthread_mutex_lock(&m);
    n = twice(n);
    pthread_mutex_unlock(&m);
}
"""


def test_guard_threading_through_a_self_feeding_call_is_rejected():
    """twice releases m, so it takes m's guard and gives it back: the
    target reads the payload through a guard the call moved."""
    result, _, errors, text = pipeline_text(INHERITED_CALL_ARG)
    assert "((*m_guard).n, m_guard) = twice((*m_guard).n, m_guard);" in text
    assert [(e.kind, e.function) for e in errors] == [("UseAfterMove", "bump")]


def test_a_self_feeding_call_that_borrows_the_guard_is_accepted():
    """A callee that keeps m throughout borrows its guard, so the caller
    still owns it when the target is written, as Rust's two-phase borrow
    of `&mut m_guard` allows."""
    source = INHERITED_CALL_ARG.replace(
        "    pthread_mutex_unlock(&m);\n    pthread_mutex_lock(&m);\n    return", "    return")
    _, _, errors, text = pipeline_text(source)
    assert "int twice(int v, &guard<m> m_guard) {" in text
    assert "(*m_guard).n = twice((*m_guard).n, &m_guard);" in text
    assert errors == [] and check(parse_guarded(text)) == []


VOID_POINTER_LOCKER = """\
int *p;
int n;
mutex_t m;
void *g() {
    pthread_mutex_lock(&m);
    return p;
}
void main() {
    p = g();
    n = 1;
    pthread_mutex_unlock(&m);
}
"""


def test_a_void_pointer_result_keeps_its_place_beside_the_returned_guard():
    _, _, errors, text = pipeline_text(VOID_POINTER_LOCKER)
    assert "(void*, guard<m>) g() {" in text
    assert "return (p, m_guard);" in text
    assert "(p, m_guard) = g();" in text
    assert errors == []


def test_summaries_for_some_other_program_are_refused():
    program = parse(EXTERNAL_UNLOCK)
    stray = read_summary('{"global_lock_map": {"ghost": "m"}}')
    with pytest.raises(SummaryMismatch):
        transform(program, stray)


# f and g call each other and nothing calls them, so each entry set is its
# own released set, and f cannot name the guard for g's p.w: it passes get().
PASSES_A_NON_PLACE = """\
struct s { int a; mutex_t w; };
struct s ga;
struct s *get() { return &ga; }
void f(struct s *p) { pthread_mutex_unlock(&p->w); g(get()); }
void g(struct s *p) { f(p); }
void main() { }
"""


# Recursive programs that pass the non-place `get()` where a lock path runs
# through a parameter, so the caller cannot name that guard, or that call a
# function with guards inside an expression. The transformer refuses them
# and names the caller, the callee and the line; the analysis still runs.
@pytest.mark.parametrize("source, message, line", [
    (PASSES_A_NON_PLACE, "in f, call to g cannot pass the guard for p.w: argument "
                         "for parameter 'p' is not a place (lock path p.w)", 4),
    (SccGen(5).program(), "in f0, call to f1 cannot receive the guard for p.m: "
                          "argument for parameter 'p' is not a place (lock path p.m)", 15),
    (SccGen(49).program(),
     "in worker, call to get inside an expression cannot thread its guards", 20),
], ids=["guard-argument", "returned-guard", "inside-an-expression"])
def test_guards_a_call_cannot_thread_are_reported(source, message, line):
    result = analyze_program(source)
    with pytest.raises(UnsupportedCall) as exc:
        transform(result.program, result.lock_summary)
    assert (exc.value.message, exc.value.line) == (message, line)


def _thread_program(decls, writes="n = 1;"):
    """decls, then a thread that makes each datum in writes m's."""
    return (decls + "\nthread_t h;\nint get() { return 1; }\n"
            "void w() { pthread_mutex_lock(&m); " + writes + " pthread_mutex_unlock(&m); }\n"
            "void main() { pthread_create(&h, w); }\n")


# A global initializer evaluates nothing: it is an integer constant
# expression, on a global that holds data, as C requires. With n (and p)
# protected by m, an initializer that read n would read m above its
# declaration, `&n` would point into the lock it helps initialize, a call
# would run before main, and a lock has no value of its own to keep.
NOT_CONSTANT = "the initializer of %s is not an integer constant expression"
NO_DATA = "%s holds no data, so it takes no initializer"


@pytest.mark.parametrize("source, message, line", [
    (_thread_program("mutex_t m;\nint n;\nint k = n + 1;"), NOT_CONSTANT % "global 'k'", 3),
    (_thread_program("mutex_t m;\nint n;\nint *p = &n;", "n = 1; p = 0;"),
     NOT_CONSTANT % "global 'p'", 3),
    (_thread_program("mutex_t m;\nint n;\nint k = get();"), NOT_CONSTANT % "global 'k'", 3),
    (_thread_program("mutex_t m = 5;\nint n;"), NO_DATA % "global 'm'", 1),
    (_thread_program("mutex_t m;\nint n;\nthread_t t = 3;"), NO_DATA % "global 't'", 3),
    (_thread_program("mutex_t m;\nint n;\nstruct s { int a; };\nstruct s x = 1;"),
     NO_DATA % "global 'x'", 4),
    (_thread_program("mutex_t m;\nint n;\nint k = k;"), NOT_CONSTANT % "global 'k'", 3),
    ("struct mData { int n; };\nint k;\nmutex<mData> m = mData { n = k };\n"
     "void main() { }\n", NOT_CONSTANT % "field 'n' of m", 3),
], ids=["read-of-protected-data", "address-of-protected-data", "call", "lock",
        "thread-handle", "struct-by-value", "self-read", "payload-field"])
def test_a_global_initializer_evaluates_nothing(tmp_path, capsys, source, message, line):
    """The library raises a located TypeCheckError; `full` on a plain
    program and `check` on a guarded one exit 1 with it, printing nothing
    else."""
    guarded = "mutex<" in source
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(source) if guarded else run_pipeline(source)
    assert (exc.value.message, exc.value.line) == (message, line)
    src = tmp_path / ("p.gmc" if guarded else "p.mc")
    src.write_text(source)
    assert main(["check" if guarded else "full", str(src)]) == 1
    assert capsys.readouterr() == ("", "%s:%d: error: %s\n" % (src, line, message))


# Between an integer and a pointer C converts without a cast only the null
# pointer constant 0 (C11 6.5.16.1p1). The resolver rejects the other
# conversions wherever it knows both types: each statement below is in w,
# at line 4, or in the guarded program's f, at line 5.
TO_POINTER = "an int is not a pointer without a cast"
TO_INT = "a pointer is not an int without a cast"
CONVERSIONS = ("int n;\nint *p;\nint h(int x) { return x; }\nint *r(int *x) { return x; }\n"
               "void w() { %s }\nvoid main() { }\n")
GUARDED_CONVERSIONS = ("struct d { int n; int *p; };\nmutex<d> m;\nint k;\n"
                       "int *q(int *x) { return x; }\nvoid f() { guard<m> g; g = m.acquire(); %s "
                       "drop(g); }\n")


@pytest.mark.parametrize("source, message, line", [
    ("mutex_t m;\nint n;\nint *p = 5;\nvoid main() { }\n",
     "the initializer of global 'p', a pointer, is not the literal 0", 3),
    (CONVERSIONS % "p = 7;", TO_POINTER, 5),
    (CONVERSIONS % "n = p;", TO_INT, 5),
    (CONVERSIONS % "h(p);", TO_INT, 5),
    (CONVERSIONS % "n = h(&n);", TO_INT, 5),
    (CONVERSIONS % "p = r(n);", TO_POINTER, 5),
    (CONVERSIONS % "p = h(1);", TO_POINTER, 5),
    (CONVERSIONS % "n = r(p);", TO_INT, 5),
    (CONVERSIONS.replace("int *r(int *x) { return x; }", "int *r(int *x) { return 3; }")
     % "", TO_POINTER, 4),
    (GUARDED_CONVERSIONS % "(*g).p = 5;", TO_POINTER, 5),
    (GUARDED_CONVERSIONS % "k = (*g).p;", TO_INT, 5),
    (GUARDED_CONVERSIONS % "(*g).p = q((*g).n);", TO_POINTER, 5),
    ("struct d { int *p; };\nmutex<d> m = d { p = 3 };\nvoid main() { }\n",
     "the initializer of field 'p' of m, a pointer, is not the literal 0", 2),
], ids=["pointer-global", "assigned", "pointer-assigned-to-int",
        "pointer-argument", "address-argument", "int-argument", "int-result", "pointer-result",
        "returned", "payload-assigned", "payload-read", "payload-argument", "payload-init"])
def test_an_int_and_a_pointer_do_not_convert(tmp_path, capsys, source, message, line):
    """The library raises a located TypeCheckError; `full` on a plain
    program and `check` on a guarded one exit 1 with it, printing nothing
    else."""
    guarded = "mutex<" in source
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(source) if guarded else run_pipeline(source)
    assert (exc.value.message, exc.value.line) == (message, line)
    src = tmp_path / ("p.gmc" if guarded else "p.mc")
    src.write_text(source)
    assert main(["check" if guarded else "full", str(src)]) == 1
    assert capsys.readouterr() == ("", "%s:%d: error: %s\n" % (src, line, message))


@pytest.mark.parametrize("stmt", ["p = 0;", "p = &n;", "h(*p);", "n = *p + 1;", "p = r(0);",
                                  "p = r(p);", "n = h(n);"])
def test_the_null_pointer_constant_and_matching_types_convert(stmt):
    run_pipeline(CONVERSIONS % stmt)


def test_a_body_whose_branches_all_return_gets_no_appended_return():
    source = ("mutex_t m;\nint c;\n"
              "void acq() { pthread_mutex_lock(&m); if (c) { return; } else { return; } }\n"
              "void main() { acq(); pthread_mutex_unlock(&m); }\n")
    result, _, errors, text = pipeline_text(source)
    assert errors == [] and list(result.diagnostics) == []
    assert ("guard<m> acq() { guard<m> m_guard; m_guard = m.acquire(); "
            "if (c) { return m_guard; } else { return m_guard; } }") in text


def test_a_body_that_ends_in_a_returning_block_gets_no_appended_return():
    source = ("mutex_t m;\nint c;\n"
              "void acq() { pthread_mutex_lock(&m); { c = 1; return; } }\n"
              "void main() { acq(); pthread_mutex_unlock(&m); }\n")
    result, _, errors, text = pipeline_text(source)
    assert errors == [] and list(result.diagnostics) == []
    assert ("guard<m> acq() { guard<m> m_guard; m_guard = m.acquire(); "
            "{ (*m_guard).c = 1; return m_guard; } }") in text


@pytest.mark.parametrize("body, message, line", [
    ("pthread_mutex_lock(&m); if (c) { return 1; } }",
     "acq() can reach its end without a return", 3),
    ("pthread_mutex_lock(&m); return; }", "acq() returns 1 values, not 0", 3),
], ids=["falls-through-beside-a-guard", "bare-return"])
def test_a_value_function_that_can_end_without_a_value_is_rejected(body, message, line):
    """The transformer never makes up a value: it printed `return (0, m_guard);`
    with a warning, and `return 0;` for a bare return, before."""
    source = ("mutex_t m;\nint c;\nint acq() { %s\n"
              "void main() { c = acq(); pthread_mutex_unlock(&m); }\n" % body)
    with pytest.raises(TypeCheckError) as exc:
        run_pipeline(source)
    assert (exc.value.message, exc.value.line) == (message, line)


def test_a_value_function_returns_its_value_beside_its_guard():
    source = ("mutex_t m;\nint c;\n"
              "int acq() { pthread_mutex_lock(&m); if (c) { return 1; } return 0; }\n"
              "void main() { c = acq(); pthread_mutex_unlock(&m); }\n")
    result, guarded, errors = run_pipeline(source)
    assert errors == [] and list(result.diagnostics) == []
    text = print_guarded(guarded)
    assert "if (c) { return (1, m_guard); } return (0, m_guard); }" in text
    assert "(c, m_guard) = acq();" in text
