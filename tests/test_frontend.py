"""Lexer, parser, resolver, and printer behavior for both dialects."""
from __future__ import annotations

import time

import pytest

from lockshift import parser
from lockshift.ast import (
    AddrOf,
    Assign,
    Binary,
    Call,
    CallAssign,
    Deref,
    Discard,
    GuardRef,
    Record,
    Return,
    iter_stmts,
)
from lockshift.diagnostics import ParseError, TypeCheckError, UnknownIdentifier
from lockshift.guardcheck import check
from lockshift.lexer import tokenize
from lockshift.parser import parse, parse_guarded
from lockshift.printer import expr_text, print_guarded, print_source

from corpus import analyzed
from helpers import corpus_paths, fields, fixture_text


def first_call_paths(source: str) -> list[str]:
    """Canonical lock-path text of every standalone lock-API call, in order."""
    program = parse(source)
    out = []
    for fn in program.functions:
        for s in fn.body.stmts:
            if isinstance(s, CallAssign):
                out.append(".".join(s.call.lock))
    return out


def test_program_shape_and_line_spans():
    p = parse(fixture_text("listing1.mc"))
    assert [g.name for g in p.globals] == ["n", "m"]
    assert [s.name for s in p.structs] == ["s"]
    names = [f.name for f in p.functions]
    assert names == ["f", "unlock", "lock", "g", "foo", "h"]
    assert p.function("f").line_span == (4, 6)
    assert p.function("unlock").line_span == (7, 7)
    assert p.function("foo").line_span == (13, 17)
    assert p.function("h").line_span == (18, 21)


def test_comments_do_not_shift_lines():
    p = parse("// leading comment\nint n;\n// middle\nmutex_t m; // trailing\n")
    assert p.globals[0].line == 2
    assert p.globals[1].line == 4


def test_lock_path_canonicalization():
    source = """
    struct s { int n; mutex_t m; };
    struct s inst;
    void f(struct s *a) {
        pthread_mutex_lock(&a->m);
        pthread_mutex_unlock(&(*a).m);
        pthread_mutex_lock(&*&inst.m);
    }
    """
    assert first_call_paths(source) == ["a.m", "a.m", "inst.m"]


def test_lock_api_calls_must_be_standalone():
    with pytest.raises(TypeCheckError, match="standalone"):
        parse("int n;\nmutex_t m;\nvoid f() { n = pthread_mutex_lock(&m); }\n")
    with pytest.raises(TypeCheckError, match="standalone"):
        parse("mutex_t m;\nvoid f() { if (pthread_mutex_lock(&m)) { return; } }\n")
    with pytest.raises(TypeCheckError, match="standalone"):
        parse("mutex_t m;\nint n = pthread_mutex_lock(&m);\n")


def test_lock_api_argument_shape():
    with pytest.raises(TypeCheckError, match="address-of"):
        parse("mutex_t m;\nvoid f() { pthread_mutex_lock(m); }\n")
    with pytest.raises(TypeCheckError, match="1 argument"):
        parse("mutex_t m;\nvoid f() { pthread_mutex_lock(&m, &m); }\n")
    with pytest.raises(TypeCheckError):
        parse("mutex_t m;\nvoid f() { pthread_mutex_lock(&m + 1); }\n")
    with pytest.raises(TypeCheckError, match="does not denote a mutex"):
        parse("int x;\nvoid f() { pthread_mutex_lock(& &x); }\n")


def test_thread_create_argument_shape():
    base = "thread_t t;\nmutex_t m;\nvoid w() { }\n"
    parse(base + "void main() { pthread_create(&t, w); }\n")
    with pytest.raises(TypeCheckError, match="thread handle"):
        parse(base + "void main() { pthread_create(&m, w); }\n")
    with pytest.raises(TypeCheckError, match="name a function"):
        parse(base + "void main() { pthread_create(&t, t); }\n")
    with pytest.raises(TypeCheckError, match="bare function name"):
        parse(base + "void main() { pthread_create(&t, w()); }\n")
    with pytest.raises(TypeCheckError) as exc:
        parse(base + "void main() { pthread_create(&t); }\n")
    assert exc.value.message == "pthread_create() takes 2 arguments, got 1"
    with pytest.raises(TypeCheckError) as exc:
        parse(base + "void main() { pthread_create(t, w); }\n")
    assert exc.value.message == "pthread_create() first argument is not an address-of place"


def test_forward_references_resolve():
    p = parse("void a() { b(); }\nvoid b() { }\n")
    assert [f.name for f in p.functions] == ["a", "b"]


def test_name_resolution_errors():
    with pytest.raises(UnknownIdentifier):
        parse("void f() { n = 1; }\n")
    with pytest.raises(UnknownIdentifier):
        parse("void f() { g(); }\n")
    with pytest.raises(TypeCheckError, match="duplicate global"):
        parse("int n;\nint n;\n")
    with pytest.raises(TypeCheckError, match="duplicate struct"):
        parse("struct s { int a; };\nstruct s { int b; };\n")
    with pytest.raises(TypeCheckError, match="duplicate parameter"):
        parse("void f(int a, int a) { }\n")
    with pytest.raises(TypeCheckError) as exc:
        parse("void f() { }\nvoid f() { }\n")
    assert (exc.value.message, exc.value.line) == ("duplicate definition of 'f'", 2)
    with pytest.raises(TypeCheckError, match="used as a value"):
        parse("int n;\nvoid g() { }\nvoid f() { n = g; }\n")
    # A struct's fields are distinct: neither the first nor the lock wins.
    with pytest.raises(TypeCheckError) as exc:
        parse("int n;\nstruct s { int a; int a; mutex_t m; };\n")
    assert (exc.value.message, exc.value.line) == ("duplicate field 'a' in struct s", 2)
    with pytest.raises(TypeCheckError) as exc:
        parse("struct s { int a; mutex_t a; };\nstruct s x;\n"
              "void f() { pthread_mutex_lock(&x.a); }\n")
    assert (exc.value.message, exc.value.line) == ("duplicate field 'a' in struct s", 1)
    # A parameter may shadow a global.
    assert parse("int a;\nvoid f(int a) { a = 1; }\n").function("f").params[0].name == "a"


def test_place_and_type_errors():
    with pytest.raises(TypeCheckError, match="not a place"):
        parse("int n;\nvoid f() { n + 1 = 2; }\n")
    with pytest.raises(TypeCheckError, match="cannot assign whole"):
        parse("struct s { int a; };\nstruct s x;\nstruct s y;\nvoid f() { x = y; }\n")
    with pytest.raises(TypeCheckError, match="dereference"):
        parse("int n;\nvoid f() { *n = 1; }\n")
    with pytest.raises(TypeCheckError, match="non-struct"):
        parse("int n;\nvoid f() { n.a = 1; }\n")
    with pytest.raises(UnknownIdentifier, match="no field"):
        parse("struct s { int a; };\nstruct s x;\nvoid f() { x.b = 1; }\n")
    with pytest.raises(TypeCheckError, match="address of a non-place"):
        parse("int n;\nint g() { return 0; }\n"
              "void f() { n = 1; pthread_mutex_lock(&g()); }\n")


def test_dead_code_is_type_checked_to_the_end():
    # The if follows main's return, and its second statement follows a
    # return of its own: both are cut, and both are still checked.
    source = ("int n;\nvoid main() {\n    return;\n    if (n) {\n        return;\n"
              "        n = nope;\n    }\n}\n")
    with pytest.raises(UnknownIdentifier, match="nope") as exc:
        parse(source)
    assert exc.value.line == 6
    with pytest.raises(TypeCheckError, match="returns void") as exc:
        parse(source.replace("n = nope;", "return 1;"))
    assert exc.value.line == 6
    # Valid, the if is cut whole: its own dead statement stays in it, for
    # the warning.
    main = parse(source.replace("nope", "1")).function("main")
    assert [type(s) for s in main.body.stmts] == [Return]
    (cut,) = main.unreachable
    assert [s.line for s in cut.then.stmts] == [5, 6]


# Structs that hold themselves by value: directly, through a second struct,
# and through the payload of a data-owning lock. C rejects the incomplete
# field type, and Rust a type of infinite size.
SELF_CONTAINING = [
    ("plain", "struct s { int a; struct s x; };\n", "s.x", 1),
    ("plain", "struct s { int a; struct u b; };\nstruct u { struct s c; };\n", "s.b.c", 1),
    ("guarded", "struct t { int n; };\nstruct s { int a; struct u b; };\n"
                "struct u { struct t k; mutex<s> m; };\n", "s.b.m", 2),
    ("guarded", "struct P { int a; mutex<P> m; };\n", "P.m", 1),
]


@pytest.mark.parametrize("dialect, source, cycle, line", SELF_CONTAINING,
                         ids=["direct", "through-a-struct", "through-a-payload", "own-payload"])
def test_a_struct_that_contains_itself_by_value_is_rejected(dialect, source, cycle, line):
    name = cycle.split(".")[0]
    with pytest.raises(TypeCheckError) as exc:
        (parse if dialect == "plain" else parse_guarded)(source + "void main() { }\n")
    assert (exc.value.message, exc.value.line) == (
        "struct %s contains itself by value (%s)" % (name, cycle), line)


def test_a_pointer_breaks_a_struct_cycle():
    parse("struct s { int a; struct s *x; struct u *y; };\nstruct u { struct s c; };\n"
          "struct w { struct u d; struct u e; };\nvoid main() { }\n")
    parse_guarded("struct P { int a; mutex<P> *m; };\nvoid main() { }\n")


def test_struct_cycles_are_found_in_linear_time():
    n = 2000
    chain = "".join("struct s%d { int a; struct s%d x; };\n" % (i, i + 1) for i in range(n))
    start = time.perf_counter()
    parse(chain + "struct s%d { int a; };\nvoid main() { }\n" % n)
    with pytest.raises(TypeCheckError, match="struct s0 contains itself") as exc:
        parse(chain + "struct s%d { int a; struct s0 x; };\nvoid main() { }\n" % n)
    assert time.perf_counter() - start < 2
    assert exc.value.line == 1


VOID_G = "int x;\nstruct s { int a; };\nstruct s y;\nvoid g() { }\nint h(int v) { return v; }\n"


@pytest.mark.parametrize("use", [
    "void f() { x = g(); }",
    "void f() { if (g()) { x = 1; } }",
    "void f() { while (g()) { x = 1; } }",
    "void f() { x = h(g()); }",
    "void f() { h(g()); }",
    "void f() { x = 1 + g(); }",
    "void f() { g() == 0; }",
    "void f() { y.a = g(); }",
    "int f() { return g(); }",
    "int z = g();",
], ids=["assigned", "if", "while", "argument", "argument-of-standalone",
        "operand", "standalone-operand", "field-assigned", "returned",
        "global-initializer"])
def test_the_value_of_a_void_call_is_rejected(use):
    with pytest.raises(TypeCheckError, match=r"g\(\) returns void") as exc:
        parse(VOID_G + use + "\n")
    assert exc.value.line == 6


def test_a_standalone_void_call_is_legal():
    p = parse(VOID_G + "void f() { g(); x = h(1); }\n")
    assert [c.name for c in p.function("f").body.stmts[0].calls] == ["g"]
    # a pointer to void is a value
    parse("int *p;\nvoid *g() { return p; }\nvoid f() { p = g(); }\n")


ARG_PLACES = "struct s { int f; mutex_t m; };\nstruct s *x;\nint h() { return 0; }\n"


def test_the_resolver_records_each_arguments_place():
    # &x->m and x.f are places; an integer and a nested call are not.
    p = parse(ARG_PLACES + "void g(mutex_t *a, int b, int c, int d) { }\n"
              "void f() { g(&x->m, x.f, 1, h()); }\n")
    h, g = p.function("f").body.stmts[0].calls
    assert h.arg_paths == ()
    assert g.arg_paths == (("x", "m"), ("x", "f"), None, None)
    # The same in the guarded dialect, where a guard argument is not a place.
    gp = parse_guarded(ARG_PLACES
                       + "struct kData { int n; };\nmutex<kData> k = kData { n = 0 };\n"
                       "void g(mutex_t *a, int b, int c, int d, guard<k> k_guard) "
                       "{ drop(k_guard); }\n"
                       "void f() { guard<k> k_guard;\n"
                       "    k_guard = k.acquire();\n"
                       "    g(&x->m, x.f, 1, h(), k_guard); }\n")
    call = gp.function("f").body.stmts[1].call
    assert isinstance(call.args[4], GuardRef)
    assert call.arg_paths == (("x", "m"), ("x", "f"), None, None, None)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("int n\nint k;\n")
    assert (exc.value.line, exc.value.col) == (2, 1)


_DEEP = "(" * 101 + "1" + ")" * 101
_CHAIN = "1" + " + 1" * 101

# One input per place the parser raises, each error after a tab or mid-line
# where it can be: (dialect, source, message, line, col).
PARSE_ERROR_SITES = [
    ("plain", "void f() {\n\tn = 1 }\n", "expected ';', found '}'", 2, 8),
    ("plain", "int n = \t" + _DEEP + ";\n",
     "nested too deeply (the limit is 100 levels)", 1, 110),
    ("plain", "int n;\nint k = \t" + _CHAIN + ";\n",
     "nested too deeply (the limit is 100 levels)", 2, 412),
    ("plain", "int n;\n\tstruct 1 {};\n", "expected struct name, found '1'", 2, 9),
    ("plain", "void f(\tn) {}\n", "expected a type, found 'n'", 1, 9),
    ("plain", "int n;\n\tn = 1;\n", "expected a declaration", 2, 2),
    ("guarded", "int n;\n\tguard<m> g;\n", "guard variables cannot be globals", 2, 2),
    ("guarded", "struct p { int x; };\nmutex<p> m = \tq { x = 1 };\n",
     "initializer struct 'q' does not match payload 'p'", 2, 15),
    ("guarded", "(int) f() {}\n", "a tuple return type needs at least two members", 1, 7),
    ("guarded", "void f() {\n\tdrop(x);\n}\n", "drop target 'x' is not a guard", 2, 7),
    ("guarded", "void f() {\n\t(a, b) = 1;\n}\n",
     "destructuring assignment needs a call on the right", 2, 2),
    ("guarded", "void f() {\n\tx = m.acquire();\n}\n",
     "acquire() must assign to a guard variable", 2, 2),
    ("guarded", "void f() {\n\tguard<m> g;\n\tg = 1;\n}\n",
     "a guard can only receive acquire() or a call result", 3, 2),
    ("guarded", "void f() {\n\tm.acquire();\n}\n",
     "acquire() result must be assigned to a guard", 2, 2),
    ("plain", "mutex_t m;\nvoid f() {\n\tm.acquire();\n}\n",
     "method call syntax is not part of this dialect", 3, 4),
    ("guarded", "void f() {\n\tguard<m> g;\n\tg = h().acquire();\n}\n",
     "acquire() receiver must be a lock place", 3, 10),
    ("guarded", "void f() {\n\tx = h().get_mut().f;\n}\n",
     "get_mut() receiver must be a lock place", 2, 10),
    ("guarded", "void f() {\n\tm.lock();\n}\n", "unknown method 'lock'", 2, 4),
    ("plain", "int n =\n\t", "expected an expression, found 'end of input'", 2, 2),
    # `(` with no `)` before the end is no target list: an expression.
    ("guarded", "void f() { (a", "expected ')', found 'end of input'", 1, 14),
    # A guard's payload followed by no field name, or by a method call.
    ("guarded", "void f(guard<m> g) {\n\t(*g).;\n}\n", "expected field name, found ';'", 2, 7),
    ("guarded", "void f(guard<m> g) { (* g).", "expected field name, found 'end of input'",
     1, 28),
    ("guarded", "void f(guard<m> g) {\n\t(*g).n();\n}\n", "unknown method 'n'", 2, 7),
    ("guarded", "void f(guard<m> g) {\n\t(*g).acquire();\n}\n",
     "acquire() receiver must be a lock place", 2, 7),
    ("guarded", "void f() {\n\tguard<m> *h;\n}\n", "expected guard variable name, found '*'",
     2, 11),
    ("guarded", "void f(guard<m.> g) {}\n", "expected path segment, found '>'", 1, 16),
]


@pytest.mark.parametrize("dialect,source,message,line,col", PARSE_ERROR_SITES,
                         ids=[case[2] for case in PARSE_ERROR_SITES])
def test_parse_errors_carry_exact_positions(dialect, source, message, line, col):
    with pytest.raises(ParseError) as exc:
        (parse if dialect == "plain" else parse_guarded)(source)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


# 30,000 declarations on one line, 348,890 characters.
_LONG_LINE = "".join("int g%d; " % i for i in range(30000))


def test_column_of_an_error_late_on_a_long_line_is_found_in_linear_time():
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse(_LONG_LINE + "@")
    assert time.perf_counter() - start < 2
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "unexpected character '@'", 1, 348891)


def test_column_of_an_error_after_a_long_line_is_found_in_linear_time():
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse(_LONG_LINE + "int x\nint y;\n")
    assert time.perf_counter() - start < 2
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "expected ';', found 'int'", 2, 1)


def test_integer_literals_are_ascii_digits():
    with pytest.raises(ParseError) as exc:
        parse("int n;\nvoid main() {\n    n = \u0663;\n}\n")
    assert exc.value.message == "unexpected character '\u0663'"
    assert (exc.value.line, exc.value.col) == (3, 9)


def test_parse_and_parse_guarded_lex_through_the_module_binding(monkeypatch):
    """The bench's per-layer trace times the lexer by swapping
    `parser.tokenize`; each parse must call it once."""
    calls = []

    def counting(source):
        calls.append(source)
        return tokenize(source)

    monkeypatch.setattr(parser, "tokenize", counting)
    parse(fixture_text("listing1.mc"))
    assert calls == [fixture_text("listing1.mc")]
    parse_guarded(fixture_text("listing1.gmc"))
    assert calls[1:] == [fixture_text("listing1.gmc")]


def test_guarded_syntax_rejected_in_plain_dialect():
    with pytest.raises(ParseError, match="method call"):
        parse("mutex_t m;\nvoid f() { m.acquire(); }\n")
    with pytest.raises(ParseError):
        parse(fixture_text("listing1.gmc"))


def test_an_acquire_inside_an_expression_is_rejected():
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(payload_body("k = 1 + m.acquire();"))
    assert (exc.value.message, exc.value.line) == ("unexpected expression form", 7)


def test_guarded_dialect_constructs():
    gp = parse_guarded(fixture_text("listing1.gmc"))
    locks = [g for g in gp.globals if g.ty.is_mutex()]
    assert [(g.name, g.ty.name, g.init.payload) for g in locks] == [("m", "mData", "mData")]
    lock_fn = gp.function("lock")
    assert [t.kind for t in lock_fn.rets] == ["guard"]
    unlock_fn = gp.function("unlock")
    assert [p.ty.kind for p in unlock_fn.params] == ["guard"]
    assert [d.guard for d in gp.function("foo").guard_decls] == ["m_guard"]


@pytest.mark.parametrize("dialect", [parse, parse_guarded], ids=["plain", "guarded"])
def test_mut_is_an_ordinary_identifier(dialect):
    """`&` has one spelling: `&mut` is the address of a global named mut."""
    p = dialect("int mut;\nint *p;\nvoid main() { p = &mut; }\n")
    value = p.function("main").body.stmts[0].value
    assert isinstance(value, AddrOf) and value.expr.name == "mut"
    with pytest.raises(ParseError) as exc:
        dialect("int mut;\nint x;\nint *p;\nvoid main() { p = &mut x; }\n")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "expected ';', found 'x'", 4, 24)


def test_guarded_parse_errors():
    with pytest.raises(ParseError, match="not a guard"):
        parse_guarded("int x;\nvoid f() { drop(x); }\n")
    with pytest.raises(ParseError, match="assign to a guard"):
        parse_guarded("struct d { int n; };\nmutex<d> m;\nint x;\n"
                      "void f() { x = m.acquire(); }\n")
    with pytest.raises(ParseError, match="must be assigned"):
        parse_guarded("struct d { int n; };\nmutex<d> m;\nvoid f() { m.acquire(); }\n")
    with pytest.raises(ParseError, match="needs a call"):
        parse_guarded("int x;\nint y;\nvoid f() { (x, y) = x; }\n")
    with pytest.raises(ParseError, match="cannot be globals"):
        parse_guarded("struct d { int n; };\nmutex<d> m;\nguard<m> g;\n")
    with pytest.raises(UnknownIdentifier, match="payload"):
        parse_guarded("mutex<d> m;\n")
    with pytest.raises(ParseError, match="does not match payload"):
        parse_guarded("struct d { int n; };\nstruct e { int n; };\n"
                      "mutex<d> m = e { n = 0 };\n")


def shape(e):
    """An expression tree as nested tuples: (op, lhs, rhs), ("*", e) for a
    dereference, or the variable name."""
    if isinstance(e, Binary):
        return (e.op, shape(e.lhs), shape(e.rhs))
    if isinstance(e, Deref):
        return ("*", shape(e.expr))
    return e.name


PRECEDENCE_CASES = [
    ("a + b * c", ("+", "a", ("*", "b", "c"))),
    ("(a + b) * c", ("*", ("+", "a", "b"), "c")),
    ("a - b - c", ("-", ("-", "a", "b"), "c")),
    ("a < b < c", ("<", ("<", "a", "b"), "c")),
    ("a == b + c * d", ("==", "a", ("+", "b", ("*", "c", "d")))),
    ("a * (b - c)", ("*", "a", ("-", "b", "c"))),
    ("*p * q", ("*", ("*", "p"), "q")),
    ("a * b + c <= d - a != b",
     ("!=", ("<=", ("+", ("*", "a", "b"), "c"), ("-", "d", "a")), "b")),
]


def test_expression_precedence_round_trip():
    body = " ".join("a = %s;" % text for text, _ in PRECEDENCE_CASES)
    p = parse("int a;\nint b;\nint c;\nint d;\nint *p;\nint q;\n"
              "void f() { %s }\n" % body)
    stmts = p.functions[0].body.stmts
    assert len(stmts) == len(PRECEDENCE_CASES)
    for stmt, (text, tree) in zip(stmts, PRECEDENCE_CASES):
        assert shape(stmt.value) == tree
        assert expr_text(stmt.value) == text


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_print_parse_round_trip_is_stable(path):
    printed = print_source(parse(path.read_text()))
    assert print_source(parse(printed)) == printed


def test_guarded_round_trip_matches_golden():
    golden = fixture_text("listing1.gmc")
    assert print_guarded(parse_guarded(golden)) == golden


def test_guarded_round_trip_keeps_lock_pointers():
    # Lock paths drop `*`, so p.get_mut() and q.get_mut() reach through
    # pointers to locks, as y.m does through a pointer to a struct.
    text = ("struct d { int n; };\nstruct s { mutex<d> m; };\nmutex<d> *p;\nint x;\n"
            "void f(struct s *y, mutex<d> *q) { guard<y.m> y_m_guard;\n"
            "    y_m_guard = y.m.acquire();\n"
            "    (*y_m_guard).n = p.get_mut().n + q.get_mut().n;\n"
            "    drop(y_m_guard); }\n")
    assert print_guarded(parse_guarded(text)) == text


def test_an_empty_struct_prints_back_unchanged():
    assert print_source(parse("struct s { };\n")) == "struct s { };\n"


def test_an_empty_payload_initializer_prints_as_none():
    program = parse_guarded("struct d { int n; };\nmutex<d> m = d { };\n")
    assert print_guarded(program) == "struct d { int n; };\nmutex<d> m;\n"


LOCK_D = "struct d { int n; };\nmutex<d> m;\nint x;\n"
TWO_LOCKS = "struct d { int n; };\nstruct s { mutex<d> m; };\nmutex<d> m;\nmutex<d> q;\n"


@pytest.mark.parametrize("source, error, message, line", [
    ("int q; void f() { guard<q> g; g = q.acquire(); (*g).n = 1; drop(g); }\n",
     TypeCheckError, "q is not a lock", 1),
    ("struct s { mutex<zzz> m; }; int x; void f() { x = nosuch.get_mut().n; }\n",
     UnknownIdentifier, "unknown payload struct 'zzz'", 1),
    (LOCK_D + "void f(mutex<e> *p) { }\n",
     UnknownIdentifier, "unknown payload struct 'e'", 4),
    (LOCK_D + "\nmutex<e> *f() { return 0; }\n",
     UnknownIdentifier, "unknown payload struct 'e'", 5),
    ("struct d { int n; };\nmutex<d> m = d { n = y };\n",
     UnknownIdentifier, "unknown identifier 'y'", 2),
    ("struct d { int n; };\nmutex<d> *p = d { n = 1 };\n",
     TypeCheckError, "a payload initializer needs a lock held by value", 2),
    (LOCK_D + "void f(guard<x> g) { drop(g); }\n", TypeCheckError, "x is not a lock", 4),
    (LOCK_D + "guard<m.n> f() { return 0; }\n", TypeCheckError, "m.n is not a lock", 4),
    (LOCK_D + "void f() { guard<m> g;\n g = x.acquire(); drop(g); }\n",
     TypeCheckError, "x is not a lock", 5),
    (LOCK_D + "void f() { guard<m> g;\n g = m.acquire();\n (*g).k = 1; drop(g); }\n",
     UnknownIdentifier, "lock m has no payload field 'k'", 6),
    (LOCK_D + "void f() { x = m.get_mut().k; }\n",
     UnknownIdentifier, "lock m has no payload field 'k'", 4),
    ("mutex_t m;\nint x;\nvoid f() { x = m.get_mut().n; }\n",
     UnknownIdentifier, "lock m has no payload field 'n'", 3),
    (TWO_LOCKS + "void f() { guard<m> g;\n g = q.acquire(); (*g).n = 1; drop(g); }\n",
     TypeCheckError, "guard g is for m, not q", 6),
    (TWO_LOCKS + "void r(guard<q> h) { drop(h); }\n"
     "void f() { guard<m> g; g = m.acquire();\n r(g); }\n",
     TypeCheckError, "guard g is for m, but r() takes a guard for q", 7),
    (TWO_LOCKS + "guard<q> r() { guard<q> h; h = q.acquire(); return h; }\n"
     "void f() { guard<m> g;\n g = r(); drop(g); }\n",
     TypeCheckError, "guard g is for m, but r() returns a guard for q", 7),
    (TWO_LOCKS + "(int, guard<p.m>) r(struct s *p) { guard<p.m> h; h = p.m.acquire(); "
     "return (1, h); }\nint k; struct s x; struct s y;\n"
     "void f() { guard<x.m> g;\n (k, g) = r(&y); drop(g); }\n",
     TypeCheckError, "guard g is for x.m, but r() returns a guard for y.m", 8),
    (TWO_LOCKS + "guard<p.m> r(guard<q> h, struct s *p) { guard<p.m> k; drop(h); "
     "k = p.m.acquire(); return k; }\nstruct s x; struct s y;\n"
     "void f() { guard<x.m> g;\n g = r(&y); drop(g); }\n",
     TypeCheckError, "r() takes 2 arguments, got 1", 8),
], ids=["guard-of-an-int", "field-payload", "param-payload", "return-payload",
        "init-expression", "init-through-a-pointer", "guard-param", "guard-return",
        "acquire", "guard-deref-field", "get-mut-field", "plain-mutex-payload",
        "acquire-another-lock", "guard-argument-for-another-lock",
        "guard-target-for-another-lock", "tuple-target-through-a-parameter",
        "target-of-a-call-without-guard-arguments"])
def test_the_guarded_resolver_types_every_lock_path(source, error, message, line):
    with pytest.raises(error) as exc:
        parse_guarded(source)
    assert (exc.value.message, exc.value.line) == (message, line)


@pytest.mark.parametrize("source, message, line", [
    (LOCK_D + "void f() {\n guard<m> g;\n guard<m> g;\n g = m.acquire(); drop(g); }\n",
     "duplicate guard 'g' in f", 6),
    (LOCK_D + "void f(int g) {\n guard<m> g;\n g = m.acquire(); drop(g); }\n",
     "guard 'g' shadows a parameter of f", 5),
    (LOCK_D + "void f(guard<m> g) {\n guard<m> g;\n drop(g); }\n",
     "guard 'g' shadows a parameter of f", 5),
    ("struct d { int n; };\nmutex<d> m = d { n = 0, n = 1 };\n",
     "duplicate field 'n' in the initializer of m", 2),
], ids=["guard-twice", "guard-named-like-a-parameter", "guard-named-like-a-guard-parameter",
        "payload-field-initialized-twice"])
def test_guarded_name_resolution_errors(source, message, line):
    """A function's parameters and guards are distinct; the checker would
    otherwise see one guard where the program declares two. A payload
    initializer names each field once."""
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(source)
    assert (exc.value.message, exc.value.line) == (message, line)


@pytest.mark.parametrize("dialect", [parse, parse_guarded], ids=["plain", "guarded"])
@pytest.mark.parametrize("source, message, line", [
    ("int n;\nvoid pthread_mutex_lock(int a) { n = a; }\n",
     "function 'pthread_mutex_lock' is named like the lock API", 2),
    ("int n;\n\nint pthread_create;\n",
     "global 'pthread_create' is named like the lock API", 3),
], ids=["function", "global"])
def test_a_declaration_named_like_the_lock_api_is_rejected(dialect, source, message, line):
    """Every call by a lock-API name resolves as the API, so such a
    declaration could never be reached."""
    with pytest.raises(TypeCheckError) as exc:
        dialect(source)
    assert (exc.value.message, exc.value.line) == (message, line)


@pytest.mark.parametrize("dialect", [parse, parse_guarded], ids=["plain", "guarded"])
@pytest.mark.parametrize("source, message, line", [
    ("int _;\nmutex_t m;\nint f() { pthread_mutex_lock(&m); return 1; }\n"
     "void g() { _ = f(); pthread_mutex_unlock(&m); }\nvoid main() { g(); }\n",
     "global named '_': a target named '_' drops its value", 1),
    ("int n;\n\nvoid _() { n = 1; }\n",
     "function named '_': a target named '_' drops its value", 3),
    ("int n;\nvoid f(int k,\n int _) { n = k; }\n",
     "parameter named '_': a target named '_' drops its value", 2),
], ids=["global", "function", "parameter"])
def test_a_declaration_named_underscore_is_rejected(dialect, source, message, line):
    """A guarded target `_` drops its value, so a global `_` assigned a
    call's value would print as `(_, m_guard) = f();` and read back as a
    write to nothing."""
    with pytest.raises(TypeCheckError) as exc:
        dialect(source)
    assert (exc.value.message, exc.value.line) == (message, line)


def test_guard_paths_map_through_the_callees_parameters():
    program = parse_guarded(
        TWO_LOCKS + "(int, guard<p.m>) r(struct s *p, guard<p.m> h) { return (1, h); }\n"
        "int k;\nvoid f(struct s *x) { guard<x.m> g; g = x.m.acquire();\n"
        " (k, g) = r(x, g); drop(g); }\n")
    assert check(program) == []


@pytest.mark.parametrize("params, args", [
    ("guard<q> h, struct s *p", "&x"),
    ("guard<q> h, struct s *p, struct s *a", "&x, &y"),
], ids=["one-argument", "two-arguments"])
def test_a_call_without_guard_arguments_is_rejected(params, args):
    """A call passes every guard its callee takes: without them, its
    arguments match none of the callee's parameter lists."""
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(
            TWO_LOCKS + "guard<p.m> r(%s) { guard<p.m> k; drop(h); k = p.m.acquire(); "
            "return k; }\nstruct s x; struct s y;\n"
            "void f() { guard<x.m> g;\n g = r(%s); drop(g); }\n" % (params, args))
    n = params.count(",") + 1
    assert (exc.value.message, exc.value.line) == (
        "r() takes %d arguments, got %d" % (n, n - 1), 8)


# r takes a guard for p.m and hands back (int, guard for p.m, guard for q);
# r1 hands back a guard for q, and t two ints.
RETURNS_TWO_GUARDS = (
    TWO_LOCKS + "(int, guard<p.m>, guard<q>) r(struct s *p, guard<p.m> h) "
    "{ guard<q> k; k = q.acquire(); return (1, h, k); } guard<q> r1() "
    "{ guard<q> k; k = q.acquire(); return k; } (int, int) t() { return (1, 2); }\n"
    "int n; struct s x;\nstruct s *get() { return &x; }\n"
    "void f() { guard<x.m> g; guard<q> k; g = x.m.acquire();\n")


@pytest.mark.parametrize("body, message", [
    (" (n, g) = r(&x, g); drop(g); }\n", "r() returns 3 values, not 2"),
    (" (n, g, k, g) = r(&x, g); drop(g); }\n", "r() returns 3 values, not 4"),
    (" r(&x, g); }\n", "r() returns a guard for p.m, not a value"),
    (" n = r(&x, g); }\n", "r() returns 3 values, not 1"),
    (" n = 1 + r(&x, g); }\n", "r() returns 3 values, not 1"),
    (" n = r1(); }\n", "r1() returns a guard for q, not a value"),
    (" n = t(); }\n", "t() returns 2 values, not 1"),
    (" (n, _, k) = r(&x, g); drop(k); }\n", "r() returns a guard for p.m, not a value"),
    (" (g, n, k) = r(&x, g); drop(k); }\n", "r() returns a value, not guard g"),
    (" (n, g, k) = r(&x, n); drop(g); drop(k); }\n", "r() takes a guard for p.m, not a value"),
    (" (n, g, k) = r(g, g); drop(g); drop(k); }\n", "r() takes a value, not guard g"),
    (" (n, g, k) = r(get(), g); drop(g); drop(k); }\n",
     "r() takes a guard whose lock the call cannot name: argument for "
     "parameter 'p' is not a place (lock path p.m)"),
    (" n = (n, k); }\n", "a tuple is only a return value or a target list"),
    (" (n, n); }\n", "a tuple is only a return value or a target list"),
], ids=["short-target-list", "long-target-list", "bare-call-drops-returned-guards",
        "assignment-drops-returned-guards", "call-in-an-expression",
        "assignment-drops-the-returned-guard", "assignment-of-a-tuple",
        "returned-guard-discarded", "guard-target-for-a-value", "value-for-a-guard",
        "guard-for-a-value", "guard-path-through-a-non-place",
        "tuple-as-an-assigned-value", "tuple-as-a-statement"])
def test_a_call_has_one_guarded_shape(body, message):
    """A call passes every guard its callee takes and receives every guard it
    returns, each in its own slot."""
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(RETURNS_TWO_GUARDS + body)
    assert (exc.value.message, exc.value.line) == (message, 9)
    # The same call with every guard in its slot is accepted.
    ok = RETURNS_TWO_GUARDS + " (n, g, k) = r(&x, g); drop(g); drop(k); }\n"
    assert check(parse_guarded(ok)) == []


def test_every_call_statement_is_a_call_assign(corpus):
    """parse, the transformer and parse_guarded of the printed text each make
    one CallAssign of every statement whose value is a call, so no Assign
    holds a call."""
    calls = 0
    for name, run in analyzed(corpus):
        # guarded is None where the transformer refused the program
        programs = [p for p in (run.program, run.guarded, run.reparsed) if p is not None]
        for s in (s for p in programs for fn in p.functions for s in iter_stmts(fn.body)):
            value = s.value if isinstance(s, Assign) else None
            assert not isinstance(value, Call), (name, s.line)
            calls += isinstance(s, CallAssign)
    assert calls > 4000


@pytest.mark.parametrize("stmt", ["_ = one();", "(_) = one();"])
def test_a_bare_underscore_target_drops_the_value(stmt):
    """`_` is the target print_guarded writes for a dropped value, on its
    own as in a list."""
    printed = "int one() { return 1; }\nvoid f() { _ = one(); }\n"
    program = parse_guarded(printed.replace("_ = one();", stmt))
    s = program.function("f").body.stmts[0]
    assert isinstance(s, CallAssign) and isinstance(s.targets[0], Discard)
    assert print_guarded(program) == printed


def test_printer_preserves_statement_lines():
    printed = print_source(parse(fixture_text("listing1.mc")))
    lines = printed.split("\n")
    assert "pthread_mutex_lock(&m);" in lines[4]
    assert "pthread_mutex_lock(&m);" in lines[14]
    assert lines[17].startswith("void h(struct s *x)")


# -- one-step operands, payload accesses and guard types -------------------

def tree(node):
    """node as nested tuples of its class and field values, to compare the
    trees two parse paths build."""
    if isinstance(node, (list, tuple)):
        return [tree(x) for x in node]
    if isinstance(node, Record):
        return (type(node).__name__,) + tuple(tree(v) for v in fields(node).values())
    return node


# A lock whose payload holds an int, a struct, a pointer to one and a
# pointer to an int; the statements of f's body start on line 7.
PAYLOADS = ("struct q { int a; };\nstruct d { int n; struct q s; struct q *r; int *p; };\n"
            "mutex<d> m;\nint k;\n")


def payload_body(stmts: str) -> str:
    return PAYLOADS + "void f() { guard<m> g;\n g = m.acquire();\n " + stmts + "\n drop(g); }\n"


@pytest.mark.parametrize("one_step, general", [
    ("(*g).n = 1;", "(*(g)).n = 1;"),
    ("(* g).n = 1;", "(*(g)).n = 1;"),
    ("(*g)->n = 1;", "(*(g))->n = 1;"),
    ("(*g).s.a = 1;", "(*(g)).s.a = 1;"),
    ("(*g).r->a = 1;", "(*(g)).r->a = 1;"),
    ("k = (*g).n + (*g).s.a;", "k = (*(g)).n + (*(g)).s.a;"),
    ("k = *(*g).p;", "k = *(*(g)).p;"),
], ids=["field", "spaced", "arrow", "then-dot", "then-arrow", "operands", "dereferenced"])
def test_a_payload_access_in_one_step_is_the_general_tree(one_step, general):
    """`(*g).f` becomes one PayloadAccess where `(*g)` is recognised; a
    `(*g)` the general path builds becomes the same node at its field."""
    first = parse_guarded(payload_body(one_step)).function("f").body.stmts[1]
    assert tree(first) == tree(parse_guarded(payload_body(general)).function("f").body.stmts[1])


def test_a_payload_access_then_a_field_is_a_field_of_the_payload_access():
    s = parse_guarded(payload_body("(*g).r->a = 1;")).function("f").body.stmts[1]
    assert tree(s.place) == (
        "FieldAccess", ("PayloadAccess", ["m"], "r", "g"), "a", True, "q",
        ("Type", "int", None, None, 0))


@pytest.mark.parametrize("dialect, leaf", [
    (parse, "k"), (parse, "7"),
    (parse_guarded, "k"), (parse_guarded, "7"), (parse_guarded, "g"),
    (parse_guarded, "(*g)"), (parse_guarded, "(*g).n"), (parse_guarded, "(* g).n"),
], ids=["plain-name", "plain-number", "name", "number", "guard", "payload",
        "payload-field", "spaced-payload-field"])
def test_a_leaf_adds_no_level(dialect, leaf):
    """Inside NESTING_LIMIT parentheses a leaf is at the limit, and a sum of
    it inside one fewer; one more parenthesis, or the sum inside as many,
    opens level 101 there. A guard and a guard's whole payload are no
    values, so their two programs at the limit parse and then fail to
    resolve, at the leaf."""
    def program(parens: int, expr: str) -> str:
        stmt = "k = " + "(" * parens + expr + ")" * parens + ";"
        if dialect is parse:
            return "int k;\nint n;\nint o;\nint p;\nvoid f() {\n\n " + stmt + "\n}\n"
        return payload_body(stmt)

    limit = parser.NESTING_LIMIT
    rejected = {"g": "guard g is not a value", "(*g)": "cannot read whole struct values"}
    for parens, expr in ((limit, leaf), (limit - 1, leaf + " + 1")):
        if leaf in rejected:
            with pytest.raises(TypeCheckError) as exc:
                dialect(program(parens, expr))
            assert (exc.value.message, exc.value.line) == (rejected[leaf], 7)
        else:
            dialect(program(parens, expr))
    for parens, expr, at in ((limit + 1, leaf, "(" * (limit + 1)), (limit, leaf + " + 1", "+")):
        source = program(parens, expr)
        with pytest.raises(ParseError) as exc:
            dialect(source)
        line = source.split("\n")[6]
        col = line.index(at) + len(at) if at.startswith("(") else line.index(at) + 1
        assert (exc.value.message, exc.value.line, exc.value.col) == (
            "nested too deeply (the limit is 100 levels)", 7, col)


def test_a_tuple_is_as_high_as_its_highest_item():
    """A tuple whose later item is its highest sits one level above that
    item: a sum on it, with the item inside 98 parentheses, parses and then
    fails to resolve; inside 99 it opens level 101 at its `+`."""
    def source(parens: int) -> str:
        return payload_body("k = (0, " + "(" * parens + "g" + ")" * parens + ") + 1;")

    limit = parser.NESTING_LIMIT
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(source(limit - 2))
    assert exc.value.message == "a tuple is only a return value or a target list"
    with pytest.raises(ParseError) as exc:
        parse_guarded(source(limit - 1))
    col = source(limit - 1).split("\n")[6].index("+") + 1
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "nested too deeply (the limit is 100 levels)", 7, col)


def test_guard_types_with_a_longer_path_or_a_pointer():
    """`guard<a.b>` and `guard<m> *` take the general path of parse_type,
    and `guard<a.b>` that of a guard declaration."""
    program = parse_guarded(
        "struct d { int n; };\nstruct s { mutex<d> b; };\nstruct s a;\nmutex<d> m;\n"
        "void f(guard<a.b> g, guard<m> *p) { guard<a . b> h; drop(g); }\n")
    fn = program.function("f")
    assert [tree(p.ty) for p in fn.params] == [
        ("Type", "guard", None, ["a", "b"], 0),
        ("Type", "guard", None, ["m"], 1)]
    assert fn.guard_decls[0].path == ("a", "b")


def test_a_guarded_program_has_one_path_object_per_lock_path():
    """The lock paths of guard types and guard declarations are shared, so
    the resolver compares a guard's path with the one a call needs by
    identity."""
    program = parse_guarded(RETURNS_TWO_GUARDS + " (n, g, k) = r(&x, g); drop(g); drop(k); }\n")
    paths = [d.path for fn in program.functions for d in fn.guard_decls]
    paths += [ty.path for fn in program.functions
              for ty in (*fn.rets, *(p.ty for p in fn.params)) if ty.kind == "guard"]
    assert len({id(p) for p in paths}) == len(set(paths)) == 3


# -- places rooted at a payload access, returns and void values -----------

@pytest.mark.parametrize("stmt", [
    "(*g).r->a = 1;", "m.get_mut().r->a = 1;", "k = (*g).r->a;", "(*g).s.a = (*g).n;",
    "*(*g).p = 1;", "(*g).p = &(*g).r->a;", "(*g).p = &m.get_mut().s.a;",
    "(*g).s = (*g).s;",
], ids=["arrow", "get-mut-arrow", "read", "field-of-a-struct", "through-a-pointer",
        "address-of", "address-of-get-mut", "whole-payload-field"])
def test_a_place_rooted_at_a_payload_access_is_typed(stmt):
    """A payload access has its field's declared type, so a field or
    dereference of it is a place, to assign and to take the address of. A
    payload field itself is assigned whole, as before."""
    program = parse_guarded(payload_body(stmt))
    assert print_guarded(program) == print_guarded(parse_guarded(print_guarded(program)))
    assert check(program) == []


@pytest.mark.parametrize("stmt, error, message", [
    ("*(*g).n = 1;", TypeCheckError, "cannot dereference a non-pointer"),
    ("(*g).n.a = 1;", TypeCheckError, "field access 'a' on a non-struct value"),
    ("(*g).r->b = 1;", UnknownIdentifier, "struct 'q' has no field 'b'"),
], ids=["dereference-an-int", "field-of-an-int", "unknown-field"])
def test_a_payload_field_is_checked_like_any_place(stmt, error, message):
    with pytest.raises(error) as exc:
        parse_guarded(payload_body(stmt))
    assert (exc.value.message, exc.value.line) == (message, 7)


@pytest.mark.parametrize("dialect, source, message, line", [
    (parse, "int n;\nmutex_t m;\nvoid f() { pthread_mutex_lock(&m);\n return 1; }\n",
     "f() returns void, not a value", 4),
    (parse_guarded, TWO_LOCKS + "guard<m> f() { guard<q> g;\n g = q.acquire();\n return g; }\n",
     "guard g is for q, but f() returns a guard for m", 7),
    (parse_guarded, TWO_LOCKS + "guard<m> f() { guard<m> g; g = m.acquire();\n"
     " return (1, g); }\n", "f() returns 1 values, not 2", 6),
    (parse_guarded, TWO_LOCKS + "(int, guard<m>) f() { guard<m> g; g = m.acquire();\n"
     " return (g, 1); }\n", "f() returns a value, not guard g", 6),
    (parse_guarded, TWO_LOCKS + "guard<m> f() {\n return 0; }\n",
     "f() returns a guard for m, not a value", 6),
    (parse_guarded, TWO_LOCKS + "guard<m> f() {\n return; }\n",
     "f() returns 1 values, not 0", 6),
    (parse, "int n;\nint f() { n = 1;\n return; }\n", "f() returns 1 values, not 0", 3),
    (parse_guarded, TWO_LOCKS + "(int, guard<m>) f() { guard<m> g; g = m.acquire();\n"
     " return; }\n", "f() returns 2 values, not 0", 6),
    (parse_guarded, TWO_LOCKS + "void f() { guard<m> g; g = m.acquire();\n return g; }\n",
     "f() returns void, not a value", 6),
    (parse_guarded, TWO_LOCKS + "(int, guard<m>) f() { guard<m> g; g = m.acquire();\n"
     " return (1, g, g); }\n", "f() returns 2 values, not 3", 6),
], ids=["plain-void-returns-a-value", "guard-for-another-lock", "tuple-for-one-value",
        "value-and-guard-swapped", "value-for-a-guard", "nothing-for-a-guard",
        "nothing-for-a-value", "nothing-for-a-value-and-a-guard",
        "guarded-void-returns-a-guard", "too-many-values"])
def test_a_return_gives_what_its_function_returns(dialect, source, message, line):
    with pytest.raises(TypeCheckError) as exc:
        dialect(source)
    assert (exc.value.message, exc.value.line) == (message, line)


@pytest.mark.parametrize("dialect, source, line", [
    (parse, "int n;\nint f() { if (n) {\n return 1; }\n}\n", 4),
    (parse, "int n;\nint main() { while (n) { return 1; }\n}\n", 3),
    (parse_guarded, TWO_LOCKS + "guard<m> f() { guard<m> g; g = m.acquire();\n}\n", 6),
], ids=["if-without-else", "main-after-a-loop", "guard"])
def test_a_function_that_returns_a_value_cannot_reach_its_end(dialect, source, line):
    """As in Rust: a function with a value or a guard to return returns on
    every path, main included, and a loop may always be left."""
    with pytest.raises(TypeCheckError) as exc:
        dialect(source)
    name = "main" if "main" in source else "f"
    assert (exc.value.message, exc.value.line) == (
        "%s() can reach its end without a return" % name, line)


@pytest.mark.parametrize("dialect", [parse, parse_guarded], ids=["plain", "guarded"])
@pytest.mark.parametrize("source, message, line", [
    ("int n;\n\nvoid x;\n", "global 'x' has type void", 3),
    ("struct s {\n int a;\n void b; };\n", "field 'b' in struct s has type void", 1),
    ("int n;\nint f(int a,\n void b) { return a; }\n", "parameter 'b' in f has type void", 2),
], ids=["global", "field", "parameter"])
def test_a_declaration_of_a_plain_void_value_is_rejected(dialect, source, message, line):
    with pytest.raises(TypeCheckError) as exc:
        dialect(source)
    assert (exc.value.message, exc.value.line) == (message, line)
    # A pointer to void holds a value.
    dialect(source.replace("void", "void *"))


def test_a_global_initializer_reads_only_checked_types():
    """Every global's type is checked before any initializer resolves, so a
    field read through a later global of an unknown struct is a located
    error, not a crash."""
    with pytest.raises(UnknownIdentifier) as exc:
        parse("int a = b.x;\nstruct zz b;\n")
    assert (exc.value.message, exc.value.line) == ("unknown struct 'zz'", 2)


# -- values read -------------------------------------------------------------

# The statement of values_body is on line 9.
VALUES = ("struct q { int a; };\nmutex_t m;\nthread_t t;\nthread_t u;\nstruct q s;\n"
          "struct q *r;\nint k;\n")


def values_body(stmt: str) -> str:
    return VALUES + "void f() {\n " + stmt + "\n}\n"


@pytest.mark.parametrize("dialect", [parse, parse_guarded], ids=["plain", "guarded"])
@pytest.mark.parametrize("stmt, message", [
    ("k = m + 1;", "cannot read whole mutex values"),
    ("k = 1 + t;", "cannot read whole thread values"),
    ("k = t;", "cannot read whole thread values"),
    ("k = s;", "cannot read whole struct values"),
    ("k = *r;", "cannot read whole struct values"),
    ("if (m) { k = 1; }", "cannot read whole mutex values"),
    ("while (s) { k = 1; }", "cannot read whole struct values"),
    ("m;", "cannot read whole mutex values"),
    ("*r;", "cannot read whole struct values"),
], ids=["mutex-operand", "thread-operand", "thread", "struct", "dereferenced-struct",
        "mutex-condition", "struct-condition", "mutex-statement", "struct-statement"])
def test_a_lock_thread_or_struct_is_no_value(dialect, stmt, message):
    """An operand, a condition, a statement `value;` and the right side of
    `=` are read as values: none is a lock, thread handle or struct held by
    value."""
    with pytest.raises(TypeCheckError) as exc:
        dialect(values_body(stmt))
    assert (exc.value.message, exc.value.line) == (message, 9)


@pytest.mark.parametrize("stmt", [
    "k = g + 1;", "k = 1 - g;", "k = g;", "if (g) { k = 1; }", "while (k < g) { k = 1; }",
    "g;",
], ids=["operand", "right-operand", "assigned", "condition", "in-a-condition", "statement"])
def test_a_guard_is_no_value(stmt):
    """`g;` too: a guard statement is no hidden second drop(g)."""
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(payload_body(stmt))
    assert (exc.value.message, exc.value.line) == ("guard g is not a value", 7)


@pytest.mark.parametrize("stmt", ["k = (*g);", "k = (*g) + 1;", "(*g);", "if ((*g)) { k = 1; }"],
                         ids=["assigned", "operand", "statement", "condition"])
def test_a_guards_whole_payload_is_no_value(stmt):
    """`(*g)` is the payload struct of a mutex<P> guard, held by value."""
    with pytest.raises(TypeCheckError) as exc:
        parse_guarded(payload_body(stmt))
    assert (exc.value.message, exc.value.line) == ("cannot read whole struct values", 7)


def test_the_payload_of_a_plain_mutex_guard_has_no_type():
    parse_guarded("mutex_t m;\nint k;\n"
                  "void f() { guard<m> g; g = m.acquire(); k = (*g); drop(g); }\n")


@pytest.mark.parametrize("dialect", [parse, parse_guarded], ids=["plain", "guarded"])
@pytest.mark.parametrize("param, arg, message", [
    ("int x", "m", "cannot read whole mutex values"),
    ("int x", "t", "cannot read whole thread values"),
    ("int *x", "*r", "cannot read whole struct values"),
    ("struct q *x", "s", "cannot read whole struct values"),
], ids=["mutex", "thread", "dereferenced-struct", "struct-for-a-pointer"])
def test_an_argument_is_read_into_its_parameter(dialect, param, arg, message):
    """An argument is read into its parameter as the right side of `=` is
    into its place."""
    source = VALUES + "void h(%s) { }\nvoid f() { h(%s); }\n" % (param, arg)
    with pytest.raises(TypeCheckError) as exc:
        dialect(source)
    assert (exc.value.message, exc.value.line) == (message, 9)


@pytest.mark.parametrize("dialect", [parse, parse_guarded], ids=["plain", "guarded"])
def test_a_global_initializer_is_read_as_a_value(dialect):
    with pytest.raises(TypeCheckError) as exc:
        dialect(VALUES + "\nint j = s;\n")
    assert (exc.value.message, exc.value.line) == ("cannot read whole struct values", 9)


@pytest.mark.parametrize("dialect", [parse, parse_guarded], ids=["plain", "guarded"])
def test_pointers_fields_and_a_copied_handle_are_values(dialect):
    """A pointer to a lock, thread or struct is a value, and so is a field
    of a struct. A thread handle is copied into a thread_t place or
    parameter."""
    dialect(values_body("k = r == 0; r = &s; k = s.a + r->a; t = u; h(u); if (&m) { k = 1; }")
            + "void h(thread_t x) { }\n")
