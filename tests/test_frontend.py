"""Lexer, parser, resolver, and printer behavior for both dialects."""
from __future__ import annotations

import pytest

from lockshift import parser
from lockshift.ast import Binary, Call, Deref, ExprStmt
from lockshift.diagnostics import ParseError, TypeCheckError, UnknownIdentifier
from lockshift.lexer import tokenize
from lockshift.parser import parse, parse_guarded
from lockshift.printer import expr_text, print_guarded, print_source

from helpers import corpus_paths, fixture_text


def first_call_paths(source: str) -> list[str]:
    """Canonical lock-path text of every standalone lock-API call, in order."""
    program = parse(source)
    out = []
    for fn in program.functions:
        for s in fn.body.stmts:
            if isinstance(s, ExprStmt) and isinstance(s.expr, Call):
                out.append(s.expr.lock.text)
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
        pthread_mutex_unlock(&mut inst.m);
    }
    """
    assert first_call_paths(source) == ["a.m", "a.m", "inst.m", "inst.m"]


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
    with pytest.raises(TypeCheckError, match="used as a value"):
        parse("int n;\nvoid g() { }\nvoid f() { n = g; }\n")


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


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("int n\nint k;\n")
    assert exc.value.line == 2
    assert exc.value.col >= 1


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


def test_guarded_dialect_constructs():
    gp = parse_guarded(fixture_text("listing1.gmc"))
    assert [d.name for d in gp.lock_decls] == ["m"]
    assert gp.lock_decls[0].payload == "mData"
    lock_fn = gp.function("lock")
    assert [t.kind for t in lock_fn.rets] == ["guard"]
    unlock_fn = gp.function("unlock")
    assert [p.ty.kind for p in unlock_fn.params] == ["guard"]
    assert [d.guard for d in gp.function("foo").guard_decls] == ["m_guard"]


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


def test_printer_preserves_statement_lines():
    printed = print_source(parse(fixture_text("listing1.mc")))
    lines = printed.split("\n")
    assert "pthread_mutex_lock(&m);" in lines[4]
    assert "pthread_mutex_lock(&m);" in lines[14]
    assert lines[17].startswith("void h(struct s *x)")
