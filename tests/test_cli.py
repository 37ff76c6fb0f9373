"""End-to-end runs of the command-line driver."""

import json
import shutil

import pytest

from lockshift.cli import main
from lockshift.diagnostics import ParseError
from lockshift.parser import NESTING_LIMIT, parse, parse_guarded
from lockshift.printer import print_guarded

from helpers import CORPUS, FIXTURES, LOCK_PATH_THROUGH_A_DATUM, THROUGH_A_DATUM, fixture_text


def place(tmp_path, name, source_dir=None):
    src = (source_dir or FIXTURES) / name
    dst = tmp_path / name
    shutil.copy(src, dst)
    return dst


def test_analyze_prints_the_summary(capsys):
    code = main(["analyze", str(FIXTURES / "listing1.mc")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == fixture_text("listing1.summary.json")


def test_analyze_can_write_the_summary_to_a_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["analyze", str(FIXTURES / "listing1.mc"),
                 "--emit-summary", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == fixture_text("listing1.summary.json")


def test_transform_prints_the_guarded_program(capsys):
    code = main(["transform", str(FIXTURES / "listing1.mc")])
    assert code == 0
    assert capsys.readouterr().out == fixture_text("listing1.gmc")


def test_transform_can_write_to_a_file(tmp_path, capsys):
    target = tmp_path / "out.gmc"
    code = main(["transform", str(FIXTURES / "listing1.mc"), "-o", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == fixture_text("listing1.gmc")


def test_transform_accepts_a_precomputed_summary(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    src = str(FIXTURES / "listing1.mc")
    assert main(["analyze", src, "--emit-summary", str(summary)]) == 0
    code = main(["transform", src, "--use-summary", str(summary)])
    assert code == 0
    assert capsys.readouterr().out == fixture_text("listing1.gmc")


def test_a_summary_for_some_other_program_fails_cleanly(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text('{"global_lock_map": {"ghost": "m"}}')
    code = main(["transform", str(FIXTURES / "listing1.mc"),
                 "--use-summary", str(summary)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "$.global_lock_map.ghost" in captured.err


SUMMARY_TARGET = """\
struct s { int a; mutex_t k; };
struct s x;
struct s *px;
int n;
mutex_t m;
mutex_t m2;
void g() {
    n = n + 1;
    x.a = 1;
}
void main() {
    g();
}
"""


def transform_with(tmp_path, summary: str):
    src = tmp_path / "p.mc"
    src.write_text(SUMMARY_TARGET)
    (tmp_path / "s.json").write_text(summary)
    out = tmp_path / "out.gmc"
    code = main(["transform", str(src), "--use-summary", str(tmp_path / "s.json"),
                 "-o", str(out)])
    return code, out


# Printed as-is, each of these gives guarded code that `check` cannot parse
# or type, e.g. `guard<m..x>`, or `m.get_mut().x.a` for a struct moved into
# a payload.
@pytest.mark.parametrize("summary, path", [
    ('{"function_map": {"g": {"entry_lock": ["m..x"]}}}', "$.function_map.g.entry_lock"),
    ('{"function_map": {"g": {"entry_lock": ["m."]}}}', "$.function_map.g.entry_lock"),
    ('{"function_map": {"g": {"entry_lock": [""]}}}', "$.function_map.g.entry_lock"),
    ('{"function_map": {"g": {"return_lock": ["x.int"]}}}',
     "$.function_map.g.return_lock"),
    ('{"function_map": {"g": {"lock_line": {"x.k-1": [8]}}}}',
     "$.function_map.g.lock_line"),
    ('{"function_map": {"g": {"lock_line": {"m..x": [1]}}}}',
     "$.function_map.g.lock_line"),
    ('{"global_lock_map": {"x": "m"}}', "$.global_lock_map.x"),
    ('{"global_lock_map": {"m2": "m"}}', "$.global_lock_map.m2"),
])
def test_a_summary_with_unprintable_locks_fails_cleanly(tmp_path, capsys, summary, path):
    code, out = transform_with(tmp_path, summary)
    captured = capsys.readouterr()
    assert code == 1
    assert ": error: %s: " % path in captured.err
    assert not out.exists()


DATA_AS_LOCK = """\
struct s { int a; mutex_t k; };
struct s x;
int n;
mutex_t m;
void f() { n = 2; }
void main() { pthread_mutex_lock(&m); f(); pthread_mutex_unlock(&m); }
"""


# Each path starts at a global but names data, not a lock. Taking n as f's
# entry and return lock, `full` printed `guard<n> f(guard<n> n_guard)`,
# exited 2 with `UseOfUninit: n_guard in main`, and `check` on the written
# file failed with "n is not a lock".
@pytest.mark.parametrize("summary, path", [
    ('{"function_map": {"f": {"entry_lock": ["n"], "return_lock": ["n"]}}}',
     "$.function_map.f.entry_lock"),
    ('{"function_map": {"f": {"return_lock": ["x.a"]}}}',
     "$.function_map.f.return_lock"),
    ('{"function_map": {"f": {"lock_line": {"x": [5]}}}}',
     "$.function_map.f.lock_line"),
], ids=["global", "field", "struct"])
def test_a_summary_lock_path_that_names_no_lock_fails_cleanly(
        tmp_path, capsys, summary, path):
    src = tmp_path / "p.mc"
    src.write_text(DATA_AS_LOCK)
    (tmp_path / "s.json").write_text(summary)
    out = tmp_path / "out.gmc"
    code = main(["full", str(src), "--use-summary", str(tmp_path / "s.json"),
                 "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert ": error: %s: " % path in captured.err
    assert "is not a lock" in captured.err
    assert not out.exists()


def test_a_summary_protecting_ints_and_pointers_is_accepted(tmp_path, capsys):
    code, out = transform_with(tmp_path, '{"global_lock_map": {"n": "m", "px": "m"}}')
    assert code == 0
    assert "m.get_mut().n" in out.read_text()
    assert main(["check", str(out)]) == 0


def test_check_accepts_the_golden_output(capsys):
    code = main(["check", str(FIXTURES / "listing1.gmc")])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_check_reports_ownership_errors_with_positions(capsys):
    path = str(FIXTURES / "path_divergent.gmc")
    code = main(["check", path])
    assert code == 2
    assert capsys.readouterr().out == (
        "%s:7: ConflictingPaths: m_guard in f\n" % path)


def test_the_check_flag_is_an_alias_for_the_subcommand(capsys):
    path = str(FIXTURES / "path_divergent.gmc")
    assert main(["--check", path]) == 2
    first = capsys.readouterr().out
    assert main(["full", "--check", path]) == 2
    assert capsys.readouterr().out == first


def test_full_rejects_a_conditional_acquisition(tmp_path, capsys):
    src = place(tmp_path, "cond_acq.mc")
    target = tmp_path / "out.gmc"
    code = main(["full", str(src), "-o", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith("%s:14: UseOfUninit: m_guard in main\n" % src)
    assert "m_guard = m.acquire();" in target.read_text()


def test_full_prints_a_program_that_check_reads_and_rejects_alike(tmp_path, capsys):
    # full's errors go to stderr, so its stdout is the guarded program alone.
    src = place(tmp_path, "cond_acq.mc")
    error = ":14: UseOfUninit: m_guard in main\n"
    assert main(["full", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(str(src) + error)
    parse_guarded(captured.out)
    target = tmp_path / "out.gmc"
    target.write_text(captured.out)
    assert main(["check", str(target)]) == 2
    assert capsys.readouterr() == (str(target) + error, "")


def test_transform_alone_does_not_judge_the_output(tmp_path, capsys):
    src = place(tmp_path, "cond_acq.mc")
    assert main(["transform", str(src)]) == 0
    capsys.readouterr()


def test_parse_errors_exit_with_one(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_text("void f( {\n")
    code = main(["analyze", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("%s:1:9: error:" % bad)


def test_error_lines_carry_the_column(tmp_path, capsys):
    bad = tmp_path / "x.mc"
    bad.write_text("int n;\nvoid main() {\n    n = \u0663;\n}\n")
    assert main(["full", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "%s:3:9: error: unexpected character '\u0663'\n" % bad)


def test_error_lines_without_a_column_keep_the_line_form(tmp_path, capsys):
    bad = tmp_path / "dup.mc"
    bad.write_text("int n;\nint n;\n")
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err == "%s:2: error: duplicate global 'n'\n" % bad


@pytest.mark.parametrize("mode, name, source, error", [
    ("analyze", "field.mc", "int n;\nstruct s { int a; mutex_t a; };\n",
     "2: error: duplicate field 'a' in struct s"),
    ("check", "guard.gmc", "struct d { int n; };\nmutex<d> m;\nvoid f() {\n"
     "    guard<m> g;\n    guard<m> g;\n    g = m.acquire(); drop(g); }\n",
     "5: error: duplicate guard 'g' in f"),
], ids=["duplicate-field", "duplicate-guard"])
def test_a_name_declared_twice_in_one_scope_exits_with_one(tmp_path, capsys, mode, name,
                                                           source, error):
    bad = tmp_path / name
    bad.write_text(source)
    assert main([mode, str(bad)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "%s:%s\n" % (bad, error))


def _parens(n):
    return "int c;\nvoid main() { c = " + "(" * n + "c" + ")" * n + "; }\n"


def _sum(n):
    # c is protected by m, so the output reads it through `(*m_guard).c`
    return ("int c;\nmutex_t m;\nthread_t t;\nvoid w() { pthread_mutex_lock(&m); c = "
            + " + ".join(["c"] * (n + 1))
            + "; pthread_mutex_unlock(&m); }\nvoid main() { pthread_create(&t, w); }\n")


def _ifs(n):
    return "int c;\nvoid main() {\n" + "if (c) {\n" * n + "c = 1;\n" + "}\n" * n + "}\n"


def _else_ifs(n):
    return "int c;\nvoid main() {\nif (c) c = 0;\n" + "else if (c) c = 1;\n" * (n - 1) + "}\n"


def _address_ofs(n):
    return "int c;\nint *p;\nvoid main() { p = " + "&" * n + "c; }\n"


def _field_chain(n):
    return ("struct s { struct s *f; int a; };\nstruct s *p;\nint c;\nvoid main() { c = p"
            + "->f" * (n - 1) + "->a; }\n")


def _calls(n):
    return ("int c;\nint f(int x) { return x; }\nvoid main() { c = "
            + "f(" * n + "1" + ")" * n + "; }\n")


# shape -> (source nesting n levels deep, n of a deep input, (line, col)
#           where level 101 opens)
NESTING_SHAPES = {
    "parentheses": (_parens, 200, (2, 119)),
    "sum": (_sum, 999, (4, 442)),
    "ifs": (_ifs, 1000, (103, 8)),
    "else_ifs": (_else_ifs, 1000, (103, 13)),
    "address_ofs": (_address_ofs, 3000, (3, 119)),
    "field_chain": (_field_chain, 3000, (4, 320)),
    "calls": (_calls, 3000, (3, 220)),
}


@pytest.mark.parametrize("name", NESTING_SHAPES)
def test_deep_nesting_exits_with_one(tmp_path, capsys, name):
    make, deep, (line, col) = NESTING_SHAPES[name]
    assert NESTING_LIMIT == 100
    src = tmp_path / "deep.mc"
    for n in (deep, NESTING_LIMIT + 1):
        src.write_text(make(n))
        assert main(["full", str(src)]) == 1
        assert capsys.readouterr().err == (
            "%s:%d:%d: error: nested too deeply (the limit is 100 levels)\n"
            % (src, line, col))
        with pytest.raises(ParseError) as exc:
            parse(make(n))
        assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("name", NESTING_SHAPES)
def test_nesting_at_the_limit_runs_full(tmp_path, capsys, name):
    """Every phase walks the tree recursively; at the limit each stays
    under Python's recursion limit, and the output parses back."""
    src = tmp_path / "limit.mc"
    src.write_text(NESTING_SHAPES[name][0](NESTING_LIMIT))
    out = tmp_path / "limit.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().err == ""


def _tuple_return(n):
    # a tuple whose later item, the guard, is its highest
    return ("struct d { int n; };\nmutex<d> m;\n(int, guard<m>) f(guard<m> g) {\n"
            "    return (0, " + "(" * (n - 1) + "g" + ")" * (n - 1) + "); }\n")


def test_a_deep_guarded_tuple_exits_with_one(tmp_path, capsys):
    src = tmp_path / "deep.gmc"
    src.write_text(_tuple_return(NESTING_LIMIT))
    assert main(["check", str(src)]) == 0
    for n in (1000, NESTING_LIMIT + 1):
        src.write_text(_tuple_return(n))
        assert main(["check", str(src)]) == 1
        assert capsys.readouterr().err == (
            "%s:4:115: error: nested too deeply (the limit is 100 levels)\n" % src)
        with pytest.raises(ParseError) as exc:
            parse_guarded(_tuple_return(n))
        assert (exc.value.line, exc.value.col) == (4, 115)


def _grouped_sums(n):
    # `((c + c + …) + c + …)`: groups of one parenthesis pair and 39 `+`,
    # then as many `+` outside as make n levels
    groups, rest = divmod(n, 40)
    e = "c"
    for _ in range(groups):
        e = "(" + e + " + c" * 39 + ")"
    return "int c;\nvoid main() {\nc = " + e + " + c" * rest + ";\n}\n"


def test_a_first_operand_adds_its_levels_to_the_chain(tmp_path, capsys):
    """A left-deep chain puts its first operand at the bottom of the tree,
    so 40 groups of 39 operators nest 1,600 levels, though no token is
    inside more than 40 parentheses or after more than 39 operators of its
    group."""
    src = tmp_path / "deep.mc"
    src.write_text(_grouped_sums(1600))
    assert main(["full", str(src)]) == 1
    assert capsys.readouterr().err == (
        "%s:3:288: error: nested too deeply (the limit is 100 levels)\n" % src)
    with pytest.raises(ParseError) as exc:
        parse(_grouped_sums(1600))
    assert (exc.value.line, exc.value.col) == (3, 288)  # the 22nd `+` of group 2
    src.write_text(_grouped_sums(NESTING_LIMIT))
    out = tmp_path / "limit.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    with pytest.raises(ParseError):
        parse(_grouped_sums(NESTING_LIMIT + 1))


def _protected_initializers(count):
    decls = "".join("int a%d = 1 + 1;\n" % i for i in range(count))
    body = " ".join("a%d = 1;" % i for i in range(count))
    return (decls + "mutex_t m;\nthread_t t;\n"
            "void w() { pthread_mutex_lock(&m); " + body
            + " pthread_mutex_unlock(&m); }\nvoid main() { pthread_create(&t, w); }\n")


def test_a_lock_gathering_many_initializers_round_trips(tmp_path, capsys):
    """transform puts the initializers of every global a lock protects into
    the one lock declaration; their operators must not add up."""
    src = tmp_path / "inits.mc"
    src.write_text(_protected_initializers(NESTING_LIMIT + 1))
    out = tmp_path / "inits.gmc"
    assert main(["transform", str(src), "-o", str(out)]) == 0
    assert out.read_text().count("= 1 + 1") == NESTING_LIMIT + 1
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().err == ""


def _call_of_sums(n):
    params = ", ".join("int x%d" % i for i in range(n))
    return ("int c;\nint f(%s) { return x0; }\nvoid main() { c = f(%s); }\n"
            % (params, ", ".join(["c + c"] * n)))


def _sum(terms, op=" + "):
    return op.join(["c"] * terms)


# Inputs with more binary operators than the limit, none on a path longer
# than 61 levels.
FLAT_SHAPES = {
    "call_of_sums": _call_of_sums(150),
    "sum_of_products": "int c;\nvoid main() { c = %s; }\n" % " + ".join(["c * c"] * 60),
    "condition_and_body": "int c;\nvoid main() { if (%s) c = %s; }\n" % (_sum(61), _sum(42)),
}


@pytest.mark.parametrize("name", FLAT_SHAPES)
def test_operators_in_separate_subtrees_do_not_add_up(tmp_path, capsys, name):
    src = tmp_path / "flat.mc"
    src.write_text(FLAT_SHAPES[name])
    out = tmp_path / "flat.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_missing_inputs_exit_with_one(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "absent.mc")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["analyze"], "the following arguments are required: input"),
    (["analyze", "--bogus", "x.mc"], "unrecognized arguments: --bogus"),
    (["full", "x.mc", "--iteration-budget", "5"],
     "unrecognized arguments: --iteration-budget 5"),
], ids=["missing-input", "unknown-flag", "no-iteration-budget"])
def test_usage_errors_exit_with_one_not_the_rejection_code(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: lockshift")
    assert captured.err.endswith("error: %s\n" % message)


def test_help_exits_with_zero(capsys):
    assert main(["analyze", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: lockshift analyze")


def test_non_utf8_inputs_exit_with_one(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_bytes(b"int n;\xff\n")
    for mode in ("analyze", "full", "check"):
        assert main([mode, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "%s: error: not UTF-8 text (byte 0xff at offset 6)\n" % bad)


def test_a_non_utf8_summary_names_the_summary_file(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_bytes(b'{"x": "\xff"}')
    code = main(["transform", str(FIXTURES / "listing1.mc"),
                 "--use-summary", str(summary)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("%s: error: not UTF-8 text" % summary)


@pytest.mark.parametrize("text, message", [
    ('{"global_lock_map": ', "$: invalid JSON: Expecting value"),
    ('{"global_lock_map": {"n": 5}}', "$.global_lock_map.n: expected a string"),
])
def test_a_malformed_summary_names_the_summary_file(tmp_path, capsys, text, message):
    """A summary that is not well-formed is an error of that file; one that
    is well-formed but does not fit the program stays an error of the
    source."""
    src, summary = str(FIXTURES / "listing1.mc"), tmp_path / "summary.json"
    summary.write_text(text)
    code = main(["transform", src, "--use-summary", str(summary), "-o",
                 str(tmp_path / "out.gmc")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("%s: error: %s" % (summary, message))
    assert not (tmp_path / "out.gmc").exists()
    summary.write_text('{"global_lock_map": {"ghost": "m"}}')
    assert main(["transform", src, "--use-summary", str(summary)]) == 1
    assert capsys.readouterr().err.startswith("%s: error: $.global_lock_map.ghost" % src)


# The sweep over {f0, f1, f2} returns to the state it started its third
# sweep from: the lock g1 keeps cycling through the return sets.
NO_FIXPOINT = """\
mutex_t g1; int c; struct s { mutex_t m; }; struct s ga;
struct s *get() { return &ga; }
void f0(struct s *p) { pthread_mutex_unlock(&g1); f1(get()); }
void f1(struct s *p) { if (c) { f2(p); } }
void f2(struct s *p) { f0(&ga); }
"""


def test_no_fixpoint_exits_with_one(tmp_path, capsys):
    src = tmp_path / "cycle.mc"
    src.write_text(NO_FIXPOINT)
    code = main(["analyze", str(src)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.endswith(
        "error: lock-set fixpoint for {f0, f1, f2} does not converge: "
        "sweep 5 starts where sweep 3 did\n")


def test_dump_flags_write_sidecar_files(tmp_path, capsys):
    src = place(tmp_path, "listing1.mc")
    code = main(["analyze", str(src), "--emit-summary",
                 str(tmp_path / "s.json"), "--dump-cfg", "--dump-callgraph",
                 "--dump-flow"])
    assert code == 0
    capsys.readouterr()
    for fn in ("f", "g", "h", "lock", "unlock", "foo"):
        assert (tmp_path / ("listing1.cfg.%s.dot" % fn)).exists()
    assert (tmp_path / "listing1.callgraph.dot").exists()
    assert (tmp_path / "listing1.callgraph.merged.dot").exists()
    flow = json.loads((tmp_path / "listing1.flow.json").read_text())
    assert flow["unlock"]["mels"] == ["m"]
    assert flow["lock"]["mrls"] == ["m"]


def test_dump_flags_write_the_same_files_with_a_given_summary(tmp_path, capsys):
    src = place(tmp_path, "listing1.mc")
    summary = tmp_path / "s.json"
    dump_flags = ["--dump-cfg", "--dump-callgraph", "--dump-flow"]
    assert main(["analyze", str(src), "--emit-summary", str(summary)] + dump_flags) == 0
    dumps = sorted(p for p in tmp_path.glob("listing1.*") if p != src)
    analyzed = {p.name: p.read_text() for p in dumps}
    for p in dumps:
        p.unlink()
    run = ["full", str(src), "--use-summary", str(summary),
           "-o", str(tmp_path / "out.gmc")]
    code = main(run)
    plain = capsys.readouterr()
    assert main(run + dump_flags) == code
    # The dumps add no warnings to the run's own.
    assert capsys.readouterr() == plain
    written = {p.name: p.read_text() for p in tmp_path.glob("listing1.*") if p != src}
    assert written == analyzed


# f's lock-set fixpoint does not exist: x.m, x.next.m, x.next.next.m, ...
UNLOCKS_ALONG_A_LIST = """\
struct node { mutex_t m; struct node *next; };
void f(struct node *x) { pthread_mutex_unlock(&x->m); f(x->next); }
"""


def test_only_the_flow_dump_runs_the_lock_set_fixpoints(tmp_path, capsys):
    src = tmp_path / "d.mc"
    src.write_text(UNLOCKS_ALONG_A_LIST)
    summary = tmp_path / "s.json"
    summary.write_text("{}")
    run = ["full", str(src), "--use-summary", str(summary),
           "-o", str(tmp_path / "out.gmc")]
    assert main(run + ["--dump-cfg"]) == 2
    assert (tmp_path / "d.cfg.f.dot").exists()
    assert main(run + ["--dump-callgraph"]) == 2
    assert (tmp_path / "d.callgraph.merged.dot").exists()
    capsys.readouterr()
    assert main(run + ["--dump-flow"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: lock-set fixpoint for {f} does not converge: "
        "lock path x.next.next.m is longer than 3 names\n")
    assert not (tmp_path / "d.flow.json").exists()


def test_timings_go_to_stderr_and_leave_stdout_alone(tmp_path, capsys):
    """One row per phase, in the order the phases run: printing and
    summary writing are phases too."""
    src = str(FIXTURES / "listing1.mc")
    for argv, rows in ((["full", src], ["analyze", "transform", "print", "check"]),
                       (["full", src, "--emit-summary", str(tmp_path / "s.json")],
                        ["analyze", "transform", "summary", "print", "check"]),
                       (["analyze", src], ["analyze", "summary"])):
        assert main(argv) in (0, 2)
        plain = capsys.readouterr()
        assert main(argv + ["--timings"]) in (0, 2)
        timed = capsys.readouterr()
        assert timed.out == plain.out
        assert [line.split()[0] for line in timed.err.splitlines()] == rows


def test_repeated_runs_are_byte_identical(capsys):
    src = str(CORPUS / "two_locks_split.mc")
    assert main(["full", src]) == 0
    first = capsys.readouterr().out
    assert main(["full", src]) == 0
    assert capsys.readouterr().out == first


def test_an_invalid_summary_writes_no_file_and_reports_once(tmp_path, capsys):
    src = tmp_path / "p.mc"
    src.write_text(SUMMARY_TARGET)
    (tmp_path / "s.json").write_text('{"global_lock_map": {"m2": "m"}}')
    code = main(["full", str(src), "--use-summary", str(tmp_path / "s.json"),
                 "--emit-summary", str(tmp_path / "out.json"),
                 "-o", str(tmp_path / "out.gmc")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("$.global_lock_map.m2") == 1
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.gmc").exists()


THREAD_HANDLE = """\
thread_t t;
thread_t u;
mutex_t m;
void w() {
    pthread_mutex_lock(&m);
    t = u;
    pthread_mutex_unlock(&m);
}
void main() {
    pthread_create(&t, w);
}
"""


def test_thread_handles_are_never_protected(tmp_path, capsys):
    src = tmp_path / "q.mc"
    src.write_text(THREAD_HANDLE)
    assert main(["full", str(src), "-o", str(tmp_path / "q.gmc"),
                 "--emit-summary", str(tmp_path / "q.json")]) == 0
    assert json.loads((tmp_path / "q.json").read_text())["global_lock_map"] == {}
    assert main(["check", str(tmp_path / "q.gmc")]) == 0


RELEASING_CALL = """\
int n;
int x;
mutex_t m;
thread_t t;
int rel() {
    n = n + 1;
    pthread_mutex_unlock(&m);
    return 0;
}
void w() {
%s    pthread_mutex_lock(&m);
    x = rel();
}
void main() {
    pthread_create(&t, w);
}
"""


def test_an_assigned_call_passes_the_guards_its_callee_takes(tmp_path, capsys):
    # x is written under m, so it moves into m; rel releases m before the
    # write, which the checker rejects.
    src = tmp_path / "p.mc"
    src.write_text(RELEASING_CALL % "")
    assert main(["full", str(src)]) == 2
    captured = capsys.readouterr()
    assert "(*m_guard).x = rel(m_guard);" in captured.out
    assert "p.mc:12: UseAfterMove: m_guard in w" in captured.err
    assert "error:" not in captured.err


def test_an_assigned_call_to_an_unprotected_place_is_accepted(tmp_path, capsys):
    # The bare write of x in a thread body leaves x unprotected.
    src = tmp_path / "p.mc"
    src.write_text(RELEASING_CALL % "    x = 2;\n")
    assert main(["full", str(src)]) == 0
    captured = capsys.readouterr()
    assert "    x = rel(m_guard); }" in captured.out
    assert captured.err == ""


# get() takes and returns the guard of g1, so its call in f's argument
# cannot thread it.
CALL_IN_AN_ARGUMENT = (
    "struct s { int n; mutex_t m; }; struct s ga; mutex_t g1; int c; "
    "struct s *get() { return &ga; } void f(struct s *p) { p->n = 1; } "
    "void main() { pthread_mutex_lock(&g1); f(get()); c = c + 1; "
    "pthread_mutex_unlock(&g1); }\n")


def test_a_call_that_cannot_thread_its_guards_fails_full_not_analyze(tmp_path, capsys):
    src = tmp_path / "p.mc"
    src.write_text(CALL_IN_AN_ARGUMENT)
    out = tmp_path / "p.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("%s:1: error: in main, call to get inside an expression "
                            "cannot thread its guards\n" % src)
    assert not out.exists()
    assert main(["analyze", str(src)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["function_map"]["get"]["entry_lock"] == ["g1"]


def test_a_refused_program_reports_the_analysis_warnings_first(tmp_path, capsys):
    src = tmp_path / "p.mc"
    src.write_text(CALL_IN_AN_ARGUMENT + "void h() { return; c = 2; }\n")
    assert main(["analyze", str(src)]) == 0
    warnings = capsys.readouterr().err
    assert warnings == ("%s: warning: unreachable statement removed from flow "
                        "graph (h, line 2)\n" % src)
    for mode in ("transform", "full"):
        assert main([mode, str(src)]) == 1
        assert capsys.readouterr().err == warnings + (
            "%s:1: error: in main, call to get inside an expression cannot "
            "thread its guards\n" % src)


RETURNS_EARLY = """\
int n;
mutex_t m;
void f() {
    pthread_mutex_lock(&m);
    n = n + 1;
    pthread_mutex_unlock(&m);
    return;
    n = 2;
}
"""


def test_full_prints_each_warning_once(tmp_path, capsys):
    """The dead statement is warned about once and left out of the output,
    so `check` on the output has nothing to warn about."""
    src = tmp_path / "p.mc"
    src.write_text(RETURNS_EARLY)
    out = tmp_path / "p.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 0
    warning = "warning: unreachable statement removed from flow graph (f, line 8)"
    assert capsys.readouterr().err == "%s: %s\n" % (src, warning)
    assert "n = 2;" not in out.read_text()
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().err == ""


RETURNS_ON_EVERY_BRANCH = """\
mutex_t m;
int n;
int f() {
    pthread_mutex_lock(&m);
    if (n) {
        return 1;
    } else {
        return 2;
    }
}
void main() {
    n = f();
    pthread_mutex_unlock(&m);
}
"""


def test_no_fall_through_return_where_every_branch_returns(tmp_path, capsys):
    src = tmp_path / "p.mc"
    src.write_text(RETURNS_ON_EVERY_BRANCH)
    out = tmp_path / "p.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "return (0, m_guard);" not in out.read_text()
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().err == ""


RETURNS_BEFORE_DEAD_CODE = """\
int n;
mutex_t m;
void f() { pthread_mutex_lock(&m); return; n = 1; }
void main() { f(); pthread_mutex_unlock(&m); }
"""


def test_no_fall_through_return_after_dead_code(tmp_path, capsys):
    src = tmp_path / "p.mc"
    src.write_text(RETURNS_BEFORE_DEAD_CODE)
    out = tmp_path / "p.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 0
    warning = "warning: unreachable statement removed from flow graph (f, line 3)"
    assert capsys.readouterr().err == "%s: %s\n" % (src, warning)
    assert out.read_text().count("return m_guard;") == 1
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().err == ""


# get takes m's guard, so a call inside an expression could not thread it;
# but the one call of get follows main's return.
DEAD_CALL_IN_AN_EXPRESSION = """\
int n; mutex_t m; int get() { pthread_mutex_unlock(&m); return 1; } \
void main() { n = 2; return; n = 1 + get(); }
"""


def test_a_dead_call_is_not_threaded(tmp_path, capsys):
    src = tmp_path / "p.mc"
    src.write_text(DEAD_CALL_IN_AN_EXPRESSION)
    assert main(["full", str(src)]) == 0
    out, err = capsys.readouterr()
    assert "void main() { n = 2; return; }" in out
    assert err == ("%s: warning: unreachable statement removed from flow graph "
                   "(main, line 1)\n" % src)


# w would race with main on g, but it is created only after main's return.
DEAD_THREAD_CREATION = """\
int g;
mutex_t m;
thread_t t;
void w() { g = 1; }
void main() {
    pthread_mutex_lock(&m);
    g = 2;
    pthread_mutex_unlock(&m);
    return;
    pthread_create(&t, w);
}
"""


def test_a_dead_statement_is_warned_about_with_a_given_summary(tmp_path, capsys):
    """With --use-summary no analysis runs, but the cut is still reported."""
    src = tmp_path / "p.mc"
    src.write_text(DEAD_CALL_IN_AN_EXPRESSION)
    summary = tmp_path / "s.json"
    assert main(["analyze", str(src), "--emit-summary", str(summary)]) == 0
    capsys.readouterr()
    for mode in ("transform", "full"):
        assert main([mode, str(src), "--use-summary", str(summary)]) == 0
        assert capsys.readouterr().err == (
            "%s: warning: unreachable statement removed from flow graph "
            "(main, line 1)\n" % src)


def test_a_dead_thread_creation_starts_no_thread(tmp_path, capsys):
    src = tmp_path / "p.mc"
    src.write_text(DEAD_THREAD_CREATION)
    assert main(["analyze", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["global_lock_map"] == {"g": "m"}


def test_check_warns_about_dead_code_in_a_function_without_guards(tmp_path, capsys):
    """`check` walks every function, as the analysis does for `full`."""
    text = "int n;\nvoid f() { return;\n n = 1; }\nvoid main() { f(); }\n"
    warning = "warning: unreachable statement removed from flow graph (f, line 3)"
    for suffix, command in ((".mc", "full"), (".gmc", "check")):
        src = tmp_path / ("p" + suffix)
        src.write_text(text)
        out = ["-o", str(tmp_path / "out.gmc")] if command == "full" else []
        assert main([command, str(src)] + out) == 0
        assert capsys.readouterr().err == "%s: %s\n" % (src, warning)


# r points to a struct and is written under m in two threads, so it moves
# into m's payload and main's `r->a` becomes `(*m_guard).r->a`.
POINTER_IN_PAYLOAD = """\
struct p { int a; };
struct p *r;
struct p pa;
mutex_t m;
thread_t t;
void w() {
    pthread_mutex_lock(&m);
    r = &pa;
    pthread_mutex_unlock(&m);
}
void main() {
    pthread_create(&t, w);
    pthread_mutex_lock(&m);
    r->a = 1;
    pthread_mutex_unlock(&m);
}
"""


def test_a_field_through_a_protected_pointer_passes_check(tmp_path, capsys):
    """A payload access has its field's type, so a field through it
    resolves; check rejected full's own output before."""
    src = tmp_path / "r.mc"
    src.write_text(POINTER_IN_PAYLOAD)
    out = tmp_path / "r.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 0
    text = out.read_text()
    assert "    (*m_guard).r->a = 1;\n" in text
    assert main(["check", str(out)]) == 0
    assert print_guarded(parse_guarded(text)) == text
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, source, message", [
    ("ret.gmc", "struct qData { int n; };\nstruct mData { int k; };\nmutex<qData> q;\n"
     "mutex<mData> m;\nguard<m> f() { guard<q> g;\n    g = q.acquire();\n    return g; }\n"
     "void main() { guard<m> m_guard;\n    m_guard = f();\n    (*m_guard).k = 1;\n"
     "    drop(m_guard); }\n", "7: error: guard g is for q, but f() returns a guard for m"),
    ("ret.mc", "int n;\nmutex_t m;\nvoid f() { pthread_mutex_lock(&m); return 1; }\n"
     "void main() { f(); n = 1; pthread_mutex_unlock(&m); }\n",
     "3: error: f() returns void, not a value"),
    ("void.mc", "void x;\nmutex_t m;\nthread_t t;\n"
     "void w() { pthread_mutex_lock(&m); x = 1; pthread_mutex_unlock(&m); }\n"
     "void main() { pthread_create(&t, w); pthread_mutex_lock(&m); x = 2; "
     "pthread_mutex_unlock(&m); }\n", "1: error: global 'x' has type void"),
    ("op.mc", "int k;\nmutex_t m;\nthread_t t;\n"
     "void w() { pthread_mutex_lock(&m);\n    k = m + 1;\n    pthread_mutex_unlock(&m); }\n"
     "void main() { pthread_create(&t, w); pthread_mutex_lock(&m); k = 2; "
     "pthread_mutex_unlock(&m); }\n", "5: error: cannot read whole mutex values"),
    ("op.gmc", "struct mData { int n; };\nmutex<mData> m;\nint k;\n"
     "void main() { guard<m> g;\n    g = m.acquire();\n    k = g + 1;\n    drop(g); }\n",
     "6: error: guard g is not a value"),
], ids=["guard-returned-for-another-lock", "value-returned-from-void", "void-global",
        "lock-read-as-a-value", "guard-read-as-a-value"])
def test_a_mistyped_return_or_void_value_exits_with_one(tmp_path, capsys, name, source, message):
    """Each of these went through before: check accepted the guard, or
    reported only a use after move at the drop for `k = g + 1;`, and full
    printed `return (1, m_guard);`, `struct mData { void x; };` or
    `(*m_guard).k = m + 1;`."""
    src = tmp_path / name
    src.write_text(source)
    assert main(["check" if name.endswith(".gmc") else "full", str(src)]) == 1
    assert capsys.readouterr().err == "%s:%s\n" % (src, message)



@pytest.mark.parametrize("name", sorted(LOCK_PATH_THROUGH_A_DATUM))
def test_a_datum_a_lock_path_runs_through_stays_in_place(tmp_path, capsys, name):
    """`full` moved p (or x.f) into the payload of m (or x.k) but kept the
    guard `guard<p.lk>`, and `check` on its output failed with `p.lk is
    not a lock`. The datum now stays where it is, and the output checks."""
    src = tmp_path / "p.mc"
    src.write_text(THROUGH_A_DATUM % LOCK_PATH_THROUGH_A_DATUM[name][0])
    out = tmp_path / "p.gmc"
    assert main(["full", str(src), "-o", str(out)]) == 0
    printed = out.read_text()
    assert "struct s *p;" in printed
    assert "struct t { struct s *f; mutex_t k; };" in printed
    assert print_guarded(parse_guarded(printed)) == printed
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().err == ""
