"""Lock summary serialization, parsing, and validation."""

import itertools
import json

import pytest

from lockshift import summary
from lockshift.ast import path_of
from lockshift.diagnostics import SchemaError, SummaryMismatch, UnsupportedCall
from lockshift.parser import parse
from lockshift.pipeline import analyze_program
from lockshift.printer import print_guarded
from lockshift.summary import (
    FunctionSummary,
    LockSummary,
    read_summary,
    validate_against_program,
    write_summary,
)
from lockshift.transform import transform

from corpus import analyzed
from helpers import LOCK_PATH_THROUGH_A_DATUM, THROUGH_A_DATUM, fixture_text, locks


def sample():
    return LockSummary(
        {"n": "m"},
        {"s": {"n": "m"}},
        {
            "f": FunctionSummary(frozenset(), frozenset(),
                                 {path_of("m"): (6,)}),
            "unlock": FunctionSummary(locks("m"), frozenset(),
                                      {path_of("m"): (7,)}),
        },
    )


def test_write_then_read_is_identity():
    s = sample()
    assert read_summary(write_summary(s)) == s


def test_canonical_text_survives_a_round_trip_bytewise():
    text = write_summary(sample())
    assert write_summary(read_summary(text)) == text


def test_golden_summary_round_trips_bytewise():
    text = fixture_text("listing1.summary.json")
    assert write_summary(read_summary(text)) == text


def test_output_is_sorted_and_newline_terminated():
    text = write_summary(sample())
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data) == ["function_map", "global_lock_map", "struct_lock_map"]
    assert list(data["function_map"]) == ["f", "unlock"]


def test_empty_object_means_empty_summary():
    assert read_summary("{}") == LockSummary()


def test_missing_function_keys_default_to_empty():
    s = read_summary('{"function_map": {"f": {}}}')
    assert s.function_map == {"f": FunctionSummary()}
    assert s.function("f").is_empty()
    assert s.function("absent").is_empty()


def test_looking_up_a_present_function_builds_no_summary(monkeypatch):
    """Only a miss builds the empty default; building one before every
    lookup cost the transformer a dataclass and a dict per call."""
    s = sample()
    built = []

    class Counted(FunctionSummary):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(summary, "FunctionSummary", Counted)
    assert s.function("f") is s.function_map["f"]
    assert built == []
    assert s.function("absent").is_empty()
    assert len(built) == 1


def test_lock_lists_are_sorted_and_deduplicated():
    s = read_summary(
        '{"function_map": {"f": {"entry_lock": ["m", "a.m", "m"],'
        ' "lock_line": {"m": [5, 3, 5]}}}}')
    fs = s.function_map["f"]
    assert fs.entry_lock == locks("a.m", "m")
    assert fs.lock_line == {path_of("m"): (3, 5)}
    data = json.loads(write_summary(s))["function_map"]["f"]
    assert data["entry_lock"] == ["a.m", "m"]
    assert data["lock_line"] == {"m": [3, 5]}


# Dotted texts where the order of characters could differ from the order
# of names: a prefix of another name, `_`, a digit, a capital, and texts of
# longer paths.
ORDER_TEXTS = ["a", "a_b", "ab", "a0", "A", "_a", "a.b", "a.b.c"]


def test_path_order_is_dotted_text_order():
    """Guard parameters, returned guards and guard names follow path order,
    and write_summary writes entry and return sets in it, as the order of
    their dotted texts. Every path joined from one to three of these texts
    sorts the same both ways."""
    paths = list({path_of(".".join(texts)) for k in (1, 2, 3)
                  for texts in itertools.product(ORDER_TEXTS, repeat=k)})
    assert sorted(paths) == sorted(paths, key=".".join)


def test_read_summary_returns_lock_paths():
    s = read_summary(
        '{"function_map": {"g": {"entry_lock": ["x.m"], "return_lock": ["m"],'
        ' "lock_line": {"x.m": [4]}}}}')
    fs = s.function("g")
    assert fs.entry_lock == frozenset([("x", "m")])
    assert fs.return_lock == frozenset([("m",)])
    assert fs.lock_line == {("x", "m"): (4,)}
    with pytest.raises(SchemaError, match=(
            r"^\$\.function_map\.g\.lock_line: "
            r"lock path 'm\.\.x' is not a dotted list of identifiers$")):
        read_summary('{"function_map": {"g": {"lock_line": {"m..x": [1]}}}}')


@pytest.mark.parametrize(
    "text, path",
    [
        ("[]", "$"),
        ("{nope", "$"),
        ('{"bogus": 1}', "$.bogus"),
        ('{"global_lock_map": []}', "$.global_lock_map"),
        ('{"global_lock_map": {"n": 3}}', "$.global_lock_map.n"),
        ('{"struct_lock_map": {"s": {"n": 3}}}', "$.struct_lock_map.s.n"),
        ('{"function_map": {"foo": {"bogus": []}}}', "$.function_map.foo.bogus"),
        ('{"function_map": {"f": {"entry_lock": {}}}}',
         "$.function_map.f.entry_lock"),
        ('{"function_map": {"f": {"entry_lock": [3]}}}',
         "$.function_map.f.entry_lock[0]"),
        ('{"function_map": {"f": {"lock_line": {"m": 3}}}}',
         "$.function_map.f.lock_line.m"),
        ('{"function_map": {"f": {"lock_line": {"m": ["3"]}}}}',
         "$.function_map.f.lock_line.m[0]"),
        ('{"function_map": {"f": {"lock_line": {"m": [true]}}}}',
         "$.function_map.f.lock_line.m[0]"),
        ('{"function_map": {"g": {"lock_line": {"m..x": [1]}}}}',
         "$.function_map.g.lock_line"),
        ('{"function_map": {"g": {"lock_line": {"": [1]}}}}',
         "$.function_map.g.lock_line"),
    ],
)
def test_malformed_summaries_report_the_offending_path(text, path):
    with pytest.raises(SchemaError) as exc:
        read_summary(text)
    assert exc.value.path == path
    assert str(exc.value).startswith(path + ": ")


LITTLE = """\
int n;
mutex_t m;
struct s { int n; mutex_t m; };
void f(struct s *x) {
    pthread_mutex_lock(&m);
    n = n + 1;
    pthread_mutex_unlock(&m);
}
"""


def little_program():
    return parse(LITTLE)


def test_validation_accepts_a_matching_summary():
    s = read_summary(
        '{"global_lock_map": {"n": "m"},'
        ' "struct_lock_map": {"s": {"n": "m"}},'
        ' "function_map": {"f": {"entry_lock": ["m", "x.m"]}}}')
    validate_against_program(s, little_program())


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"global_lock_map": {"ghost": "m"}}', "$.global_lock_map.ghost"),
        ('{"global_lock_map": {"n": "n"}}', "$.global_lock_map.n"),
        ('{"struct_lock_map": {"ghost": {}}}', "$.struct_lock_map.ghost"),
        ('{"struct_lock_map": {"s": {"ghost": "m"}}}', "$.struct_lock_map.s.ghost"),
        ('{"struct_lock_map": {"s": {"n": "n"}}}', "$.struct_lock_map.s.n"),
        ('{"function_map": {"ghost": {}}}', "$.function_map.ghost"),
        ('{"function_map": {"f": {"entry_lock": ["y.m"]}}}',
         "$.function_map.f.entry_lock"),
        ('{"function_map": {"f": {"lock_line": {"ghost": [3]}}}}',
         "$.function_map.f.lock_line"),
    ],
)
def test_validation_rejects_names_missing_from_the_program(text, path):
    with pytest.raises(SchemaError) as exc:
        validate_against_program(read_summary(text), little_program())
    assert exc.value.path == path


def test_validation_reports_the_first_unknown_root_in_path_order():
    s = read_summary('{"function_map": {"f": {"entry_lock": ["zz.m", "aa.m"]}}}')
    with pytest.raises(SchemaError) as exc:
        validate_against_program(s, little_program())
    assert exc.value.path == "$.function_map.f.entry_lock"
    assert str(exc.value).endswith(
        "lock path 'aa.m' names no global or parameter of f")


SHADOWED = '{"function_map": {"f": {"entry_lock": ["m"], "lock_line": {"m": [2]}}}}'


def test_a_parameter_that_is_a_lock_shadows_a_global_that_is_not():
    program = parse("int m;\nvoid f(mutex_t *m) { }\nvoid main() { }\n")
    validate_against_program(read_summary(SHADOWED), program)


def test_a_parameter_that_is_no_lock_shadows_a_global_lock():
    program = parse("mutex_t m;\nvoid f(int m) { }\nvoid main() { }\n")
    with pytest.raises(SchemaError) as exc:
        validate_against_program(read_summary(SHADOWED), program)
    assert exc.value.path == "$.function_map.f.entry_lock"
    assert str(exc.value).endswith("lock path 'm' of f is not a lock")


@pytest.mark.parametrize("name", sorted(LOCK_PATH_THROUGH_A_DATUM))
def test_a_summary_moving_a_datum_a_lock_path_runs_through_is_refused(name):
    """The analyzed summary leaves the datum in place; with it moved into
    a payload anyway, the lock path through it would name no lock."""
    body, target, moved = LOCK_PATH_THROUGH_A_DATUM[name]
    result = analyze_program(THROUGH_A_DATUM % body)
    data = json.loads(write_summary(result.lock_summary))
    for key, value in json.loads(moved).items():
        data[key].update(value)
    where = ("$.global_lock_map.p" if target[0] is None else "$.struct_lock_map.t.f")
    lock = "p.lk" if target[0] is None else "x.f.lk"
    with pytest.raises(SummaryMismatch) as exc:
        transform(result.program, read_summary(json.dumps(data)))
    assert str(exc.value) == ("%s: this datum cannot move into a payload: lock path %r "
                              "of w runs through it" % (where, lock))


NO_DATA = """\
struct t { int a; };
struct s { int n; mutex_t k; mutex_t *pk; struct t in; };
mutex_t m;
mutex_t *pm;
thread_t th;
"""


# Globals and fields follow the same two rules: a datum must hold data (no
# lock at any pointer depth, no thread handle, no struct held by value) and
# its lock must be a mutex held by value. The analysis never yields these.
@pytest.mark.parametrize(
    "text, path",
    [
        ('{"struct_lock_map": {"s": {"n": "pk"}}}', "$.struct_lock_map.s.n"),
        ('{"struct_lock_map": {"s": {"k": "k"}}}', "$.struct_lock_map.s.k"),
        ('{"struct_lock_map": {"s": {"in": "k"}}}', "$.struct_lock_map.s.in"),
        ('{"global_lock_map": {"pm": "m"}}', "$.global_lock_map.pm"),
        ('{"global_lock_map": {"th": "m"}}', "$.global_lock_map.th"),
    ],
    ids=["pointer-field-lock", "mutex-field-datum", "struct-field-datum",
         "mutex-pointer-global-datum", "thread-global-datum"],
)
def test_validation_rejects_data_no_lock_protects_and_locks_that_are_not_mutexes(
        text, path):
    with pytest.raises(SchemaError) as exc:
        validate_against_program(read_summary(text), parse(NO_DATA))
    assert exc.value.path == path


QUIET_HELPER = """\
int n;
int k;
mutex_t m;
int id(int v) {
    return v;
}
void f() {
    k = id(3);
    pthread_mutex_lock(&m);
    n = n + 1;
    pthread_mutex_unlock(&m);
}
"""


def test_functions_with_nothing_to_say_are_omitted():
    result = analyze_program(QUIET_HELPER)
    data = json.loads(write_summary(result.lock_summary))
    assert set(data["function_map"]) == {"f"}


def test_analysis_summary_serializes_to_the_golden_file():
    result = analyze_program(fixture_text("listing1.mc"))
    assert write_summary(result.lock_summary) == fixture_text("listing1.summary.json")


def test_the_summary_json_round_trip_gives_the_same_guarded_program(corpus):
    """The transformer takes the summary as input: read back from its JSON,
    the analysis's summary yields the same printed program, or the same
    refusal."""
    checked = 0
    for name, run in analyzed(corpus):
        summary = read_summary(run.summary)
        if run.error is None:
            assert print_guarded(transform(run.result.program, summary)) == run.printed, name
        else:
            with pytest.raises(UnsupportedCall) as exc:
                transform(run.result.program, summary)
            assert str(exc.value) == str(run.error), name
        checked += 1
    assert checked == 311
