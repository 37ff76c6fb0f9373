"""What the analysis keeps in memory, by counting objects, never by timing.

The analysis result holds the program, the lock summary, the verdicts and
the diagnostics; nothing the lock-set phases make outlives it. A function's
flow facts keep one per-node map, the locks surely held before each node.
Equal lock sets are one object: every set in that map is shared with each
equal set stored beside it, and a call whose renaming changes no path of
its callee's summary has the callee's own sets as its effect. Values the
later phases keep are shared too: one string per distinct token text, one
datum path per datum across the access records, one set object per
distinct entry or return set across the summaries, and one guard type per
lock path across a transformed program's guard parameters and returned
guards, and one empty tuple of guard declarations across the plain
dialect's functions. AST nodes and the analysis's records have no
per-instance dict.
A declaration is found through its container's by-name index: doubling
the declarations at most doubles the items visited in the declaration
lists.
And propagation renames each call site's held set a bounded number of
times. It solves in the flow facts' order, the call-graph components
callers first: on an acyclic call graph each site is renamed once, and
the drops that renaming reports are the ones kept; inside call cycles, at
most twice on the bench's recursive rings and three times on any pinned
program, and never twice for one caller PLS. The lock-set walks take
steps linear in loop depth and in program size. A flow graph's statement
nodes are its node list between Entry and Ret, taken without a filter.
Each graph stores its edges once: a flow graph one successor list per
node, and a call graph its edges and components, nothing derived from
them.
After the fixpoints, work that depends only on a shared set's value is
done once per set: on the bench's call chain at two sizes, the summary
writer renders its three distinct entry and return sets once each, a
callee without parameters is never renamed into its callers, and
validation looks up each path rooted at a global once.
The front end makes a bounded number of Python calls per token: on the
bench's three families, parse_guarded 1.7 to 2.3 and parse 2.6 to 2.9,
and on a `*` chain 80 deep beside a field and `*` chain of 93 levels, 2.4.
Parsing, transforming and checking an `if` or `while` nest make calls
linear in its depth, and every public phase makes calls, and runs lines,
linear in the size of each bench family, from n to 4n.
A run pairs each function's calls with their statements at most once: the
other passes read the resolver's list of the function's calls. A run, the
printing of its output and a check of that text make at most one
isinstance call per statement, as every walker tests node types by
identity, and the transformer hands a callee without parameters' guard
lists to its callers without renaming them, and renames each lock path a
call passes or receives once, reading each callee's parameter names once
per run.
What one full call keeps grows by a pinned number of bytes per function
on the bench's call chain: held lines are ascending tuples, data-lock
inference keeps no set per function there, and the transformer one pair
of path tuples per distinct entry and return value.
"""
from __future__ import annotations

import functools
import gc
import runpy
import sys
import tracemalloc
import types
from collections import Counter
from importlib import import_module

import pytest

from lockshift import ast, datalock, flowanalysis, parser, propagation, summary
from lockshift.callgraph import CallGraph, thread_entries
from lockshift.cfg import FlowGraph
from lockshift.datalock import AccessRecord, ProtectionVerdict, collect_accesses
from lockshift.diagnostics import Diagnostic, Diagnostics
from lockshift.flowanalysis import FunctionFlowFacts, held_set, rename_set, stmt_effects
from lockshift.guardcheck import check
from lockshift.lexer import tokenize
from lockshift.parser import parse, parse_guarded
from lockshift.pipeline import AnalysisResult, analyze_program, lock_sets, run_pipeline
from lockshift.printer import print_guarded
from lockshift.propagation import CallSiteFact, collect_call_facts, propagate
from lockshift.summary import (
    FunctionSummary,
    LockSummary,
    read_summary,
    validate_against_program,
    write_summary,
)
from lockshift.transform import _Transformer, transform

from corpus import GEN_PATH, analyzed, completed, first_seeds, programs
from helpers import FIXTURES, chain_program, fields, fixture_text, record_classes, while_nest


def test_flow_facts_keep_one_map_keyed_by_the_graph_nodes(corpus):
    checked = 0
    for name, run in analyzed(corpus):
        graphs, _, flow = run.sets
        for fn, facts in flow.items():
            maps = [v for v in fields(facts).values() if isinstance(v, dict)]
            assert maps == [facts.avail_in], (name, fn, len(maps))
            assert list(facts.avail_in) == graphs[fn].nodes, (name, fn)
            checked += 1
    assert checked > 1000


def test_graphs_store_each_edge_once(corpus):
    """Predecessor lists, a function's component and the edges between
    components are derived where they are read, not stored."""
    checked = 0
    for name, run in analyzed(corpus):
        graphs, cg, _ = run.sets
        assert list(fields(cg)) == ["edges", "merged_nodes"], name
        for fn, g in graphs.items():
            maps = [v for v in fields(g).values() if isinstance(v, dict)]
            assert maps == [g.succ], (name, fn, len(maps))
            assert list(g.succ) == g.nodes, (name, fn)
            assert all(type(v) is list for v in g.succ.values()), (name, fn)
            assert not hasattr(g, "pred"), (name, fn)
            checked += 1
        assert list(cg.edges) == [f.name for f in run.program.functions], name
    assert checked > 1000


def test_flow_facts_store_one_object_per_distinct_set(corpus):
    checked = 0
    for name, run in analyzed(corpus):
        for fn, facts in run.sets.flow.items():
            stored = list(facts.avail_in.values())
            objects = len({id(s) for s in stored})
            values = len(set(stored))
            assert objects <= values, (name, fn, objects, values)
            checked += 1
    assert checked > 1000


LOCK_SET_PHASE_TYPES = {FlowGraph, CallGraph, FunctionFlowFacts}


def _reached_types(root) -> set[type]:
    """The types of every object reachable from root by gc.get_referents,
    not following into classes, modules or functions, through which
    everything alive would be reachable."""
    opaque = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)
    seen: set[int] = set()
    reached: set[type] = set()
    stack = [root]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, opaque):
            continue
        seen.add(id(x))
        reached.add(type(x))
        stack.extend(gc.get_referents(x))
    return reached


def test_the_analysis_result_keeps_nothing_of_the_lock_set_phases(corpus):
    # The result is analyze_program's; the tuple is what run_pipeline returns.
    walked = 0
    for name, run in analyzed(corpus):
        assert list(fields(run.result)) == [
            "program", "lock_summary", "verdicts", "diagnostics"], name
        reached = _reached_types((run.result, run.guarded, list(run.errors)))
        assert ast.Program in reached, name
        assert not reached & LOCK_SET_PHASE_TYPES, (name, reached & LOCK_SET_PHASE_TYPES)
        walked += 1
    assert walked > 300
    # The walk does find them where they are.
    assert _reached_types(corpus["mc/listing1.mc"].sets) >= LOCK_SET_PHASE_TYPES


def test_a_call_that_renames_nothing_shares_its_callee_summary(corpus):
    shared = 0
    for name, run in analyzed(corpus):
        graphs, _, flow = run.sets
        for fn in run.program.functions:
            for s in graphs[fn.name].stmt_nodes:
                calls = [c for c in s.calls
                         if c.name in flow or c.name in (ast.LOCK_FN, ast.UNLOCK_FN)]
                effects = stmt_effects(s, flow)
                assert len(effects) == len(calls), (name, fn.name, s.line)
                for call, effect in zip(calls, effects):
                    facts = flow.get(call.name)
                    if facts is None:
                        continue
                    for kept, summary in zip(effect, (facts.mels, facts.mrls)):
                        renamed = {ast.to_caller(p, facts.params, call) for p in summary}
                        if renamed == summary:
                            assert kept is summary, (name, fn.name, s.line, call.name)
                            shared += 1
    assert shared > 1000


def _node_classes() -> list[type]:
    classes = record_classes(ast)
    assert len(classes) >= 30, classes  # the node classes and Program
    return [c for c in classes if c is not ast.Program]


# A discarded result slot and a dereference, which no fixture prints.
EXTRA_GUARDED = """\
struct mData { int n; };
mutex<mData> m = mData { n = 0 };
int k;
int *q;
(int, guard<m>) take(guard<m> g) { return ((*g).n, g); }
void f() { guard<m> m_guard;
    m_guard = m.acquire();
    (_, m_guard) = take(m_guard);
    k = *q;
    drop(m_guard); }
"""


def _reachable_nodes(root):
    """Every record reachable from root through fields, lists, tuples and
    Stmt.calls."""
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, ast.Record) and id(x) not in seen:
            seen[id(x)] = x
            stack.extend(fields(x).values())
    return list(seen.values())


def _sample_programs(corpus) -> list[ast.Program]:
    """The fixtures, flow cases and bench programs of seed 1: each plain,
    guarded and printed then parsed back; the guarded fixtures; and one
    more guarded program."""
    out = []
    for name in first_seeds(corpus, scc=0, gen=0, bench=2):
        run = corpus[name]
        out += [run.program, run.guarded, run.reparsed]
    out += [parse_guarded(p.read_text()) for p in sorted(FIXTURES.glob("*.gmc"))]
    out.append(parse_guarded(EXTRA_GUARDED))
    return out


def test_plain_functions_share_one_empty_guard_declaration_tuple(corpus):
    """Only the guarded dialect declares guards, so every plain function
    holds the one empty tuple, where each held an empty list of its own."""
    decls = {id(fn.guard_decls): fn.guard_decls for run in corpus.values()
             if run.program is not None for fn in run.program.functions}
    assert list(decls.values()) == [()]


def test_no_ast_node_has_an_instance_dict(corpus):
    # Instances of a class without a dict slot have no __dict__.
    for cls in _node_classes():
        assert cls.__dictoffset__ == 0, cls.__name__
    seen: set[type] = set()
    for program in _sample_programs(corpus):
        for node in _reachable_nodes(program):
            if node is program:
                continue
            assert not hasattr(node, "__dict__"), type(node).__name__
            seen.add(type(node))
    # The walk met every class but the two abstract bases.
    unseen = set(_node_classes()) - seen
    assert unseen == {ast.Expr, ast.Stmt}, sorted(c.__name__ for c in unseen)


RECORD_CLASSES = [AccessRecord, ProtectionVerdict, FunctionFlowFacts,
                  FunctionSummary, CallSiteFact, Diagnostic]


def test_no_analysis_record_has_an_instance_dict(corpus):
    for cls in RECORD_CLASSES:
        assert cls.__dictoffset__ == 0, cls.__name__
    seen: set[type] = set()
    for name in first_seeds(corpus, scc=0, gen=0, bench=2):
        run = corpus[name]
        if run.result is None:
            continue
        graphs, _, flow = run.sets
        functions = run.result.lock_summary.function_map
        records = [*collect_accesses(run.program, flow, functions, graphs),
                   *run.result.verdicts, *flow.values(), *functions.values(),
                   *collect_call_facts(run.program, flow, graphs),
                   *run.result.diagnostics]
        for record in records:
            assert not hasattr(record, "__dict__"), (name, type(record).__name__)
            seen.add(type(record))
    assert seen == set(RECORD_CLASSES), sorted(c.__name__ for c in seen)


def _one_object_per_value(values: list) -> bool:
    """Whether equal values in the list are one object."""
    return len({id(v) for v in values}) == len(set(values))


def test_token_texts_are_one_string_per_distinct_text(corpus):
    checked = 0
    for name, run in analyzed(corpus):
        values = tokenize(run.source).values
        assert _one_object_per_value(values), name
        checked += 1
    assert checked > 300


def test_access_records_share_one_datum_object_per_datum(corpus):
    checked = 0
    for name, run in analyzed(corpus):
        graphs, _, flow = run.sets
        records = collect_accesses(run.program, flow,
                                   run.result.lock_summary.function_map, graphs)
        assert _one_object_per_value([r.datum for r in records]), name
        checked += len(records)
    assert checked > 2500


def test_summaries_share_one_object_per_distinct_lock_set(corpus):
    checked = 0
    for name, run in analyzed(corpus):
        functions = run.result.lock_summary.function_map.values()
        sets = [s for fs in functions for s in (fs.entry_lock, fs.return_lock)]
        assert _one_object_per_value(sets), name
        checked += len(sets)
    assert checked > 2000


def test_guard_parameters_and_returned_guards_share_one_type_per_lock_path(corpus):
    """One guard<p> and one &guard<p> object per lock path p."""
    checked = 0
    for name, run in completed(corpus):
        types = [t for fn in run.guarded.functions
                 for t in [p.ty for p in fn.params] + list(fn.rets) if t.kind == "guard"]
        assert len({id(t) for t in types}) == len({(t.path, t.lent) for t in types}), name
        checked += len(types)
    assert checked > 500


def _call_chain_source(n: int) -> str:
    """The bench's call chain of n functions, seed 1."""
    return runpy.run_path(str(GEN_PATH))["WORKLOADS"]["call_chain"][0](n, 1).source


@functools.cache
def _call_chain(n: int) -> AnalysisResult:
    """The analysis of the bench's call chain of n functions, seed 1."""
    return analyze_program(_call_chain_source(n))


def _calls_to(module, name: str, run) -> tuple[int, object]:
    """How often run() calls module.name through the module's binding,
    and what run() returns."""
    calls = 0
    real = getattr(module, name)

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, name, counted)
        value = run()
    return calls, value


@pytest.mark.parametrize("n", [20, 40])
def test_the_summary_writer_renders_each_distinct_lock_set_once(n):
    """Every call_chain function but main enters with {w} and returns
    {m, w}; main has {} for both. Rendering each function's sets made
    this twice the functions."""
    s = _call_chain(n).lock_summary
    objects = {id(x) for fs in s.function_map.values() for x in (fs.entry_lock, fs.return_lock)}
    assert len(s.function_map) == n + 1
    assert _calls_to(summary, "_path_list", lambda: write_summary(s))[0] == len(objects) == 3


@pytest.mark.parametrize("n", [20, 40])
def test_a_callee_without_parameters_is_not_renamed_into_its_callers(n):
    """Renaming is the identity then; renaming anyway made this two per
    call site and solve. A callee with parameters is renamed."""
    program = _call_chain(n).program
    assert _calls_to(flowanalysis, "rename_set", lambda: lock_sets(program))[0] == 0
    rings = parse(programs()["bench/recursive_rings/1"])
    assert _calls_to(flowanalysis, "rename_set", lambda: lock_sets(rings))[0] > 0


@pytest.mark.parametrize("n", [20, 40])
def test_validation_looks_up_each_path_rooted_at_a_global_once(n):
    """No call_chain function has a parameter, so its paths, m and w, are
    each looked up once however many functions hold them. Looking them up
    per function made this grow with n."""
    result = _call_chain(n)
    paths = {lp for fs in result.lock_summary.function_map.values()
             for lp in (*fs.entry_lock, *fs.return_lock, *fs.lock_line)}
    assert {".".join(lp) for lp in paths} == {"m", "w"}
    assert _calls_to(summary, "lock_path_type", lambda: validate_against_program(
        result.lock_summary, result.program))[0] == len(paths)


def _diamond_program(layers: int) -> str:
    """Each layer's two functions call both of the next layer's; callees
    are defined before their callers."""
    parts = ["int n;", "mutex_t m;",
             "void a%d() { n = n + 1; }" % layers,
             "void b%d() { n = n + 2; }" % layers]
    for i in range(layers - 1, -1, -1):
        parts.append("void a%d() { a%d(); b%d(); }" % (i, i + 1, i + 1))
        parts.append("void b%d() { b%d(); a%d(); }" % (i, i + 1, i + 1))
    parts.append("void main() { pthread_mutex_lock(&m); a0(); b0(); "
                 "pthread_mutex_unlock(&m); }")
    return "\n".join(parts) + "\n"


ACYCLIC = {
    "chain_program(60)": chain_program(60),
    "diamond(20)": _diamond_program(20),
    **{"call_chain/%d" % seed: programs()["bench/call_chain/%d" % seed]
       for seed in (1, 2)},
}


def _renames_and_sites(source: str) -> tuple[int, int, CallGraph]:
    """How often propagation renames a held set into a callee while
    analyzing source, the number of call sites, and the call graph."""
    # Only propagation's renamings, into callees: flowanalysis's
    # renamings into callers go through its own binding of rename_set.
    calls, result = _calls_to(propagation, "rename_set", lambda: analyze_program(source))
    graphs, cg, flow = lock_sets(result.program)
    sites = len(propagation.collect_call_facts(result.program, flow, graphs))
    assert sites > 0
    return calls, sites, cg


@pytest.mark.parametrize("name", ACYCLIC)
def test_each_call_site_is_renamed_once(name):
    """Renaming a site again after convergence, only to report its drops,
    made this twice the sites."""
    calls, sites, cg = _renames_and_sites(ACYCLIC[name])
    assert not any(cg.is_recursive_scc(i) for i in range(len(cg.merged_nodes)))
    assert calls == sites, (calls, sites)


@pytest.mark.parametrize("seed", range(1, 5))
def test_call_sites_in_call_cycles_are_renamed_at_most_twice(seed):
    """Inside a call cycle a caller can be re-solved after its callee, so
    a site may be renamed more than once. Seeded in the flow facts' order,
    callers' components first and a cycle's members in their sweep order,
    it is 36 renames for 34 sites, under the bound asserted here. Renaming
    every site again after convergence made it 72 for those sites; the
    members of each cycle in the reverse of their sweep order, 174."""
    calls, sites, cg = _renames_and_sites(programs()["bench/recursive_rings/%d" % seed])
    assert any(cg.is_recursive_scc(i) for i in range(len(cg.merged_nodes)))
    assert calls <= 2 * sites, (calls, sites)


def test_call_sites_are_renamed_at_most_three_times(corpus):
    """On every analyzed pinned program, the random call cycles of SccGen
    included; the most is 14 renames for 7 sites."""
    checked = 0
    for name, run in analyzed(corpus):
        graphs, _, flow = run.sets
        calls, _ = _calls_to(propagation, "rename_set", lambda: propagation.propagate(
            run.program, flow, graphs, Diagnostics()))
        sites = len(collect_call_facts(run.program, flow, graphs))
        assert calls <= 3 * sites, (name, calls, sites)
        checked += sites
    assert checked > 1500


def test_a_call_site_is_renamed_once_per_caller_pls(corpus, monkeypatch):
    """Propagation renames a site again only once its caller's PLS has
    changed. Each renaming renames held_set(available, PLS), made just
    before it, so the PLS last handed to held_set is its caller's.
    Renaming every site at each visit of its callee made 2,913 renamings
    for 1,782 sites on the pinned corpus, and 34 for 18 on scc/69; this
    makes 2,198 and 24."""
    pairs: list[tuple[int, frozenset | None]] = []
    given = []

    def held(avail, pls):
        given.append(pls)
        return held_set(avail, pls)

    def rename(paths, to, params, call, bound):
        pairs.append((id(call), given[-1]))
        return rename_set(paths, to, params, call, bound)

    monkeypatch.setattr(propagation, "held_set", held)
    monkeypatch.setattr(propagation, "rename_set", rename)
    renamings = 0
    for name, run in analyzed(corpus):
        graphs, _, flow = run.sets
        pairs.clear()
        propagation.propagate(run.program, flow, graphs, Diagnostics())
        assert len(pairs) == len(set(pairs)), name
        renamings += len(pairs)
    assert renamings > 2000


def test_statement_nodes_are_the_nodes_between_entry_and_ret(corpus):
    checked = 0
    for name, run in analyzed(corpus):
        for fn, g in run.sets.graphs.items():
            assert g.stmt_nodes == [n for n in g.nodes if isinstance(n, ast.Stmt)], (name, fn)
            assert (g.nodes[0], g.nodes[-1]) == (g.entry, g.ret), (name, fn)
            checked += 1
    assert checked > 1000


class _CountingList(list):
    """A declaration list that adds the items its iterations yield to
    visits[0], so a lookup that scans the list shows up as work."""

    def __init__(self, items, visits: list[int]):
        super().__init__(items)
        self.visits = visits

    def __iter__(self):
        for item in list.__iter__(self):
            self.visits[0] += 1
            yield item


def _counting(p: ast.Program, visits: list[int]) -> ast.Program:
    """p with every declaration list, a struct's fields too, counting."""
    structs = [ast.StructDef(s.name, _CountingList(s.fields, visits), s.line)
               for s in p.structs]
    return ast.Program(*(_CountingList(decls, visits)
                         for decls in (p.globals, structs, p.functions)))


def _payload_accesses(n: int) -> str:
    """One lock whose payload struct has n fields, each written once."""
    fields = " ".join("int f%d;" % i for i in range(n))
    writes = "\n".join("    (*g).f%d = %d;" % (i, i) for i in range(n))
    return ("struct d { %s };\nmutex<d> m;\nvoid main() { guard<m> g;\n"
            "    g = m.acquire();\n%s\n    drop(g); }\n" % (fields, writes))


def _resolving_visits(n: int) -> int:
    source = _payload_accesses(n)
    visits = [0]
    with pytest.MonkeyPatch.context() as m:
        # The parser builds its lists by appending; the resolver visits them.
        m.setattr(parser, "StructDef", lambda name, fields, line:
                  ast.StructDef(name, _CountingList(fields, visits), line))
        m.setattr(parser, "Program", lambda *lists: ast.Program(
            *(_CountingList(decls, visits) for decls in lists)))
        parse_guarded(source)
    return visits[0]


def _lock_per_global(n: int) -> str:
    """n globals, each written under a lock of its own."""
    lines = ["int g%d;" % i for i in range(n)] + ["mutex_t m%d;" % i for i in range(n)]
    lines += ["void f%d() { pthread_mutex_lock(&m%d); g%d = %d; pthread_mutex_unlock(&m%d); }"
              % (i, i, i, i, i) for i in range(n)]
    lines.append("void main() { %s }" % " ".join("f%d();" % i for i in range(n)))
    return "\n".join(lines) + "\n"


def _transform_visits(n: int) -> int:
    result = analyze_program(_lock_per_global(n))
    assert len(result.lock_summary.global_lock_map) == n
    visits = [0]
    transform(_counting(result.program, visits), result.lock_summary)
    return visits[0]


def _validation_visits(n: int) -> int:
    source = "".join("struct s%d { int n; mutex_t m; };\n" % i for i in range(n))
    program = parse(source)
    summary = LockSummary(struct_lock_map={"s%d" % i: {"n": "m"} for i in range(n)})
    visits = [0]
    validate_against_program(summary, _counting(program, visits))
    return visits[0]


@pytest.mark.parametrize("visits", [_resolving_visits, _transform_visits,
                                    _validation_visits],
                         ids=["resolving-payload-fields", "transform-locks-and-globals",
                              "validating-structs"])
def test_declarations_are_found_by_name_not_by_scanning(visits):
    """Each phase looks a declaration up in its container's index, so
    doubling the declarations at most doubles the list visits. Scanning a
    list per lookup made them quadruple: per payload field access in the
    resolver, per lock in the transformer, per struct in validation."""
    small, large = visits(100), visits(200)
    assert small > 0
    assert large <= 2 * small, (small, large)


def test_a_transformed_program_finds_its_payloads_and_locks():
    result = analyze_program(fixture_text("listing1.mc"))
    out = transform(result.program, result.lock_summary)
    lock = out.global_decl("m")
    assert (lock.ty.kind, lock.ty.name) == ("lock", "mData")
    assert [f.name for f in out.struct("mData").fields] == ["n"]
    field = out.struct("s").field_decl("m")
    assert [f.name for f in out.struct(field.ty.name).fields] == ["n"]
    assert out.global_decl("f") is None and out.function("m") is None


def _deref_chains() -> str:
    """A `*` chain 80 deep, and a chain of 30 `(*x).q` links, 93 levels."""
    mixed = "p"
    for _ in range(30):
        mixed = "(*%s).q" % mixed
    return ("struct s { int r; struct s *q; };\nstruct s *p;\nint %sd;\nint k;\n"
            "void main() {\n    k = %sd;\n    k = (*%s).r;\n}\n" % ("*" * 80, "*" * 80, mixed))


@functools.cache
def _bench_texts(family: str) -> tuple[str, str]:
    """The bench input of family at its bench size, seed 1, or the deref
    chains, and the guarded text `full` prints for it."""
    if family == "deref_chains":
        source = _deref_chains()
    else:
        factory, size = runpy.run_path(str(GEN_PATH))["WORKLOADS"][family]
        source = factory(size, 1).source
    result = analyze_program(source)
    return source, print_guarded(transform(result.program, result.lock_summary))


def _profiled(run, counts) -> int:
    """How many of the profiler's events while run() runs counts(frame,
    event, arg) is true for."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if counts(frame, event, arg):
            events += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return events


def _python_calls(run, code: types.CodeType | None = None) -> int:
    """The Python function calls run() makes, as the profiler sees them:
    a generator's resumptions count, calls into C do not. With code, only
    the calls of the function whose code object it is."""
    return _profiled(run, lambda frame, event, arg: event == "call" and (
        code is None or frame.f_code is code))


# Family: (most calls per token of parse, of parse_guarded). Each bound is
# about a tenth above what the front end makes, but the call chain's parse
# bound, which is 5% above: moving each call statement's calls and matching
# its values to its callee's types take one call each. The parser took the
# operands' prefix, primary and postfix steps in three calls, a payload
# field through a Deref node, and a guard type and each expected token in
# calls of their own, and the resolver walked isinstance ladders and built
# a callee's parameter names per guard: parse made 5.02, 5.81 and 5.16 per
# token, and parse_guarded 4.38, 3.74 and 4.62. The deref chains are the
# counter case of the resolver typing each `*` and field access by walking
# the subtree below it again: quadratic in the depth, 29.5 calls per token
# in both parses.
FRONT_END_CALLS = {
    "call_chain": (2.7, 2.05),
    "wide_body": (3.2, 1.85),
    "recursive_rings": (2.95, 2.55),
    "deref_chains": (2.6, 2.6),
}


@pytest.mark.parametrize("family", FRONT_END_CALLS)
def test_the_front_end_makes_a_bounded_number_of_calls_per_token(family):
    source, guarded = _bench_texts(family)
    for bound, parse_fn, text in zip(FRONT_END_CALLS[family], (parse, parse_guarded),
                                     (source, guarded)):
        per_token = _python_calls(lambda: parse_fn(text)) / len(tokenize(text))
        assert per_token <= bound, (parse_fn.__name__, round(per_token, 2))


def _nested(form: str, depth: int) -> str:
    """One function holding m around `if` or `while` nested depth deep,
    each level with one statement of its own."""
    lines = ["int n;", "int c;", "mutex_t m;", "void f() {", "pthread_mutex_lock(&m);"]
    lines += ["%s (c) {" % form, "n = n + 1;"] * depth
    lines += ["}"] * depth + ["pthread_mutex_unlock(&m);", "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("form", ["if", "while"])
def test_calls_grow_linearly_with_nesting_depth(form):
    """Doubling the depth of a nest from 32 to 64 levels at most about
    doubles the Python calls of parse, transform and check. Nested
    generators in ast.iter_stmts resumed one frame per level for each
    statement: transform made 2,028 calls at depth 32 and 6,028 at 64."""
    counts = []
    for depth in (32, 64):
        source = _nested(form, depth)
        result = analyze_program(source)
        guarded = transform(result.program, result.lock_summary)
        counts.append([_python_calls(lambda: parse(source)),
                       _python_calls(lambda: transform(result.program, result.lock_summary)),
                       _python_calls(lambda: check(guarded))])
    for phase, small, large in zip(("parse", "transform", "check"), *counts):
        assert large <= 2.1 * small, (phase, small, large)


# The bench families at small sizes: a chain of 40 functions, thread bodies
# of about 60 statements, and 3 rings.
SMALL_FAMILIES = {"call_chain": 40, "wide_body": 60, "recursive_rings": 3}


def _small_source(family: str) -> str:
    factory = runpy.run_path(str(GEN_PATH))["WORKLOADS"][family][0]
    return factory(SMALL_FAMILIES[family], 1).source


@pytest.mark.parametrize("family", SMALL_FAMILIES)
def test_a_run_walks_each_functions_calls_with_their_statements_at_most_once(family):
    """The call graph, the thread entries, data-lock inference, the
    summary's lock paths and the joint sweeps' callers read a function's
    calls from FunctionDef.calls. Only the transformer pairs each call with
    its statement, once per function. Each pass walked the statements for
    its calls: seven walks per function in one run."""
    source = _small_source(family)
    functions = len(parse(source).functions)
    walks = _python_calls(lambda: run_pipeline(source), ast.function_calls.__code__)
    assert 0 < walks <= functions, (walks, functions)


@pytest.mark.parametrize("family", SMALL_FAMILIES)
def test_the_walkers_test_node_types_without_isinstance(family):
    """A run, the printing of its output and a check of that text make at
    most one isinstance call per statement of the source: every walker
    dispatches on type(node) or tests it with `is`. The statement walkers'
    isinstance ladders made 3,921, 9,754 and 4,540 calls on the three
    families' 62, 263 and 93 statements."""
    source = _small_source(family)
    statements = sum(1 for fn in parse(source).functions for _ in ast.iter_stmts(fn.body))

    def run():
        text = print_guarded(run_pipeline(source)[1])
        check(parse_guarded(text))

    calls = _profiled(run, lambda frame, event, arg: event == "c_call" and arg is isinstance)
    assert calls <= statements, (calls, statements)


# Each bench family at n, 2n and 4n.
GROWTH_SIZES = {"call_chain": 100, "wide_body": 100, "recursive_rings": 6}


def _lines(run) -> int:
    """The source lines run() executes, as sys.settrace sees them: a loop
    that makes no call per item still runs a line per item."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return lines


def _phase_work(source: str) -> dict[tuple[str, str], int]:
    """The calls, Python and C, and the lines each public phase runs on
    source, keyed (phase, "calls") and (phase, "lines")."""
    result = analyze_program(source)
    program, lock_summary = result.program, result.lock_summary
    guarded = transform(program, lock_summary)
    text = print_guarded(guarded)
    reparsed = parse_guarded(text)
    runs = {
        "parse": lambda: parse(source),
        "lock_sets": lambda: lock_sets(program),
        "analyze_program": lambda: analyze_program(source),
        "write_summary": lambda: write_summary(lock_summary),
        "transform": lambda: transform(program, lock_summary),
        "print_guarded": lambda: print_guarded(guarded),
        "parse_guarded": lambda: parse_guarded(text),
        "check": lambda: check(reparsed),
    }
    work = {}
    for phase, run in runs.items():
        work[phase, "calls"] = _profiled(
            run, lambda frame, event, arg: event in ("call", "c_call"))
        work[phase, "lines"] = _lines(run)
    return work


@pytest.mark.parametrize("family", GROWTH_SIZES)
def test_every_phase_makes_calls_linear_in_program_size(family):
    """Doubling a bench family's size at most about doubles the calls each
    public phase makes, and the lines it runs, from n to 2n and from 2n to
    4n: each grew by at most 2.0. A phase that makes calls per item once
    per item grows faster: with Program.function rebuilding the by-name
    index at each lookup, as lookups did before the program owned its
    indexes, lock_sets on a chain grew 2.95 times from 100 to 200
    functions. A scan that makes no call per item shows in the lines:
    with Program.function a next() over a generator of the functions, the
    calls of lock_sets on the chain grew at most 1.99 times per doubling,
    its lines 2.50 times and those of transform 2.97 times."""
    factory, _ = runpy.run_path(str(GEN_PATH))["WORKLOADS"][family]
    n = GROWTH_SIZES[family]
    counts = [_phase_work(factory(size, 1).source) for size in (n, 2 * n, 4 * n)]
    for small, large in zip(counts, counts[1:]):
        for key, work in small.items():
            assert large[key] <= 2.1 * work, (key, work, large[key])


def _walk_steps(source: str, budget: int | None = None) -> int:
    """The steps the lock-set walks take while lock_sets runs on source.
    A step past budget fails the run, so a walk that grows exponentially
    stops early."""
    steps = 0

    def counted(w, s, state, report):
        nonlocal steps
        steps += 1
        assert budget is None or steps <= budget, "more than %d steps" % budget
        return step(w, s, state, report)

    program = parse(source)
    step = flowanalysis._step
    flowanalysis._step = counted
    try:
        lock_sets(program)
    finally:
        flowanalysis._step = step
    return steps


def test_the_lock_set_walks_take_steps_linear_in_loop_depth():
    """On while nests of depth 30, 60 and 90 the walks take 18 steps per
    level: each loop body is walked again only when its head grows, in the
    backward walk as in the forward one. A backward walk that solved each
    loop again from its entry at every visit took 353 steps at depth 5,
    10,313 at 10 and 327,793 at 15: each level's head grows on every visit,
    which walks the level below twice."""
    steps = [_walk_steps(while_nest(depth), 20 * depth) for depth in (30, 60, 90)]
    assert steps[1] <= 2.05 * steps[0] and steps[2] <= 1.55 * steps[1], steps


@pytest.mark.parametrize("family", GROWTH_SIZES)
def test_the_lock_set_walks_take_steps_linear_in_program_size(family):
    """Doubling a bench family's size at most about doubles the steps of
    the lock-set walks, from n to 2n and from 2n to 4n: each grew by at most
    2.02."""
    factory, _ = runpy.run_path(str(GEN_PATH))["WORKLOADS"][family]
    n = GROWTH_SIZES[family]
    steps = [_walk_steps(factory(size, 1).source) for size in (n, 2 * n, 4 * n)]
    for small, large in zip(steps, steps[1:]):
        assert large <= 2.1 * small, steps


@pytest.mark.parametrize("n", [20, 40])
def test_a_callee_without_parameters_hands_its_callers_its_own_guard_lists(n):
    """Renaming is the identity then; renaming anyway made this three per
    call site of the chain, one per lock path its callee takes or gives. A
    callee with parameters is renamed."""
    module = import_module("lockshift.transform")
    result = _call_chain(n)
    assert _calls_to(module, "to_caller", lambda: transform(
        result.program, result.lock_summary))[0] == 0
    rings = analyze_program(programs()["bench/recursive_rings/1"])
    assert _calls_to(module, "to_caller", lambda: transform(
        rings.program, rings.lock_summary))[0] > 0


@pytest.mark.parametrize("k", [1, 2, 4])
def test_a_threading_call_renames_each_guard_once_and_reads_its_callee_once(k):
    """On the bench's recursive rings at n, 2n and 4n, one to_caller call
    per lock path that a call passes or receives, for a callee with
    parameters, and each function's parameter names read at most once per
    run. Reading a callee's names at each of its calls made 510 reads per
    run at bench size, a new list each."""
    n = GROWTH_SIZES["recursive_rings"] * k
    result = analyze_program(runpy.run_path(str(GEN_PATH))["WORKLOADS"]["recursive_rings"][0](
        n, 1).source)
    program, lock_summary = result.program, result.lock_summary
    external = {"main", *thread_entries(program)}
    pairs = 0
    for fn in program.functions:
        for c in fn.calls:
            callee = program.function(c.name)
            if callee is not None and callee.params and c.name not in external:
                fs = lock_summary.function(c.name)
                pairs += len(fs.entry_lock) + len(fs.return_lock)
    reads: Counter[str] = Counter()
    param_names = ast.FunctionDef.param_names

    def counted(fn):
        reads[fn.name] += 1
        return param_names.fget(fn)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ast.FunctionDef, "param_names", property(counted))
        calls, _ = _calls_to(import_module("lockshift.transform"), "to_caller",
                             lambda: transform(program, lock_summary))
    assert pairs > 0
    assert calls == pairs
    assert max(reads.values()) == 1


def test_held_lines_are_ascending_tuples_of_distinct_lines(corpus):
    """Each lock's held lines, as the analysis makes them and as
    read_summary reads them back, are one ascending tuple of distinct
    ints: as a frozenset, a lock's few lines took about four times the
    bytes."""
    checked = 0
    for name, run in analyzed(corpus):
        for s in (run.result.lock_summary, read_summary(run.summary)):
            for fs in s.function_map.values():
                for lines in fs.lock_line.values():
                    assert type(lines) is tuple, name
                    assert all(type(n) is int for n in lines), name
                    assert list(lines) == sorted(set(lines)), name
                    checked += 1
    assert checked > 1000


def _live_sets() -> int:
    return sum(type(o) is set for o in gc.get_objects())


def _sets_held_by_inference(n: int, monkeypatch) -> int:
    """How many more sets are alive when data-lock inference of the bench's
    call chain of n functions first picks a candidate lock than before it
    began."""
    program = parse(_call_chain_source(n))
    graphs, cg, flow = lock_sets(program)
    summaries = propagate(program, flow, graphs)
    counts = []
    real = datalock.candidate_lock

    def counted(*args):
        if not counts:
            counts.append(_live_sets())
        return real(*args)

    monkeypatch.setattr(datalock, "candidate_lock", counted)
    before = _live_sets()
    datalock.infer_data_locks(program, flow, summaries, graphs, cg)
    assert counts
    return counts[0] - before


def test_data_lock_inference_keeps_no_set_per_function(monkeypatch):
    """The bench's call chain has no init call and no lock path of two or
    more names. So inference holds the same few sets at 40 and 80
    functions: its tables of each function's init paths and path prefixes
    held two empty sets per function."""
    held = [_sets_held_by_inference(n, monkeypatch) for n in (40, 80)]
    assert held[0] == held[1] <= 3, held


@pytest.mark.parametrize("source", [
    lambda: _call_chain_source(40),
    lambda: programs()["bench/recursive_rings/1"],
], ids=["call_chain", "recursive_rings"])
def test_the_transformer_keeps_one_path_pair_per_distinct_value(source):
    """Functions with equal entry and return locks share one (entry,
    return) pair of path tuples: two new lists per function made 80 on
    the chain of 40, where every f_i has the same pair."""
    result = analyze_program(source())
    pairs = list(_Transformer(result.program, result.lock_summary, Diagnostics()).paths.values())
    assert len({id(pair) for pair in pairs}) == len(set(pairs))
    assert all(type(paths) is tuple for pair in pairs for paths in pair)


# The tracemalloc peak of one full call on the bench's call chain, in bytes
# per function, measured as the slope from n = 40 to 160. Held lines as
# frozensets, two empty sets per function in data-lock inference, a callee
# dict per caller in propagation and two path lists per function in the
# transformer made it 3,492. A change that moves it beyond 5% either way
# moves this figure, with its measurement.
FULL_CALL_BYTES_PER_FUNCTION = 2987


def _full_call_peak(source: str) -> int:
    """tracemalloc's peak over one full call: analyze, write the summary,
    transform, check and print, keeping each result to the end."""
    gc.collect()
    tracemalloc.start()
    try:
        diags = Diagnostics()
        result = analyze_program(source, diags)
        summary_json = write_summary(result.lock_summary)
        guarded = transform(result.program, result.lock_summary, diags)
        errors = check(guarded, diags)
        text = print_guarded(guarded)
        assert summary_json and text and not errors
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_full_call_peak_grows_linearly_at_a_pinned_rate_per_function():
    """The peak is a count of bytes, the same on every run of one
    interpreter build: the analysis allocates the same objects in the
    same order."""
    peaks = [_full_call_peak(_call_chain_source(n)) for n in (40, 80, 160)]
    first, second = (peaks[1] - peaks[0]) / 40, (peaks[2] - peaks[1]) / 80
    assert second <= 1.1 * first, peaks
    per_function = (peaks[2] - peaks[0]) / 120
    assert abs(per_function / FULL_CALL_BYTES_PER_FUNCTION - 1) <= 0.05, peaks
