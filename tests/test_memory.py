"""What the analysis keeps in memory, by counting objects, never by timing.

The analysis result holds the program, the lock summary, the verdicts and
the diagnostics; nothing the lock-set phases make outlives it. A function's
flow facts keep one per-node map, the locks surely held before each node.
Equal lock sets are one object: every set in that map is shared with each
equal set stored beside it, and a call whose renaming changes no path of
its callee's summary has the callee's own sets as its effect. AST nodes
have no per-instance dict. And propagation renames each call site's held
set a bounded number of times: on an acyclic call graph, callers are
solved before their callees, so each site is renamed once while solving
and once more when its drops are reported.
"""
from __future__ import annotations

import dataclasses
import gc
import types

import pytest

from lockshift import ast, propagation
from lockshift.callgraph import CallGraph
from lockshift.cfg import FlowGraph
from lockshift.flowanalysis import FunctionFlowFacts, stmt_effects
from lockshift.parser import parse_guarded
from lockshift.pipeline import AnalysisResult, analyze_program, lock_sets

from corpus import analyzed, first_seeds, programs
from helpers import FIXTURES, chain_program


def test_flow_facts_keep_one_map_keyed_by_the_graph_nodes(corpus):
    checked = 0
    for name, run in analyzed(corpus):
        graphs, _, flow = run.sets
        for fn, facts in flow.items():
            maps = [getattr(facts, f.name) for f in dataclasses.fields(facts)
                    if isinstance(getattr(facts, f.name), dict)]
            assert maps == [facts.avail_in], (name, fn, len(maps))
            assert list(facts.avail_in) == graphs[fn].nodes, (name, fn)
            checked += 1
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
    fields = [f.name for f in dataclasses.fields(AnalysisResult)]
    assert fields == ["program", "lock_summary", "verdicts", "diagnostics"]
    # The result is analyze_program's; the tuple is what run_pipeline returns.
    walked = 0
    for name, run in analyzed(corpus):
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
    return [c for c in vars(ast).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c)
            and c.__module__ == ast.__name__ and c is not ast.Program]


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
    """Every dataclass instance reachable from root through fields, lists,
    tuples and Stmt.calls."""
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif dataclasses.is_dataclass(x) and id(x) not in seen:
            seen[id(x)] = x
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
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


@pytest.mark.parametrize("name", ACYCLIC)
def test_each_call_site_is_renamed_at_most_twice(name, monkeypatch):
    calls = 0
    real = propagation._to_callee_set

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(propagation, "_to_callee_set", counted)
    result = analyze_program(ACYCLIC[name])
    graphs, cg, flow = lock_sets(result.program)
    assert not any(cg.is_recursive_scc(i) for i in range(len(cg.merged_nodes)))
    sites = len(propagation.collect_call_facts(result.program, flow, graphs))
    assert sites > 0
    assert calls <= 2 * sites, (calls, sites)
