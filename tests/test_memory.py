"""What the analysis keeps in memory, by counting objects, never by timing.

A function's flow facts keep one per-node map, the locks surely held
before each node. Equal lock sets are one object: every set in that map is
shared with each equal set stored beside it. AST nodes have no
per-instance dict. And propagation renames each call site's held set a
bounded number of times: on an acyclic call graph, callers are solved
before their callees, so each site is renamed once while solving and once
more when its drops are reported.
"""
from __future__ import annotations

import dataclasses

import pytest

from lockshift import ast, propagation
from lockshift.parser import parse_guarded
from lockshift.pipeline import analyze_program

from corpus import completed, first_seeds, programs
from helpers import FIXTURES, chain_program


def test_flow_facts_keep_one_map_keyed_by_the_graph_nodes(corpus):
    checked = 0
    for name, run in completed(corpus):
        for fn, facts in run.result.flow.items():
            maps = [getattr(facts, f.name) for f in dataclasses.fields(facts)
                    if isinstance(getattr(facts, f.name), dict)]
            assert maps == [facts.avail_in], (name, fn, len(maps))
            assert list(facts.avail_in) == run.result.graphs[fn].nodes, (name, fn)
            checked += 1
    assert checked > 1000


def test_flow_facts_store_one_object_per_distinct_set(corpus):
    checked = 0
    for name, run in completed(corpus):
        for fn, facts in run.result.flow.items():
            stored = list(facts.avail_in.values())
            objects = len({id(s) for s in stored})
            values = len(set(stored))
            assert objects <= values, (name, fn, objects, values)
            checked += 1
    assert checked > 1000


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
    assert not any(result.callgraph.is_recursive_scc(i)
                   for i in range(len(result.callgraph.merged_nodes)))
    sites = len(propagation.collect_call_facts(
        result.program, result.flow, result.graphs))
    assert sites > 0
    assert calls <= 2 * sites, (calls, sites)
