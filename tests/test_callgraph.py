"""Call-graph edges, SCC condensation order, and thread-entry discovery."""
from __future__ import annotations

from lockshift.callgraph import (
    build_call_graph,
    callgraph_to_dot,
    merged_callgraph_to_dot,
    thread_entries,
)
from lockshift.parser import parse

from helpers import chain_program


def test_edges_exclude_lock_api_calls():
    p = parse("""
    mutex_t m;
    thread_t t;
    void w() { }
    void f() {
        pthread_mutex_lock(&m);
        w();
        pthread_mutex_unlock(&m);
    }
    void main() {
        pthread_create(&t, w);
        f();
    }
    """)
    cg = build_call_graph(p)
    assert cg.edges["f"] == ["w"]
    assert cg.edges["main"] == ["f"]
    assert thread_entries(p) == ["w"]


def test_thread_entry_adds_no_edge():
    p = parse("thread_t t;\nvoid w() { }\nvoid main() { pthread_create(&t, w); }\n")
    cg = build_call_graph(p)
    assert cg.edges["main"] == []
    assert "w" not in cg.reachable_from(["main"])
    assert "w" in cg.reachable_from(thread_entries(p))


def test_post_order_puts_callees_first():
    p = parse("void a() { b(); c(); }\nvoid b() { c(); }\nvoid c() { }\n")
    cg = build_call_graph(p)
    assert cg.merged_nodes == [["c"], ["b"], ["a"]]


def test_mutual_recursion_merges_into_one_scc():
    p = parse("""
    void a(int k) { if (0 < k) { b(k - 1); } }
    void b(int k) { if (0 < k) { a(k - 1); } }
    void main() { a(3); }
    """)
    cg = build_call_graph(p)
    assert cg.merged_nodes == [["a", "b"], ["main"]]
    assert cg.is_recursive_scc(0)
    assert not cg.is_recursive_scc(1)


def test_self_loop_is_recursive_without_merging():
    p = parse("void f(int k) { if (0 < k) { f(k - 1); } }\n")
    cg = build_call_graph(p)
    assert cg.merged_nodes == [["f"]]
    assert cg.is_recursive_scc(0)


def test_duplicate_call_sites_give_one_edge():
    p = parse("void c() { }\nvoid a() { c(); c(); }\n")
    cg = build_call_graph(p)
    assert cg.edges["a"] == ["c"]


def test_edges_are_unique_and_in_first_call_order():
    callees = ["g%d" % i for i in range(300)]
    order = callees[::-1] + callees[::2] + callees  # every callee repeats
    p = parse("thread_t t;\n" + "".join("int %s() { return 0; }\n" % g for g in callees)
              + "void main() { if (g7()) { g3(); } %s pthread_create(&t, g9); "
                "pthread_create(&t, g5); pthread_create(&t, g9); }\n"
              % " ".join("%s();" % g for g in order))
    cg = build_call_graph(p)
    # the If's condition is evaluated before the statements it guards
    want = ["g7", "g3"] + [g for g in callees[::-1] if g not in ("g7", "g3")]
    assert cg.edges["main"] == want
    # one component per callee, in program order, then main's, which has
    # one edge to each of them in component order
    assert cg.merged_nodes == [[g] for g in callees] + [["main"]]
    edges = [line for line in merged_callgraph_to_dot(cg).splitlines() if "->" in line]
    assert edges == ["    scc300 -> scc%d;" % i for i in range(300)]
    assert thread_entries(p) == ["g9", "g5"]


def test_deep_chain_has_no_recursion_limit():
    # Callers first in the text, so the SCC search descends 2000 calls deep.
    lines = chain_program(2000).splitlines()
    p = parse("\n".join(lines[:2] + lines[:1:-1]) + "\n")
    cg = build_call_graph(p)
    assert cg.merged_nodes == [["f%d" % i] for i in range(2000)] + [["main"]]
    assert all(not cg.is_recursive_scc(i) for i in range(len(cg.merged_nodes)))


def test_dot_outputs():
    p = parse("void b() { }\nvoid a(int k) { b(); if (0 < k) { a(k - 1); } }\n")
    cg = build_call_graph(p)
    dot = callgraph_to_dot(cg)
    assert '"a" -> "b";' in dot
    assert '"a" -> "a";' in dot
    merged = merged_callgraph_to_dot(cg)
    assert "digraph" in merged and "a" in merged
