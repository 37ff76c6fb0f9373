"""Brute-force oracle for the two flow analyses.

On an acyclic, call-free flow graph both analyses have exact meet-over-paths
solutions: enumerate every entry-to-ret path, replay lock/unlock events along
it, and combine (union for the backward may pass, intersection for the
forward must pass). The fixpoint solver must agree with that enumeration on
every node, not just at entry/ret.
"""
from __future__ import annotations

import pytest

from lockshift.ast import Stmt, place_path, LOCK_FN, UNLOCK_FN
from lockshift.cfg import build_cfg
from lockshift.flowanalysis import analyze_function, flow_sets
from lockshift.parser import parse

from helpers import ProgramGen

ORACLE_SOURCES = [
    # lock then unlock, both straight-line
    """
    mutex_t m;
    void f() {
        pthread_mutex_lock(&m);
        pthread_mutex_unlock(&m);
    }
    """,
    # unlock before any lock
    """
    mutex_t m;
    void f() {
        pthread_mutex_unlock(&m);
        pthread_mutex_lock(&m);
    }
    """,
    # unlock on one branch only
    """
    int c;
    mutex_t m;
    void f() {
        if (c) {
            pthread_mutex_unlock(&m);
        } else {
            c = c + 1;
        }
    }
    """,
    # lock on one branch, unlock after the join
    """
    int c;
    mutex_t m;
    void f() {
        if (c) {
            pthread_mutex_lock(&m);
        }
        pthread_mutex_unlock(&m);
    }
    """,
    # two locks interleaved across branches
    """
    int c;
    mutex_t a;
    mutex_t b;
    void f() {
        pthread_mutex_lock(&a);
        if (c) {
            pthread_mutex_unlock(&a);
            pthread_mutex_lock(&b);
        } else {
            pthread_mutex_lock(&b);
        }
        pthread_mutex_unlock(&b);
    }
    """,
    # nested branches with an unlock/relock bounce
    """
    int c;
    mutex_t m;
    void f() {
        if (c) {
            pthread_mutex_unlock(&m);
            if (c == 1) {
                pthread_mutex_lock(&m);
            } else {
                pthread_mutex_lock(&m);
            }
        }
    }
    """,
]


def node_events(n) -> list[tuple[str, str]]:
    """(op, lock-path-text) events of one node, in evaluation order."""
    if not isinstance(n, Stmt):
        return []
    events = []
    for call in n.calls:
        if call.name == LOCK_FN:
            events.append(("lock", ".".join(place_path(call.args[0]))))
        elif call.name == UNLOCK_FN:
            events.append(("unlock", ".".join(place_path(call.args[0]))))
    return events


def enum_paths(g) -> list[list]:
    paths = []

    def walk(node, acc):
        acc.append(node)
        if node is g.ret:
            paths.append(list(acc))
        else:
            for s in g.succ[node]:
                walk(s, acc)
        acc.pop()

    walk(g.entry, [])
    return paths


def all_locks(g) -> set[str]:
    return {p for n in g.nodes for _, p in node_events(n)}


def oracle_entry_live(paths) -> set[str]:
    """p is live at entry iff some path's first event on p is an unlock."""
    live = set()
    for path in paths:
        seen_lock: set[str] = set()
        for n in path:
            for op, p in node_events(n):
                if op == "lock":
                    seen_lock.add(p)
                elif p not in seen_lock:
                    live.add(p)
    return live


def replay(path, start: set[str], upto=None, inclusive: bool = True) -> set[str]:
    """Held set after walking `path`, stopping at node `upto` if given."""
    held = set(start)
    for n in path:
        if n is upto and not inclusive:
            break
        for op, p in node_events(n):
            if op == "lock":
                held.add(p)
            else:
                held.discard(p)
        if n is upto:
            break
    return held


def oracle_ret_avail(paths, entry_live: set[str]) -> set[str]:
    out = None
    for path in paths:
        end = replay(path, entry_live)
        out = end if out is None else (out & end)
    return out or set()


def suffix_live(path, start_index: int) -> set[str]:
    """Locks whose first event at or after start_index is an unlock."""
    live = set()
    seen_lock: set[str] = set()
    for n in path[start_index:]:
        for op, p in node_events(n):
            if op == "lock":
                seen_lock.add(p)
            elif p not in seen_lock:
                live.add(p)
    return live


def assert_oracle_matches(source: str) -> int:
    """Compare the solver against path enumeration; returns the node count."""
    program = parse(source)
    fn = program.functions[0]
    g = build_cfg(fn)
    facts = analyze_function(fn, g, {})
    live_in, _, avail_in, _ = flow_sets(g, {})
    assert avail_in == facts.avail_in
    paths = enum_paths(g)
    assert paths, "no entry-to-ret path"

    entry_live = oracle_entry_live(paths)
    assert {".".join(p) for p in facts.mels} == entry_live
    assert {".".join(p) for p in facts.mrls} == oracle_ret_avail(paths, entry_live)

    for node in g.nodes:
        live_union: set[str] = set()
        avail_meet = None
        for path in paths:
            if node not in path:
                continue
            i = path.index(node)
            live_union |= suffix_live(path, i)
            before = replay(path, entry_live, upto=node, inclusive=False)
            avail_meet = before if avail_meet is None else (avail_meet & before)
        assert avail_meet is not None, "node on no path"
        assert {".".join(p) for p in live_in[node]} == live_union
        if node is not g.entry:
            assert {".".join(p) for p in facts.avail_in[node]} == avail_meet
    return len(g.nodes)


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_solver_matches_path_enumeration(source):
    nodes = assert_oracle_matches(source)
    assert nodes <= 12


def test_solver_matches_enumeration_on_random_programs():
    checked = 0
    for seed in range(60):
        source = ProgramGen(seed).program()
        checked += 1
        assert_oracle_matches(source)
    assert checked == 60
