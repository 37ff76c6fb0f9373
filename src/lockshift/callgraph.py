"""Call graph construction and SCC condensation.

A call graph is its edges, each function's distinct callees keyed in
program order, and its strongly connected components. Edges only target
user-defined callees; the four pthread API names are library functions and
add none, so the function passed to pthread_create gets no edge
(thread_entries() finds the entry points in each function's calls). The
components are emitted in post-order (callees before callers): the lock-set
analysis sweeps them in it, and propagation takes them reversed, as the
flow facts' key order. The merged-graph dump derives each function's
component and the edges between components itself.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterator

from .ast import CREATE_FN, LOCK_API, Program, ValueRecord
from .diagnostics import Diagnostics


class CallGraph(ValueRecord):
    def __init__(self, edges: dict[str, list[str]], merged_nodes: list[list[str]]):
        self.edges = edges  # keyed in program order
        self.merged_nodes = merged_nodes  # callees first

    def is_recursive_scc(self, idx: int) -> bool:
        members = self.merged_nodes[idx]
        if len(members) > 1:
            return True
        only = members[0]
        return only in self.edges[only]

    def reachable_from(self, roots: list[str]) -> set[str]:
        seen = set(r for r in roots if r in self.edges)
        work = deque(seen)
        while work:
            f = work.popleft()
            for g in self.edges[f]:
                if g not in seen:
                    seen.add(g)
                    work.append(g)
        return seen


def thread_entries(program) -> list[str]:
    """Function names passed to pthread_create, in first-spawn order."""
    # the resolver made the second argument a bare function name
    return list(dict.fromkeys(
        call.args[1].name for fn in program.functions
        for call in fn.calls if call.name == CREATE_FN))


def build_call_graph(program: Program, diags: Diagnostics | None = None) -> CallGraph:
    """The call graph of a resolved program, where every call names a lock-API
    function or a defined one. diags is unused; bench/layers.py passes it,
    and it goes once the bench drives the public entry points instead."""
    edges: dict[str, list[str]] = {}
    for fn in program.functions:
        # distinct, in first-call order
        edges[fn.name] = list(dict.fromkeys(
            call.name for call in fn.calls if call.name not in LOCK_API))
    return CallGraph(edges, _condense(edges))


def _condense(edges: dict[str, list[str]]) -> list[list[str]]:
    """Iterative Tarjan; SCC emission order is already callees-before-callers.
    The work stack holds each open node with the iterator over its callees."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []  # in discovery order, so sorted by index
    work: list[tuple[str, Iterator[str]]] = []
    sccs: list[list[str]] = []

    def push(node: str) -> None:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(edges[node])))

    for root in edges:
        if root in index:
            continue
        push(root)
        while work:
            node, callees = work[-1]
            for t in callees:
                if t not in index:
                    push(t)
                    break
                if t in on_stack:
                    lowlink[node] = min(lowlink[node], index[t])
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    i = bisect_left(stack, index[node], key=index.__getitem__)
                    sccs.append(members := stack[i:])
                    on_stack.difference_update(members)
                    del stack[i:]
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def callgraph_to_dot(cg: CallGraph) -> str:
    out = ["digraph calls {"]
    for n in cg.edges:
        out.append('    "%s";' % n)
    for n, callees in cg.edges.items():
        for t in callees:
            out.append('    "%s" -> "%s";' % (n, t))
    out.append("}")
    return "\n".join(out) + "\n"


def merged_callgraph_to_dot(cg: CallGraph) -> str:
    """The components, and each one's edges to the others in index order."""
    scc = {name: i for i, members in enumerate(cg.merged_nodes) for name in members}
    out = ["digraph calls_merged {"]
    for i, members in enumerate(cg.merged_nodes):
        label = "{%s}" % ", ".join(members)
        out.append('    scc%d [label="%s"];' % (i, label))
    for i, members in enumerate(cg.merged_nodes):
        for j in sorted({scc[g] for f in members for g in cg.edges[f]} - {i}):
            out.append("    scc%d -> scc%d;" % (i, j))
    out.append("}")
    return "\n".join(out) + "\n"
