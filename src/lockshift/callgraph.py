"""Call graph construction and SCC condensation.

A call graph is its edges, each function's distinct callees keyed in
program order, and its strongly connected components. Edges only target
user-defined callees; the four pthread API names are library functions and
add none, so the function passed to pthread_create gets no edge
(thread_entries() finds the entry points by walking the calls again). The
components are emitted in post-order (callees before callers), which the
lock-set analysis consumes directly; the merged-graph dump derives each
function's component and the edges between components itself.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .ast import CREATE_FN, LOCK_API, Program, function_calls
from .diagnostics import Diagnostics


@dataclass
class CallGraph:
    edges: dict[str, list[str]]  # keyed in program order
    merged_nodes: list[list[str]]  # callees first

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
        for _, call in function_calls(fn) if call.name == CREATE_FN))


def build_call_graph(program: Program, diags: Diagnostics | None = None) -> CallGraph:
    edges: dict[str, list[str]] = {}
    for fn in program.functions:
        callees: dict[str, None] = {}  # distinct, in first-call order
        for stmt, call in function_calls(fn):
            if call.name in LOCK_API:
                continue
            if program.function(call.name) is None:
                if diags is not None:
                    diags.warn("call to undeclared function %r ignored" % call.name,
                               function=fn.name, line=stmt.line)
                continue
            callees[call.name] = None
        edges[fn.name] = list(callees)
    return CallGraph(edges, _condense(edges))


def _condense(edges: dict[str, list[str]]) -> list[list[str]]:
    """Iterative Tarjan; SCC emission order is already callees-before-callers."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    for root in edges:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            targets = edges[node]
            while ei < len(targets):
                t = targets[ei]
                ei += 1
                if t not in index:
                    work[-1] = (node, ei)
                    work.append((t, 0))
                    advanced = True
                    break
                if t in on_stack:
                    lowlink[node] = min(lowlink[node], index[t])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                members = []
                while True:
                    m = stack.pop()
                    on_stack.discard(m)
                    members.append(m)
                    if m == node:
                        break
                members.reverse()
                sccs.append(members)
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
