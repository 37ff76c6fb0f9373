"""Statement-granularity control-flow graphs.

Every function gets a FlowGraph with synthetic Entry and Ret nodes; blocks are
structural (not nodes), if/while conditions are their own nodes, every Return
feeds Ret, and a body that can fall off the end gets an edge to Ret. A
statement that no path reaches gets no node: the walk meets it with an empty
frontier (a return ends a path; an if reaches its end when a branch does or
it has no else; a while always exits) and warns about it and every statement
under it instead.

solve() is the one worklist the dataflow passes share.
"""
from __future__ import annotations

from collections import deque

from .ast import Block, FunctionDef, If, Return, Stmt, While
from .diagnostics import Diagnostics
from .printer import expr_text, stmt_text


class EntryNode:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<entry>"


class RetNode:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<ret>"


Node = object  # EntryNode | RetNode | Stmt


class FlowGraph:
    """nodes lists Entry, the statements in textual order, then Ret; succ
    holds each node's successors, the one stored form of its edges."""

    def __init__(self, name: str):
        self.name = name
        self.entry = EntryNode()
        self.ret = RetNode()
        self.nodes: list[Node] = []
        self.succ: dict[Node, list[Node]] = {}

    def add_node(self, n: Node) -> None:
        self.nodes.append(n)
        self.succ[n] = []

    def add_edge(self, a: Node, b: Node) -> None:
        if b not in self.succ[a]:
            self.succ[a].append(b)

    @property
    def stmt_nodes(self) -> list[Stmt]:
        return self.nodes[1:-1]


def build_cfg(fn: FunctionDef, diags: Diagnostics | None = None) -> FlowGraph:
    g = FlowGraph(fn.name)
    g.add_node(g.entry)
    tail = _walk_block(g, fn.body, [g.entry], diags)
    g.add_node(g.ret)
    _connect(g, tail, g.ret)
    for n in g.nodes:
        if isinstance(n, Return):
            g.add_edge(n, g.ret)
    return g


# The walkers are module-level and take g: nested closures would refer to
# each other through cells, a cycle per graph that only the collector frees.
def _connect(g: FlowGraph, frontier: list[Node], node: Node) -> None:
    for f in frontier:
        g.add_edge(f, node)


def _walk_block(g: FlowGraph, block: Block, frontier: list[Node],
                diags: Diagnostics | None) -> list[Node]:
    for s in block.stmts:
        frontier = _walk_stmt(g, s, frontier, diags)
    return frontier


def _walk_stmt(g: FlowGraph, s: Stmt, frontier: list[Node],
               diags: Diagnostics | None) -> list[Node]:
    if isinstance(s, Block):
        return _walk_block(g, s, frontier, diags)
    if frontier:
        g.add_node(s)
        _connect(g, frontier, s)
        here = [s]
    else:
        if diags is not None:
            diags.warn("unreachable statement removed from flow graph",
                       function=g.name, line=s.line)
        here = []
    if isinstance(s, If):
        exits = _walk_block(g, s.then, here, diags)
        if s.orelse is not None:
            return exits + _walk_block(g, s.orelse, here, diags)
        return exits + here
    if isinstance(s, While):
        _connect(g, _walk_block(g, s.body, here, diags), s)
        return here
    if isinstance(s, Return):
        return []
    return here


def solve(seed, step) -> None:
    """Run a worklist to its fixpoint.

    seed gives the nodes to visit first, in order; step(n) updates the
    facts of n and returns the nodes to revisit. A node is queued at most
    once at a time, and revisits join the back of the queue.
    """
    work = deque(seed)
    queued = set(work)
    while work:
        n = work.popleft()
        queued.discard(n)
        for m in step(n):
            if m not in queued:
                queued.add(m)
                work.append(m)


def node_text(n: Stmt) -> str:
    """One-line text of a statement node; if and while show only their head."""
    if isinstance(n, If):
        return "if (%s)" % expr_text(n.cond)
    if isinstance(n, While):
        return "while (%s)" % expr_text(n.cond)
    return stmt_text(n)


def _node_label(g: FlowGraph, n: Node) -> str:
    if n is g.entry:
        return "entry"
    if n is g.ret:
        return "ret"
    assert isinstance(n, Stmt)
    return "%d: %s" % (n.line, node_text(n))


def cfg_to_dot(g: FlowGraph) -> str:
    """DOT rendering of one function's flow graph."""
    ids: dict[int, str] = {id(g.entry): "entry", id(g.ret): "ret"}
    for i, n in enumerate(g.stmt_nodes):
        ids[id(n)] = "s%d" % i
    out = ["digraph %s {" % g.name]
    for n in g.nodes:
        label = _node_label(g, n).replace('"', '\\"')
        shape = "diamond" if not isinstance(n, Stmt) else "box"
        out.append('    %s [shape=%s, label="%s"];' % (ids[id(n)], shape, label))
    for n in g.nodes:
        for s in g.succ[n]:
            out.append("    %s -> %s;" % (ids[id(n)], ids[id(s)]))
    out.append("}")
    return "\n".join(out) + "\n"
