"""Statement-granularity control-flow graphs.

Every function gets a FlowGraph with synthetic Entry and Ret nodes; blocks are
structural (not nodes), if/while conditions are their own nodes, every Return
feeds Ret, and a body that can fall off the end gets an edge to Ret.

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
    """succ/pred are exact inverses; nodes lists Entry, the statements in
    textual order, then Ret."""

    def __init__(self, name: str):
        self.name = name
        self.entry = EntryNode()
        self.ret = RetNode()
        self.nodes: list[Node] = []
        self.succ: dict[Node, list[Node]] = {}
        self.pred: dict[Node, list[Node]] = {}

    def add_node(self, n: Node) -> None:
        self.nodes.append(n)
        self.succ[n] = []
        self.pred[n] = []

    def add_edge(self, a: Node, b: Node) -> None:
        if b not in self.succ[a]:
            self.succ[a].append(b)
            self.pred[b].append(a)

    @property
    def stmt_nodes(self) -> list[Stmt]:
        return [n for n in self.nodes if isinstance(n, Stmt)]


def build_cfg(fn: FunctionDef, diags: Diagnostics | None = None) -> FlowGraph:
    g = FlowGraph(fn.name)
    g.add_node(g.entry)

    def connect(frontier: list[Node], node: Node) -> None:
        for f in frontier:
            g.add_edge(f, node)

    def walk_block(block: Block, frontier: list[Node]) -> list[Node]:
        for s in block.stmts:
            frontier = walk_stmt(s, frontier)
        return frontier

    def walk_stmt(s: Stmt, frontier: list[Node]) -> list[Node]:
        if isinstance(s, Block):
            return walk_block(s, frontier)
        g.add_node(s)
        connect(frontier, s)
        if isinstance(s, If):
            exits = walk_block(s.then, [s])
            if s.orelse is not None:
                exits = exits + walk_block(s.orelse, [s])
            else:
                exits = exits + [s]
            return _dedupe(exits)
        if isinstance(s, While):
            body_exits = walk_block(s.body, [s])
            connect(body_exits, s)
            return [s]
        if isinstance(s, Return):
            return []
        return [s]

    tail = walk_block(fn.body, [g.entry])
    g.add_node(g.ret)
    connect(tail, g.ret)
    for n in g.nodes:
        if isinstance(n, Return):
            g.add_edge(n, g.ret)

    _cull_unreachable(g, fn.name, diags)
    return g


def _dedupe(nodes: list[Node]) -> list[Node]:
    seen: set[int] = set()
    out = []
    for n in nodes:
        if id(n) not in seen:
            seen.add(id(n))
            out.append(n)
    return out


def _cull_unreachable(g: FlowGraph, fn_name: str, diags: Diagnostics | None) -> None:
    reachable: set[int] = {id(g.entry)}
    work = deque([g.entry])
    while work:
        n = work.popleft()
        for s in g.succ[n]:
            if id(s) not in reachable:
                reachable.add(id(s))
                work.append(s)
    dead = [n for n in g.nodes if id(n) not in reachable and n is not g.ret]
    for n in dead:
        if diags is not None and isinstance(n, Stmt):
            diags.warn("unreachable statement removed from flow graph",
                       function=fn_name, line=n.line)
        for s in g.succ.pop(n):
            g.pred[s].remove(n)
        for p in g.pred.pop(n):
            g.succ[p].remove(n)
        g.nodes.remove(n)


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
