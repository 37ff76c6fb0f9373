"""Statement-granularity control-flow graphs, and the graph-free flow walks.

Every function gets a FlowGraph with synthetic Entry and Ret nodes; blocks are
structural (not nodes), if/while conditions are their own nodes, every Return
feeds Ret, and a body that can fall off the end gets an edge to Ret. The
resolver cut each statement no path reaches (FunctionDef.unreachable);
build_cfg warns about them (warn_unreachable).

flow() walks the Block/If/While/Return tree with no graph: a state is an
int bit mask, paths join by `|`, None means no path (after a return, or an
if whose branches both end), and a client supplies only step, the state
after one statement (a plain one, an if or while head, a return's value).
A state of 0 tracks nothing, so no step runs on it. A while head joins its
entry with its body's exit until it stops growing, and is kept with the
exit it gave: a later visit whose entry is inside the head takes that exit
unwalked. A visit grows the head on entry (unless it is the first) and
after each walk but its last, so a body is walked at most b+1 times however
deeply loops nest, b being the bits its head can gain after its first
entry. A last walk from the top with report set meets each statement with
the loop heads at their fixpoint. flow_back() is its backward twin.

solve() is the one worklist that propagation and lending share.
"""
from __future__ import annotations

from collections import deque

from .ast import Block, FunctionDef, If, Record, Return, Stmt, While, iter_stmts
from .diagnostics import Diagnostics
from .printer import expr_text, stmt_text


Node = object  # g.entry | g.ret | Stmt


class FlowGraph(Record):
    """succ holds each node's successors, the one stored form of the
    graph: its keys are Entry, the statements in textual order, then Ret.
    Entry and Ret are plain sentinels; fn is the function."""

    __slots__ = ("fn", "entry", "ret", "succ")

    def __init__(self, fn: FunctionDef):
        self.fn = fn
        self.entry = object()
        self.ret = object()
        self.succ: dict[Node, list[Node]] = {}

    @property
    def nodes(self) -> list[Node]:
        return list(self.succ)

    @property
    def stmt_nodes(self) -> list[Stmt]:
        return list(self.succ)[1:-1]


def build_cfg(fn: FunctionDef, diags: Diagnostics | None = None) -> FlowGraph:
    warn_unreachable(diags, fn)
    g = FlowGraph(fn)
    g.succ[g.entry] = []
    tail = _walk_block(g, fn.body, [g.entry])
    g.succ[g.ret] = []
    _connect(g, tail, g.ret)
    return g


# The walkers are module-level and take g: nested closures would refer to
# each other through cells, a cycle per graph that only the collector frees.
def _connect(g: FlowGraph, frontier: list[Node], node: Node) -> None:
    for f in frontier:
        succ = g.succ[f]
        if node not in succ:  # an if with an empty branch repeats f
            succ.append(node)


def _walk_block(g: FlowGraph, block: Block, frontier: list[Node]) -> list[Node]:
    for s in block.stmts:
        frontier = _walk_stmt(g, s, frontier)
    return frontier


def _walk_stmt(g: FlowGraph, s: Stmt, frontier: list[Node]) -> list[Node]:
    t = type(s)
    if t is Block:
        return _walk_block(g, s, frontier)
    g.succ[s] = []
    _connect(g, frontier, s)
    here = [s]
    if t is If:
        exits = _walk_block(g, s.then, here)
        return exits + (here if s.orelse is None else _walk_block(g, s.orelse, here))
    if t is While:
        _connect(g, _walk_block(g, s.body, here), s)
    elif t is Return:
        g.succ[s].append(g.ret)
        return []
    return here


def warn_unreachable(diags: Diagnostics | None, fn: FunctionDef) -> None:
    """Warn about each statement the resolver cut from fn and each one
    under it, in textual order."""
    if diags is not None and fn.unreachable:
        for s in iter_stmts(Block(stmts=list(fn.unreachable))):
            if type(s) is not Block:
                diags.warn("unreachable statement removed from flow graph",
                           function=fn.name, line=s.line)


class Walk:
    """A function's flow walk: step(w, s, state, report) and the loop memo."""

    __slots__ = ("function", "step", "loops")

    def __init__(self, function: str, step):
        self.function = function
        self.step = step
        self.loops: dict[int, tuple[int, int]] = {}


def flow(w: Walk, stmts: list[Stmt], state: int | None,
         report: bool) -> int | None:
    """The state after stmts run from state; None once every path returned.
    With report, w.step meets each statement in its fixpoint state. A plain
    statement is one step."""
    for s in stmts:
        handler = _FLOW.get(type(s))
        if handler is not None:
            state = handler(w, s, state, report)
        elif state:
            state = w.step(w, s, state, report)
    return state


def flow_back(w: Walk, stmts: list[Stmt], state: int, report: bool,
              at_exit: int) -> int:
    """flow's backward twin: the state before stmts, given the state after
    them and the state at_exit that each return starts from, neither of them
    0. Every statement is a step, and a while head keeps flow's loop memo."""
    for s in reversed(stmts):
        t = type(s)
        if t is Block:
            state = flow_back(w, s.stmts, state, report, at_exit)
            continue
        if t is While:
            state, end = _loop(w, s, state, flow_back, at_exit)
            if report:  # the body ends in the head's state before the condition
                flow_back(w, s.body.stmts, end, True, at_exit)
        elif t is If:
            state = flow_back(w, s.then.stmts, state, report, at_exit) | (
                state if s.orelse is None
                else flow_back(w, s.orelse.stmts, state, report, at_exit))
        elif t is Return:
            state = at_exit
        state = w.step(w, s, state, report)
    return state


def _loop(w: Walk, s: While, entry: int, walk, *args) -> tuple[int, int]:
    """(head, exit) of loop s entered in state entry, walking its body with
    walk, which also gets args: the head joins entry with the body's exit
    until it stops growing, and the exit is the head after the condition."""
    memo = w.loops.get(id(s))
    head = entry if memo is None else memo[0] | entry
    if memo is not None and head == memo[0]:
        return memo
    while True:
        out = w.step(w, s, head, False) if head else head
        back = walk(w, s.body.stmts, out, False, *args)
        if back is None or back | head == head:
            break
        head |= back
    memo = w.loops[id(s)] = (head, out)
    return memo


def _flow_while(w: Walk, s: While, state: int, report: bool) -> int:
    head, state = _loop(w, s, state, flow)
    if report:
        if head:
            w.step(w, s, head, True)
        flow(w, s.body.stmts, state, True)
    return state


def _flow_if(w: Walk, s: If, state: int, report: bool) -> int | None:
    if state:
        state = w.step(w, s, state, report)
    then = flow(w, s.then.stmts, state, report)
    if s.orelse is not None:
        state = flow(w, s.orelse.stmts, state, report)
    # where the two paths meet; None stands for no path
    return state if then is None else then if state is None else then | state


def _flow_return(w: Walk, s: Return, state: int, report: bool) -> None:
    if report and state:  # the value's step; no path goes on
        w.step(w, s, state, True)


# How each statement type that is not a plain step runs (flow).
_FLOW = {
    Block: lambda w, s, state, report: flow(w, s.stmts, state, report),
    While: _flow_while,
    If: _flow_if,
    Return: _flow_return,
}


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
    out = ["digraph %s {" % g.fn.name]
    for n in g.succ:
        label = _node_label(g, n).replace('"', '\\"')
        shape = "diamond" if not isinstance(n, Stmt) else "box"
        out.append('    %s [shape=%s, label="%s"];' % (ids[id(n)], shape, label))
    for n, succ in g.succ.items():
        for s in succ:
            out.append("    %s -> %s;" % (ids[id(n)], ids[id(s)]))
    out.append("}")
    return "\n".join(out) + "\n"
