"""Flow-graph construction: node inventory, edges, and no nodes for code
that no path reaches; and the graph-free flow walk, which follows the same
rule."""
from __future__ import annotations

from lockshift import cfg
from lockshift.ast import Block, If, Return, While, iter_stmts
from lockshift.cfg import Walk, build_cfg, cfg_to_dot, falls_through, flow
from lockshift.diagnostics import Diagnostics
from lockshift.parser import parse


def graph_for(source: str, name: str = "f", diags=None):
    program = parse(source)
    return build_cfg(program.function(name), diags)


def test_straight_line_nodes_and_edges():
    g = graph_for("int n;\nvoid f() { n = 1; n = 2; }\n")
    stmts = g.stmt_nodes
    assert len(stmts) == 2
    assert g.succ[g.entry] == [stmts[0]]
    assert g.succ[stmts[0]] == [stmts[1]]
    assert g.succ[stmts[1]] == [g.ret]
    assert [n for n in g.nodes if g.ret in g.succ[n]] == [stmts[1]]


def test_if_condition_is_its_own_node():
    g = graph_for("int n;\nint c;\nvoid f() { if (c) { n = 1; } n = 2; }\n")
    cond = next(n for n in g.stmt_nodes if isinstance(n, If))
    then_stmt, after = (n for n in g.stmt_nodes if not isinstance(n, If))
    assert set(g.succ[cond]) == {then_stmt, after}
    assert g.succ[then_stmt] == [after]


def test_if_else_joins():
    g = graph_for("int n;\nint c;\nvoid f() { if (c) { n = 1; } else { n = 2; } n = 3; }\n")
    cond = next(n for n in g.stmt_nodes if isinstance(n, If))
    join = g.stmt_nodes[-1]
    assert len(g.succ[cond]) == 2
    assert all(g.succ[b] == [join] for b in g.succ[cond])


def test_while_edges():
    g = graph_for("int n;\nvoid f() { while (n < 3) { n = n + 1; } n = 0; }\n")
    cond = next(n for n in g.stmt_nodes if isinstance(n, While))
    body = next(n for n in g.stmt_nodes if n is not cond and n.line == 2)
    after = g.stmt_nodes[-1]
    assert set(g.succ[cond]) == {body, after}
    assert g.succ[body] == [cond]


def test_return_feeds_ret_node():
    g = graph_for("int n;\nint c;\nvoid f() { if (c) { return; } n = 1; }\n")
    ret_stmt = next(n for n in g.stmt_nodes if isinstance(n, Return))
    assert g.succ[ret_stmt] == [g.ret]
    assert len([n for n in g.nodes if g.ret in g.succ[n]]) == 2


def test_unreachable_statements_are_culled():
    diags = Diagnostics()
    g = graph_for("int n;\nvoid f() { return; n = 1; n = 2; }\n", diags=diags)
    assert len(g.stmt_nodes) == 1
    assert isinstance(g.stmt_nodes[0], Return)
    assert len(diags) == 2
    assert all("unreachable" in d.message for d in diags)
    assert [d.line for d in diags] == [2, 2]


def test_unreachable_nested_statements_warn_in_textual_order():
    diags = Diagnostics()
    g = graph_for("int n;\nint c;\nvoid f() {\n    return;\n    if (c) {\n"
                  "        n = 1;\n    } else {\n        { n = 2; }\n    }\n"
                  "    while (c) {\n        n = 3;\n    }\n}\n", diags=diags)
    assert [type(n) for n in g.stmt_nodes] == [Return]
    assert [n for n in g.nodes if g.ret in g.succ[n]] == [g.stmt_nodes[0]]
    assert [d.line for d in diags] == [5, 6, 8, 10, 11]


def test_the_flow_walk_and_the_flow_graphs_follow_one_rule(corpus, monkeypatch):
    """On every pinned program's functions, the walk's report pass warns
    about exactly the statements build_cfg leaves out of the graph, in the
    same order, and a body falls through exactly when Ret has a
    predecessor that is not a Return."""
    warned: list[int] = []
    monkeypatch.setattr(cfg, "warn_unreachable",
                        lambda diags, function, s: warned.append(id(s)))
    functions = dead = through = 0
    for name, run in corpus.items():
        if run.program is None:
            continue
        for fn in run.program.functions:
            warned.clear()
            g = build_cfg(fn, Diagnostics())
            graph_warned = warned[:]
            warned.clear()
            flow(Walk(fn.name, None, Diagnostics()), fn.body.stmts, 0, True)
            left_out = [id(s) for s in iter_stmts(fn.body)
                        if type(s) is not Block and s not in g.succ]
            assert warned == left_out, (name, fn.name)
            assert graph_warned == left_out, (name, fn.name)
            falls = any(g.ret in g.succ[n] and type(n) is not Return for n in g.nodes)
            assert falls_through(fn.body.stmts) == falls, (name, fn.name)
            functions += 1
            dead += len(left_out)
            through += falls
    assert functions > 1000 and dead > 10 and 1000 < through < functions


def test_empty_body_connects_entry_to_ret():
    g = graph_for("void f() { }\n")
    assert g.stmt_nodes == []
    assert g.succ[g.entry] == [g.ret]


def test_nodes_keep_textual_order():
    g = graph_for("int n;\nint c;\nvoid f() {\n    if (c) {\n        n = 1;\n"
                  "    } else {\n        n = 2;\n    }\n    n = 3;\n}\n")
    lines = [n.line for n in g.stmt_nodes]
    assert lines == sorted(lines)


def test_dot_rendering_mentions_every_node():
    g = graph_for("int n;\nint c;\nvoid f() { if (c) { n = 1; } }\n")
    dot = cfg_to_dot(g)
    assert dot.startswith("digraph f {")
    assert "entry" in dot and "ret" in dot
    assert 'label="3: if (c)"' in dot
    assert "entry -> s0;" in dot
