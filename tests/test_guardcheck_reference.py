"""Differential test of the ownership checker against a flow-graph reference.

`guardcheck.check` walks each function's statement tree (`cfg.flow`)
over bit-mask states and keeps each loop's head between visits. The
reference below is the checker it replaced: it builds the function's flow graph, runs the
shared worklist (`cfg.solve`) over one state per guard and node, and
reports from each reachable node's fixpoint state. Both must give the same
errors and the same rendered warnings, in the same order.
"""
from __future__ import annotations

import random

import pytest

from lockshift import cfg
from lockshift.ast import Stmt
from lockshift.cfg import build_cfg, solve
from lockshift.diagnostics import Diagnostics
from lockshift.guardcheck import (
    CONFLICTING_PATHS, USE_AFTER_MOVE, USE_OF_UNINIT, OwnershipError, _stmt_events, check)
from lockshift.parser import parse_guarded

from corpus import completed, run_program
from helpers import FIXTURES, ProgramGen
from test_scc_reference import SccGen

UNINIT = "uninit"
OWNED = "owned"
MOVED = "moved"
CONFLICT = "conflict"

_ERROR_OF_STATE = {
    UNINIT: USE_OF_UNINIT,
    MOVED: USE_AFTER_MOVE,
    CONFLICT: CONFLICTING_PATHS,
}


def _transfer(s, state, errors, fn_name):
    state = dict(state)
    uses, gets = _stmt_events(s)
    for kind, name in uses:
        current = state.get(name)
        if current is None:
            continue
        if current != OWNED and errors is not None:
            errors.add(OwnershipError(_ERROR_OF_STATE[current], name, fn_name, s.line))
        if kind == "move":
            state[name] = MOVED
    for name in gets:
        if name in state:
            state[name] = OWNED
    return state


def _join(a, b):
    if a is None:
        return dict(b)
    return {g: (a[g] if a[g] == b[g] else CONFLICT) for g in a}


def _reference_function(fn, diags):
    guards = {d.guard: UNINIT for d in fn.guard_decls}
    for p in fn.params:
        if p.ty.kind == "guard":
            guards[p.name] = OWNED
    if not guards:
        return []
    g = build_cfg(fn, diags)
    in_state = {n: None for n in g.nodes}
    in_state[g.entry] = dict(guards)

    def step(n):
        if in_state[n] is None:
            return ()
        out = (_transfer(n, in_state[n], None, fn.name)
               if isinstance(n, Stmt) else in_state[n])
        changed = []
        for s in g.succ[n]:
            joined = _join(in_state[s], out)
            if joined != in_state[s]:
                in_state[s] = joined
                changed.append(s)
        return changed

    solve(g.nodes, step)

    errors = set()
    for n in g.nodes:
        if isinstance(n, Stmt) and in_state[n] is not None:
            _transfer(n, in_state[n], errors, fn.name)
    return sorted(errors, key=lambda e: (e.line, e.guard, e.kind))


def reference_check(program, diags):
    errors = []
    for fn in program.functions:
        errors.extend(_reference_function(fn, diags))
    return errors


def outcome(checker, program):
    """The errors and the rendered warnings checker gives on program."""
    diags = Diagnostics()
    errors = checker(program, diags)
    return [str(e) for e in errors], [d.render() for d in diags]


def assert_matches_reference(program):
    expected = outcome(reference_check, program)
    assert outcome(check, program) == expected
    return expected


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.gmc")), ids=lambda p: p.name)
def test_the_fixtures_match_the_reference(path):
    assert_matches_reference(parse_guarded(path.read_text()))


def _printed_outputs(runs):
    """The transformer's program and its printed text parsed back, for
    each run that completes and whose text parses."""
    for _, run in completed(runs):
        yield run.guarded
        if run.reparsed is not None:
            yield run.reparsed


def test_every_printed_pinned_output_matches_the_reference(corpus):
    rejected = sum(bool(assert_matches_reference(p)[0])
                   for p in _printed_outputs(corpus))
    assert rejected > 0


def test_more_generated_outputs_match_the_reference():
    runs = {"scc/%d" % seed: run_program(SccGen(seed).program())
            for seed in range(1000, 1120)}
    runs.update(("gen/%d" % seed, run_program(ProgramGen(seed).program()))
                for seed in range(1000, 1060))
    for program in _printed_outputs(runs):
        assert_matches_reference(program)


class GuardGen:
    """Seeded generator of guarded functions that stress the checker.

    A function may take guard parameters and declares guards for two
    locks. Its body acquires, drops, dereferences, lends (`look(&g)`) and
    passes guards on (`both(g, g)` among them), rebinds them from destructuring calls, and
    nests if/else, while, blocks and returns, with more statements after a
    return than any path reaches. A function that returns a guard ends with
    a return, so that no path runs off its end.
    """

    HEADER = [
        "struct d { int n; };",
        "mutex<d> m0 = d { n = 0 };",
        "mutex<d> m1;",
        "int c;",
        "int k;",
        "void take(guard<m0> h) { drop(h); }",
        "void both(guard<m0> a, guard<m0> b) { drop(a); drop(b); }",
        "void look(&guard<m0> h) { (*h).n = 1; }",
        "guard<m0> give(guard<m0> h) { return h; }",
        "(int, guard<m1>) pair(guard<m1> h) { return (1, h); }",
        "guard<m1> fresh() { guard<m1> g; g = m1.acquire(); return g; }",
    ]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def program(self) -> str:
        rng = self.rng
        params, self.m0, self.m1 = [], ["g0", "g1"], ["h0"]
        if rng.random() < 0.5:
            params.append("guard<m0> p0")
            self.m0.append("p0")
        if rng.random() < 0.5:
            params.append("guard<m1> p1")
            self.m1.append("p1")
        self.returns_guard = rng.random() < 0.3
        ret = "guard<m0>" if self.returns_guard else "void"
        lines = self.HEADER + [
            "%s f(%s) { guard<m0> g0; guard<m0> g1; guard<m1> h0;"
            % (ret, ", ".join(params))]
        lines += self.stmts(1, 5)
        if self.returns_guard:
            lines.append("    return %s;" % rng.choice(self.m0))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def stmts(self, depth: int, most: int) -> list[str]:
        out: list[str] = []
        for _ in range(self.rng.randint(1, most)):
            out += self.stmt(depth)
        return out

    def cond(self) -> str:
        if self.rng.random() < 0.25:
            return "(*%s).n < 3" % self.rng.choice(self.m0 + self.m1)
        return "c"

    def stmt(self, depth: int) -> list[str]:
        rng = self.rng
        pad = "    " * depth
        a, b = rng.choice(self.m0), rng.choice(self.m0)
        h, h2 = rng.choice(self.m1), rng.choice(self.m1)
        roll = rng.random()
        if depth < 5 and roll < 0.3:
            form = rng.choice(("if", "ifelse", "while", "block"))
            body = self.stmts(depth + 1, 3)
            if form == "block":
                return [pad + "{"] + body + [pad + "}"]
            head = [pad + "%s (%s) {" % ("while" if form == "while" else "if", self.cond())]
            if form == "ifelse":
                return (head + body + [pad + "} else {"]
                        + self.stmts(depth + 1, 3) + [pad + "}"])
            return head + body + [pad + "}"]
        if roll < 0.36:
            return [pad + ("return %s;" % a if self.returns_guard else "return;")]
        simple = [
            "%s = m0.acquire();" % a,
            "%s = m1.acquire();" % h,
            "drop(%s);" % a,
            "drop(%s);" % h,
            "(*%s).n = (*%s).n + 1;" % (a, b),
            "k = (*%s).n;" % h,
            "take(%s);" % a,
            "look(&%s);" % a,
            "both(%s, %s);" % (a, b),
            "both(%s, %s);" % (a, a),
            "%s = give(%s);" % (a, b),
            "(k, %s) = pair(%s);" % (h, h2),
            "(_, %s) = pair(%s);" % (h, h2),
            "%s = fresh();" % h,
            "c = c + 1;",
        ]
        return [pad + rng.choice(simple)]


def test_generated_guarded_bodies_match_the_reference():
    kinds, warned, accepted = set(), 0, 0
    for seed in range(400):
        errors, warnings = assert_matches_reference(parse_guarded(GuardGen(seed).program()))
        kinds.update(e.split(":")[0] for e in errors)
        warned += bool(warnings)
        accepted += not errors
    # The generator reaches every error kind, dead code and clean functions.
    assert kinds == {USE_OF_UNINIT, USE_AFTER_MOVE, CONFLICTING_PATHS}
    assert warned > 40 and accepted > 20


def nested_loops(depth: int) -> str:
    """Guards g1..g<depth>, all acquired; level j is
    `while (c) { drop(gj); <level j+1> } gj = mj.acquire();`."""
    lines = ["struct d { int n; };", "int c;"]
    lines += ["mutex<d> m%d;" % j for j in range(1, depth + 1)]
    lines.append("void f() {")
    lines += ["guard<m%d> g%d;" % (j, j) for j in range(1, depth + 1)]
    lines += ["g%d = m%d.acquire();" % (j, j) for j in range(1, depth + 1)]
    for j in range(1, depth + 1):
        lines += ["while (c) {", "drop(g%d);" % j]
    for j in range(depth, 0, -1):
        lines += ["}", "g%d = m%d.acquire();" % (j, j)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_deeply_nested_loops_are_checked_in_linear_time(monkeypatch):
    """Each loop is walked again only when its entry grows, so the nest
    does not cost a fixpoint per level per iteration of its parent. Without
    that, 16 levels took over a second and 90 would not finish, so the
    walks are counted and the check stops past a linear budget."""
    depth = 90
    program = parse_guarded(nested_loops(depth))
    walks = []
    flow = cfg.flow

    def counted(w, stmts, state, report):
        if not report:
            walks.append(stmts)
            assert len(walks) <= 4 * depth, "loop bodies walked once per outer iteration"
        return flow(w, stmts, state, report)

    monkeypatch.setattr(cfg, "flow", counted)
    errors, _ = assert_matches_reference(program)
    monkeypatch.undo()
    assert len(errors) == 90
