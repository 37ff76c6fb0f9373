"""Per-layer tracing from outside the library.

The traced pass runs the pipeline one public layer call at a time, in the
order `pipeline.analyze_program` and `pipeline.run_pipeline` use, and
records a span around each call. The lexer is only reached from inside the
parser, so while the source is parsed the parser's `tokenize` binding is
swapped for a traced one; a renamed binding raises instead of silently
charging lexing to the parser. Garbage-collector pauses are spans too, fed
by `gc.callbacks`, so they are not charged to the layer they interrupt.

A layer's self time is its span minus the spans nested inside it. What
each span covers:

    lexer           tokenize() of the source (full path only)
    parser          parse() of the source, less its lexing
    parser.guarded  parse_guarded() of the printed text, lexing included
    cfg             the analysis CFGs, one build_cfg() per function
    guardcheck      check(), including the CFGs it builds for itself, on
                    the full path and on the check path

Counters are read after the sample, outside every span, from the objects
the layers returned: `cfg.*` from the analysis CFGs only, and
`lexer.tokens`, `datalock.accesses` and `propagation.call_sites` by
calling the public tokenizer and collectors again on those objects.
"""
from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from importlib import import_module

from lockshift import (
    callgraph, cfg, datalock, flowanalysis, guardcheck, lexer, parser, printer,
    propagation, summary)
from lockshift.ast import Block, iter_stmts
from lockshift.diagnostics import Diagnostics

# The package re-exports the function under the module's name.
transform = import_module("lockshift.transform")

# Every per-layer metric, with its unit, in report order.
METRICS = {
    "lexer.s": "s", "lexer.tokens": "count",
    "parser.s": "s", "parser.stmts": "count", "parser.guarded_s": "s",
    "cfg.s": "s", "cfg.nodes": "count", "cfg.edges": "count",
    "callgraph.s": "s", "callgraph.edges": "count", "callgraph.sccs": "count",
    "callgraph.max_scc": "count",
    "flowanalysis.s": "s", "flowanalysis.solves": "count",
    "flowanalysis.max_sweeps": "count",
    "propagation.s": "s", "propagation.call_sites": "count",
    "propagation.lock_line_entries": "count",
    "datalock.s": "s", "datalock.accesses": "count", "datalock.verdicts": "count",
    "datalock.protected": "count",
    "summary.s": "s", "summary.bytes": "count",
    "transform.s": "s", "transform.guard_decls": "count",
    "transform.guard_params": "count",
    "printer.s": "s", "printer.bytes": "count",
    "guardcheck.s": "s", "guardcheck.errors": "count",
    "guardcheck.rejected_functions": "count",
    "gc.s": "s", "gc.collections": "count",
    "trace.overhead_s": "s",
}

# Span name -> self-time metric.
SPAN_METRIC = {
    "lexer": "lexer.s", "parser": "parser.s", "parser.guarded": "parser.guarded_s",
    "cfg": "cfg.s", "callgraph": "callgraph.s", "flowanalysis": "flowanalysis.s",
    "propagation": "propagation.s", "datalock": "datalock.s", "summary": "summary.s",
    "transform": "transform.s", "printer": "printer.s", "guardcheck": "guardcheck.s",
    "gc": "gc.s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Spans of one traced sample, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.open: list[int] = []
        self.gc_collections = 0

    def _enter(self, name: str) -> None:
        parent = self.open[-1] if self.open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self.open.append(len(self.spans) - 1)

    def _exit(self) -> None:
        self.spans[self.open.pop()].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._enter("gc")
            self.gc_collections += 1
        elif self.open and self.spans[self.open[-1]].name == "gc":
            self._exit()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - c)
        return out


@contextmanager
def _swapped(module, name: str, make):
    """Bind module.name to make(original) inside the block. A missing name
    raises AttributeError, failing the sample."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


@contextmanager
def _gc_spans(tracer: Tracer):
    gc.callbacks.append(tracer.on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(tracer.on_gc)


@dataclass
class TracedOutput:
    summary_json: str
    guarded_text: str
    rejected: frozenset[str]
    check_rejected: frozenset[str]
    full_s: float  # traced full path, one perf_counter pair around it
    self_s: dict[str, float]
    counts: dict[str, int]


def traced_sample(source: str) -> TracedOutput:
    """The `full` path, then the `check` path on its output, layer by layer."""
    t = Tracer()
    diags = Diagnostics()
    with _gc_spans(t):
        t0 = time.perf_counter()
        with _swapped(parser, "tokenize", lambda fn: partial(t.call, "lexer", fn)):
            program = t.call("parser", parser.parse, source)
        graphs = {fn.name: t.call("cfg", cfg.build_cfg, fn, diags)
                  for fn in program.functions}
        cg = t.call("callgraph", callgraph.build_call_graph, program, diags)
        flow = t.call("flowanalysis", flowanalysis.analyze_program_flow,
                      program, cg, graphs, diags=diags)
        summaries = t.call("propagation", propagation.propagate,
                           program, flow, graphs, diags)
        global_map, struct_map, verdicts = t.call(
            "datalock", datalock.infer_data_locks,
            program, flow, summaries, graphs, cg, diags)
        lock_summary = t.call("summary", summary.build_summary,
                              global_map, struct_map, summaries)
        summary_json = t.call("summary", summary.write_summary, lock_summary)
        guarded = t.call("transform", transform.transform, program, lock_summary, diags)
        errors = t.call("guardcheck", guardcheck.check, guarded, diags)
        text = t.call("printer", printer.print_guarded, guarded)
        full_s = time.perf_counter() - t0

        reparsed = t.call("parser.guarded", parser.parse_guarded, text)
        check_errors = t.call("guardcheck", guardcheck.check, reparsed)

    c = {"gc.collections": t.gc_collections}
    c["lexer.tokens"] = len(lexer.tokenize(source))
    c["parser.stmts"] = sum(1 for fn in program.functions
                            for s in iter_stmts(fn.body) if not isinstance(s, Block))
    c["cfg.nodes"] = sum(len(g.nodes) for g in graphs.values())
    c["cfg.edges"] = sum(len(v) for g in graphs.values() for v in g.succ.values())
    c["callgraph.edges"] = sum(len(v) for v in cg.edges.values())
    c["callgraph.sccs"] = len(cg.merged_nodes)
    c["callgraph.max_scc"] = max((len(m) for m in cg.merged_nodes), default=0)
    c["flowanalysis.solves"] = sum(f.scc_iterations for f in flow.values())
    c["flowanalysis.max_sweeps"] = max((f.scc_iterations for f in flow.values()), default=0)
    c["propagation.call_sites"] = len(propagation.collect_call_facts(program, flow, graphs))
    c["propagation.lock_line_entries"] = sum(
        len(lines) for s in summaries.values() for lines in s.lock_line.values())
    c["datalock.accesses"] = len(
        datalock.collect_accesses(program, flow, summaries, graphs))
    c["datalock.verdicts"] = len(verdicts)
    c["datalock.protected"] = sum(1 for v in verdicts if v.protected)
    c["summary.bytes"] = len(summary_json.encode())
    c["transform.guard_decls"] = sum(len(fn.guard_decls) for fn in guarded.functions)
    c["transform.guard_params"] = sum(
        1 for fn in guarded.functions for p in fn.params if p.ty.kind == "guard")
    c["printer.bytes"] = len(text.encode())
    c["guardcheck.errors"] = len(errors)
    c["guardcheck.rejected_functions"] = len({e.function for e in errors})
    self_s = dict.fromkeys(SPAN_METRIC.values(), 0.0)
    for name, seconds in t.self_times().items():
        self_s[SPAN_METRIC[name]] = seconds
    return TracedOutput(summary_json, text, frozenset(e.function for e in errors),
                        frozenset(e.function for e in check_errors), full_s,
                        self_s, c)
