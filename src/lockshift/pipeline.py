"""Whole-program drivers tying the phases together.

parse -> control flow graphs -> call graph -> lock-set fixpoints ->
propagation -> data-lock inference -> summary, and optionally onward to the
transformer and the ownership checker.

lock_sets() is the one place the graph and lock-set phases are chained.
analyze_program() holds what they make only in locals, so the flow graphs,
call graph and flow facts are freed before any transform or check runs.
The --dump-flow flag calls lock_sets() again; the phases are deterministic.
"""
from __future__ import annotations

from operator import itemgetter

from .ast import Program, ValueRecord
from .callgraph import CallGraph, build_call_graph
from .cfg import FlowGraph, build_cfg
from .datalock import ProtectionVerdict, infer_data_locks
from .diagnostics import Diagnostics, gc_paused
from .flowanalysis import FunctionFlowFacts, analyze_program_flow
from .guardcheck import OwnershipError, check
from .parser import parse
from .propagation import propagate
from .summary import LockSummary, build_summary
from .transform import transform


class LockSets(tuple):
    """What the lock-set phases make, a tuple of three: a flow graph per
    function, the call graph, and each function's flow facts."""

    __slots__ = ()
    graphs = property(itemgetter(0))
    callgraph = property(itemgetter(1))
    flow = property(itemgetter(2))

    def __new__(cls, graphs: dict[str, FlowGraph], callgraph: CallGraph,
                flow: dict[str, FunctionFlowFacts]):
        return tuple.__new__(cls, (graphs, callgraph, flow))


class AnalysisResult(ValueRecord):
    def __init__(self, program: Program, lock_summary: LockSummary,
                 verdicts: list[ProtectionVerdict] | None = None,
                 diagnostics: Diagnostics | None = None):
        self.program = program
        self.lock_summary = lock_summary
        self.verdicts = [] if verdicts is None else verdicts
        self.diagnostics = Diagnostics() if diagnostics is None else diagnostics


@gc_paused
def lock_sets(program: Program, diags: Diagnostics | None = None) -> LockSets:
    """Flow graphs, call graph and bottom-up lock-set fixpoints."""
    graphs = {fn.name: build_cfg(fn, diags) for fn in program.functions}
    cg = build_call_graph(program, diags)
    return LockSets(graphs, cg, analyze_program_flow(program, cg, graphs, diags))


@gc_paused
def analyze_program(source: str | Program, diags: Diagnostics | None = None) -> AnalysisResult:
    """Run the full analysis and assemble the lock summary."""
    if diags is None:
        diags = Diagnostics()
    program = parse(source) if isinstance(source, str) else source
    graphs, cg, flow = lock_sets(program, diags)
    functions = propagate(program, flow, graphs, diags)
    global_map, struct_map, verdicts = infer_data_locks(
        program, flow, functions, graphs, cg, diags)
    lock_summary = build_summary(global_map, struct_map, functions)
    return AnalysisResult(program, lock_summary, verdicts, diags)


@gc_paused
def run_pipeline(source: str | Program, diags: Diagnostics | None = None,
                 ) -> tuple[AnalysisResult, Program, list[OwnershipError]]:
    """Analyze, transform, and check in one go."""
    if diags is None:
        diags = Diagnostics()
    result = analyze_program(source, diags)
    guarded = transform(result.program, result.lock_summary, diags)
    errors = check(guarded, diags)
    return result, guarded, errors
