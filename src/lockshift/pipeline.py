"""Whole-program drivers tying the phases together.

parse -> control flow graphs -> call graph -> lock-set fixpoints ->
propagation -> data-lock inference -> summary, and optionally onward to the
transformer and the ownership checker.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Program
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


@dataclass
class AnalysisResult:
    program: Program
    graphs: dict[str, FlowGraph]
    callgraph: CallGraph
    flow: dict[str, FunctionFlowFacts]
    lock_summary: LockSummary
    verdicts: list[ProtectionVerdict] = field(default_factory=list)
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


@gc_paused
def analyze_program(source: str | Program, budget: int = 1000,
                    diags: Diagnostics | None = None) -> AnalysisResult:
    """Run the full analysis and assemble the lock summary."""
    if diags is None:
        diags = Diagnostics()
    program = parse(source) if isinstance(source, str) else source
    graphs = {fn.name: build_cfg(fn, diags) for fn in program.functions}
    cg = build_call_graph(program, diags)
    flow = analyze_program_flow(program, cg, graphs, budget, diags)
    functions = propagate(program, flow, graphs, diags)
    global_map, struct_map, verdicts = infer_data_locks(
        program, flow, functions, graphs, cg, diags)
    lock_summary = build_summary(global_map, struct_map, functions)
    return AnalysisResult(program, graphs, cg, flow, lock_summary, verdicts, diags)


@gc_paused
def run_pipeline(source: str | Program, budget: int = 1000,
                 diags: Diagnostics | None = None,
                 ) -> tuple[AnalysisResult, Program, list[OwnershipError]]:
    """Analyze, transform, and check in one go."""
    if diags is None:
        diags = Diagnostics()
    result = analyze_program(source, budget, diags)
    guarded = transform(result.program, result.lock_summary, diags)
    # The checker warns about the same unreachable statements as the
    # analysis's flow graphs did, so its warnings are not kept.
    errors = check(guarded)
    return result, guarded, errors
