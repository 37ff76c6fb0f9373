"""lockshift: lock-set analysis and guard-based rewriting for mini-C.

Parse a mini-C program using a pthread-style mutex API, compute which locks
protect which data and which locks are held where, rewrite the program into
a guarded dialect in which locks own their data and guards witness
possession, and verify the result with a guard ownership checker.
"""

from .ast import LockPath, Program
from .callgraph import CallGraph, build_call_graph, thread_entries
from .cfg import FlowGraph, build_cfg
from .diagnostics import (
    Diagnostics,
    IterationBudgetExceeded,
    LockshiftError,
    ParseError,
    SchemaError,
    SourceError,
    SummaryMismatch,
    UnsupportedCall,
)
from .flowanalysis import (
    FunctionFlowFacts,
    analyze_function,
    analyze_program_flow,
    analyze_scc,
)
from .guardcheck import OwnershipError, check
from .parser import parse, parse_guarded
from .pipeline import AnalysisResult, LockSets, analyze_program, lock_sets, run_pipeline
from .printer import print_guarded, print_source
from .propagation import propagate
from .summary import (
    LockSummary,
    build_summary,
    read_summary,
    validate_against_program,
    write_summary,
)
from .transform import transform

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "CallGraph",
    "Diagnostics",
    "FlowGraph",
    "FunctionFlowFacts",
    "IterationBudgetExceeded",
    "LockPath",
    "LockSets",
    "LockshiftError",
    "LockSummary",
    "OwnershipError",
    "ParseError",
    "Program",
    "SchemaError",
    "SourceError",
    "SummaryMismatch",
    "UnsupportedCall",
    "analyze_function",
    "analyze_program",
    "analyze_program_flow",
    "analyze_scc",
    "build_call_graph",
    "build_cfg",
    "build_summary",
    "check",
    "lock_sets",
    "parse",
    "parse_guarded",
    "print_guarded",
    "print_source",
    "propagate",
    "read_summary",
    "run_pipeline",
    "thread_entries",
    "transform",
    "validate_against_program",
    "write_summary",
]
