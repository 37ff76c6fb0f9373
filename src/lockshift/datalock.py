"""Data-lock inference: which globals and struct fields a lock protects.

Every syntactic read or write of a global or struct field is recorded
together with the locks surely held at that statement. A candidate lock is
the one held most often across the accesses (for fields, only sibling lock
fields of the same struct qualify). The candidate protects the datum when a
write under the lock exists and every access outside the lock happens in
code that cannot run concurrently.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .ast import INIT_FN, LockPath, Program, Var, data_accesses, function_calls
from .callgraph import CallGraph, thread_entries
from .cfg import FlowGraph
from .diagnostics import Diagnostics
from .flowanalysis import FunctionFlowFacts
from .propagation import FunctionFlowSummary


@dataclass(frozen=True)
class GlobalTarget:
    name: str


@dataclass(frozen=True)
class FieldTarget:
    struct: str
    base: LockPath
    field: str


@dataclass
class AccessRecord:
    function: str
    line: int
    held: frozenset[LockPath]
    target: GlobalTarget | FieldTarget
    kind: str  # "read" or "write"


@dataclass
class ProtectionVerdict:
    target: GlobalTarget | tuple[str, str]
    candidate: str | None
    protected: bool
    unsafe_accesses: list[AccessRecord]


def collect_accesses(program: Program, flow: dict[str, FunctionFlowFacts],
                     summaries: dict[str, FunctionFlowSummary],
                     graphs: dict[str, FlowGraph]) -> list[AccessRecord]:
    """All data accesses with the locks surely held at each one."""
    records: list[AccessRecord] = []
    for fn in program.functions:
        g = graphs[fn.name]
        avail_in = flow[fn.name].avail_in
        pls = summaries[fn.name].pls
        for node in g.stmt_nodes:
            held = avail_in[node] | pls
            for kind, e, datum in data_accesses(node):
                if isinstance(e, Var):
                    target = GlobalTarget(e.name)
                else:
                    target = FieldTarget(e.owner, LockPath(datum.segments[:-1]), e.fld)
                records.append(AccessRecord(fn.name, node.line, held, target, kind))
    return records


def _global_lock_names(program: Program) -> list[str]:
    return [g.name for g in program.globals
            if g.ty.kind == "mutex" and g.ty.ptr == 0]


def _sibling_lock_fields(program: Program, struct: str) -> list[str]:
    sd = program.struct(struct)
    if sd is None:
        return []
    return [f.name for f in sd.fields if f.ty.kind == "mutex" and f.ty.ptr == 0]


def candidate_lock(records: list[AccessRecord], choices: list[str],
                   held_path) -> str | None:
    """Most frequently held lock across the records.

    choices are lock names; held_path(record, name) gives the path that must
    be held. Ties break to the smallest name; absent when nothing is ever
    held.
    """
    best: str | None = None
    best_count = 0
    for name in sorted(choices):
        count = sum(1 for r in records if held_path(r, name) in r.held)
        if count > best_count:
            best, best_count = name, count
    return best


def judge_protection(records: list[AccessRecord], candidate: str,
                     held_path, concurrent, target) -> ProtectionVerdict:
    """Safe accesses hold the candidate; the datum is protected when a safe
    write exists and no unsafe access can run concurrently."""
    safe = [r for r in records if held_path(r, candidate) in r.held]
    unsafe = [r for r in records if held_path(r, candidate) not in r.held]
    ok = any(r.kind == "write" for r in safe) and not any(concurrent(r) for r in unsafe)
    return ProtectionVerdict(target, candidate, ok, unsafe)


def _init_paths_by_function(program: Program) -> dict[str, set[LockPath]]:
    """Lock paths each function initializes via the init call."""
    inits: dict[str, set[LockPath]] = defaultdict(set)
    for fn in program.functions:
        for _, call in function_calls(fn):
            if call.name == INIT_FN:
                inits[fn.name].add(call.lock)
    return dict(inits)


def infer_data_locks(program: Program, flow: dict[str, FunctionFlowFacts],
                     summaries: dict[str, FunctionFlowSummary],
                     graphs: dict[str, FlowGraph], cg: CallGraph,
                     diags: Diagnostics | None = None,
                     ) -> tuple[dict[str, str], dict[str, dict[str, str]], list[ProtectionVerdict]]:
    """Compute the global and struct lock maps."""
    records = collect_accesses(program, flow, summaries, graphs)
    entries = thread_entries(program)
    concurrent_fns = cg.reachable_from(entries)
    inits = _init_paths_by_function(program)

    verdicts: list[ProtectionVerdict] = []
    global_map: dict[str, str] = {}
    struct_map: dict[str, dict[str, str]] = {}

    by_global: dict[str, list[AccessRecord]] = defaultdict(list)
    by_field: dict[tuple[str, str], list[AccessRecord]] = defaultdict(list)
    for r in records:
        if isinstance(r.target, GlobalTarget):
            by_global[r.target.name].append(r)
        else:
            by_field[(r.target.struct, r.target.field)].append(r)

    lock_names = _global_lock_names(program)

    def global_held(r: AccessRecord, name: str) -> LockPath:
        return LockPath((name,))

    for gname in sorted(by_global):
        recs = by_global[gname]
        cand = candidate_lock(recs, lock_names, global_held)
        if cand is None:
            verdicts.append(ProtectionVerdict(GlobalTarget(gname), None, False, recs))
            continue
        verdict = judge_protection(
            recs, cand, global_held,
            lambda r: r.function in concurrent_fns,
            GlobalTarget(gname))
        verdicts.append(verdict)
        if verdict.protected:
            global_map[gname] = cand

    def field_held(r: AccessRecord, name: str) -> LockPath:
        return r.target.base.child(name)

    for (sname, fname) in sorted(by_field):
        recs = by_field[(sname, fname)]
        cand = candidate_lock(recs, _sibling_lock_fields(program, sname), field_held)
        if cand is None:
            verdicts.append(ProtectionVerdict((sname, fname), None, False, recs))
            continue

        def concurrent(r: AccessRecord, cand=cand) -> bool:
            if r.function not in concurrent_fns:
                return False
            lock_path = r.target.base.child(cand)
            return lock_path not in inits.get(r.function, set())

        verdict = judge_protection(recs, cand, field_held, concurrent, (sname, fname))
        verdicts.append(verdict)
        if verdict.protected:
            struct_map.setdefault(sname, {})[fname] = cand

    return global_map, struct_map, verdicts
