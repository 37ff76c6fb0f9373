"""Data-lock inference: which globals and struct fields a lock protects.

Every syntactic read or write of a global or struct field is recorded
together with the locks surely held at that statement. Globals and fields
are one case: the lock of datum n or x.n is a mutex beside it, m or x.m (a
mutex global for a global, a mutex field of the same struct for a field).
A candidate lock is the one held most often across the accesses. The
candidate protects the datum when a write under the lock exists and every
access outside the lock happens in code that cannot run concurrently.

A datum that a lock path runs through stays where it is: moving it into a
payload would leave that path naming no lock.

The records of one datum share one datum path, and a record, like a
verdict, is slotted: it has no per-instance dict.
"""
from __future__ import annotations

from collections import defaultdict

from .ast import INIT_FN, FieldAccess, LockPath, Program, ValueRecord, data_accesses
from .callgraph import CallGraph, thread_entries
from .cfg import FlowGraph
from .diagnostics import Diagnostics
from .flowanalysis import FunctionFlowFacts, held_set, propagated_set
from .summary import FunctionSummary, named_lock_paths


class AccessRecord(ValueRecord):
    __slots__ = ("function", "line", "held", "datum", "struct", "kind")

    def __init__(self, function: str, line: int, held: frozenset[LockPath], datum: LockPath,
                 struct: str | None, kind: str):
        self.function = function
        self.line = line
        self.held = held
        self.datum = datum
        self.struct = struct  # struct owning the field datum; None for a global
        self.kind = kind  # "read" or "write"


class ProtectionVerdict(ValueRecord):
    __slots__ = ("target", "candidate", "protected", "unsafe_accesses")

    def __init__(self, target: tuple[str | None, str], candidate: str | None, protected: bool,
                 unsafe_accesses: list[AccessRecord]):
        self.target = target  # (owning struct or None, datum name)
        self.candidate = candidate
        self.protected = protected
        self.unsafe_accesses = unsafe_accesses


def collect_accesses(program: Program, flow: dict[str, FunctionFlowFacts],
                     summaries: dict[str, FunctionSummary],
                     graphs: dict[str, FlowGraph]) -> list[AccessRecord]:
    """All data accesses with the locks surely held at each one (held_set:
    those held at the statement, plus the propagated set PLS). Records of
    one datum share one path object."""
    records: list[AccessRecord] = []
    datums: dict[LockPath, LockPath] = {}
    for fn in program.functions:
        facts = flow[fn.name]
        pls = propagated_set(summaries[fn.name].entry_lock, facts.mels)
        for node in graphs[fn.name].stmt_nodes:
            held = held_set(facts.avail_in[node], pls)
            for kind, e, datum in data_accesses(node):
                struct = e.owner if type(e) is FieldAccess else None
                datum = datums.setdefault(datum, datum)
                records.append(AccessRecord(fn.name, node.line, held, datum, struct, kind))
    return records


def _lock_names(program: Program) -> dict[str | None, list[str]]:
    """The locks that may protect a datum, by the struct that owns it (None
    for a global): mutex globals for a global, mutex fields of the same
    struct for a field. Built once, so inference stays linear in globals."""
    owners = [(None, program.globals)] + [(sd.name, sd.fields) for sd in program.structs]
    return {owner: [d.name for d in decls if d.ty.is_mutex()] for owner, decls in owners}


def candidate_lock(records: list[AccessRecord], choices: list[str]) -> str | None:
    """Most frequently held lock across the records.

    choices are lock names; a record holds a lock when it holds the datum's
    sibling path of that name. One pass over each record's held paths
    counts every name at once. Ties break to the smallest name; absent when
    nothing is ever held.
    """
    names = set(choices)
    counts: dict[str, int] = defaultdict(int)
    for r in records:
        prefix = r.datum[:-1]
        for p in r.held:
            name = p[-1]
            if name in names and p[:-1] == prefix:
                counts[name] += 1
    return min(counts, key=lambda n: (-counts[n], n)) if counts else None


def judge_protection(records: list[AccessRecord], candidate: str,
                     concurrent, target) -> ProtectionVerdict:
    """Safe accesses hold the candidate; the datum is protected when a safe
    write exists and no unsafe access can run concurrently."""
    safe_write = False
    unsafe = []
    for r in records:
        if r.datum[:-1] + (candidate,) in r.held:
            safe_write = safe_write or r.kind == "write"
        else:
            unsafe.append(r)
    ok = safe_write and not any(concurrent(r) for r in unsafe)
    return ProtectionVerdict(target, candidate, ok, unsafe)


def infer_data_locks(program: Program, flow: dict[str, FunctionFlowFacts],
                     summaries: dict[str, FunctionSummary],
                     graphs: dict[str, FlowGraph], cg: CallGraph,
                     diags: Diagnostics | None = None,
                     ) -> tuple[dict[str, str], dict[str, dict[str, str]], list[ProtectionVerdict]]:
    """Compute the global and struct lock maps."""
    records = collect_accesses(program, flow, summaries, graphs)
    concurrent_fns = cg.reachable_from(thread_entries(program))
    # (function, lock path) for each lock path a function initializes via
    # the init call, and for each proper prefix of a lock path it names: a
    # function with none has no entry.
    inits = {(fn.name, c.lock) for fn in program.functions for c in fn.calls
             if c.name == INIT_FN}
    prefixes = {(fn.name, lp[:k]) for fn in program.functions
                for lp in named_lock_paths(fn, summaries[fn.name]) for k in range(1, len(lp))}
    lock_names = _lock_names(program)

    by_target: dict[tuple[str | None, str], list[AccessRecord]] = defaultdict(list)
    for r in records:
        by_target[(r.struct, r.datum[-1])].append(r)

    verdicts: list[ProtectionVerdict] = []
    lock_maps: dict[str | None, dict[str, str]] = defaultdict(dict)
    # Globals first, then struct fields, each in name order.
    for target in sorted(by_target, key=lambda t: (t[0] or "", t[1])):
        struct, name = target
        recs = by_target[target]
        cand = candidate_lock(recs, lock_names[struct])
        # A datum that a lock path of the accessing function runs through
        # stays out of any payload, as when no lock is ever held.
        if cand is None or any((r.function, r.datum) in prefixes for r in recs):
            verdicts.append(ProtectionVerdict(target, cand, False, recs))
            continue

        def concurrent(r: AccessRecord, cand=cand) -> bool:
            # A field access in the function that initializes its instance's
            # lock cannot race: no other thread can hold that lock yet.
            return r.function in concurrent_fns and (
                r.struct is None
                or (r.function, r.datum[:-1] + (cand,)) not in inits)

        verdict = judge_protection(recs, cand, concurrent, target)
        verdicts.append(verdict)
        if verdict.protected:
            lock_maps[struct][name] = cand

    global_map = lock_maps.pop(None, {})
    return global_map, dict(lock_maps), verdicts
