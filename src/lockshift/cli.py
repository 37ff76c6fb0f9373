"""Command-line driver.

Subcommands: analyze (emit a lock summary), transform (rewrite to the
guarded dialect), check (run the ownership checker on guarded code), and
full (all of it). Outputs are byte-deterministic; timings, warnings and
full's checker errors go to stderr so they never perturb them; check prints
its errors, its only output, to stdout.

Exit codes: 0 success, 1 usage, input or analysis errors, 2 ownership
rejection.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .ast import Program
from .cfg import build_cfg, cfg_to_dot, node_text, warn_unreachable
from .callgraph import build_call_graph, callgraph_to_dot, merged_callgraph_to_dot
from .diagnostics import (
    Diagnostics,
    LockshiftError,
    SchemaError,
    SourceError,
    UndecodableInput,
)
from .flowanalysis import flow_sets
from .guardcheck import check
from .parser import parse, parse_guarded
from .pipeline import LockSets, analyze_program, lock_sets
from .printer import print_guarded
from .summary import read_summary, write_json, write_summary
from .transform import transform

_MODES = ("analyze", "transform", "check", "full")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="source file")
    sub.add_argument("--timings", action="store_true",
                     help="print per-phase wall time to stderr")


def _add_analysis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dump-cfg", action="store_true",
                     help="write <input>.cfg.<function>.dot files")
    sub.add_argument("--dump-callgraph", action="store_true",
                     help="write <input>.callgraph.dot and .merged.dot")
    sub.add_argument("--dump-flow", action="store_true",
                     help="write <input>.flow.json with per-line lock sets")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockshift",
        description="Lock-set analysis and guard-based rewriting for "
                    "mini-C programs with a pthread-style mutex API.")
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("analyze", help="compute and emit the lock summary")
    _add_common(p)
    _add_analysis_flags(p)
    p.add_argument("--emit-summary", metavar="PATH",
                   help="write the summary JSON here instead of stdout")

    p = sub.add_parser("transform", help="rewrite into the guarded dialect")
    _add_common(p)
    _add_analysis_flags(p)
    p.add_argument("--use-summary", metavar="PATH",
                   help="transform with this summary instead of analyzing")
    p.add_argument("--emit-summary", metavar="PATH")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the guarded program here instead of stdout")

    p = sub.add_parser("check", help="run the guard ownership checker")
    _add_common(p)

    p = sub.add_parser("full", help="analyze, transform, and check")
    _add_common(p)
    _add_analysis_flags(p)
    p.add_argument("--use-summary", metavar="PATH")
    p.add_argument("--emit-summary", metavar="PATH")
    p.add_argument("-o", "--output", metavar="PATH")

    return parser


class _Phases:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: list[tuple[str, float]] = []

    def run(self, name: str, fn):
        start = time.perf_counter()
        result = fn()
        self.rows.append((name, time.perf_counter() - start))
        return result

    def report(self) -> None:
        if not self.enabled:
            return
        for name, seconds in self.rows:
            print("%-10s %8.3fs" % (name, seconds), file=sys.stderr)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _texts(paths) -> list[str]:
    return [".".join(p) for p in sorted(paths)]


def _flow_dump(program: Program, sets: LockSets) -> str:
    # The facts are a fixpoint against the final summaries, so solving a
    # function again against them gives the sets the analysis converged on.
    out = {}
    for fn in program.functions:
        g = sets.graphs[fn.name]
        f = sets.flow[fn.name]
        live_in, live_out, avail_in, avail_out = flow_sets(g, sets.flow)
        lines: dict[str, list] = {}
        for n in g.stmt_nodes:
            lines.setdefault(str(n.line), []).append({
                "stmt": node_text(n),
                "live_in": _texts(live_in[n]),
                "live_out": _texts(live_out[n]),
                "avail_in": _texts(avail_in[n]),
                "avail_out": _texts(avail_out[n]),
            })
        out[fn.name] = {
            "mels": _texts(f.mels),
            "mrls": _texts(f.mrls),
            "entry": {"live_in": _texts(live_in[g.entry])},
            "ret": {"avail_out": _texts(avail_out[g.ret])},
            "lines": lines,
        }
    return write_json(out) + "\n"


def _write_dumps(args, program: Program) -> None:
    """Write the requested --dump-* files from facts computed again, with
    no diagnostics: the analysis, if it ran, reported them already. Only
    --dump-flow runs the lock-set fixpoints; the others build the graphs."""
    sets = lock_sets(program) if args.dump_flow else None
    base = Path(args.input)
    if args.dump_cfg:
        for fn in program.functions:
            path = base.with_suffix(".cfg.%s.dot" % fn.name)
            path.write_text(cfg_to_dot(sets.graphs[fn.name] if sets else build_cfg(fn)))
    if args.dump_callgraph:
        cg = sets.callgraph if sets else build_call_graph(program)
        base.with_suffix(".callgraph.dot").write_text(callgraph_to_dot(cg))
        base.with_suffix(".callgraph.merged.dot").write_text(merged_callgraph_to_dot(cg))
    if args.dump_flow:
        base.with_suffix(".flow.json").write_text(_flow_dump(program, sets))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableInput(path, exc) from None


def _print_diagnostics(diags: Diagnostics, path: str) -> None:
    for d in diags:
        print("%s: %s" % (path, d.render()), file=sys.stderr)


def _print_errors(errors, path: str, file) -> None:
    for e in errors:
        print("%s:%d: %s: %s in %s" % (path, e.line, e.kind, e.guard, e.function),
              file=file)


def _run(args, diags: Diagnostics) -> int:
    phases = _Phases(args.timings)
    text = _read_text(args.input)

    if args.mode == "check":
        guarded = phases.run("parse", lambda: parse_guarded(text))
        errors = phases.run("check", lambda: check(guarded, diags))
        _print_diagnostics(diags, args.input)
        _print_errors(errors, args.input, sys.stdout)
        phases.report()
        return 2 if errors else 0

    result = None
    if args.mode == "analyze" or not getattr(args, "use_summary", None):
        result = phases.run("analyze", lambda: analyze_program(text, diags))
        program = result.program
    else:
        program = phases.run("parse", lambda: parse(text))
        for fn in program.functions:  # no flow graph warns about them
            warn_unreachable(diags, fn)
    _write_dumps(args, program)

    if args.mode == "analyze":
        _emit(phases.run("summary", lambda: write_summary(result.lock_summary)),
              args.emit_summary)
        _print_diagnostics(diags, args.input)
        phases.report()
        return 0

    try:
        summary = (read_summary(_read_text(args.use_summary)) if result is None
                   else result.lock_summary)
    except SchemaError as exc:  # malformed: an error of the summary file
        print("%s: error: %s" % (args.use_summary, exc), file=sys.stderr)
        return 1
    # transform validates the summary, so a bad one writes no file.
    guarded = phases.run("transform", lambda: transform(program, summary, diags))
    if getattr(args, "emit_summary", None):
        _emit(phases.run("summary", lambda: write_summary(summary)), args.emit_summary)
    _emit(phases.run("print", lambda: print_guarded(guarded)), getattr(args, "output", None))

    errors = []
    if args.mode == "full":
        errors = phases.run("check", lambda: check(guarded, diags))
    _print_diagnostics(diags, args.input)
    # to stderr, as stdout may carry the guarded program
    _print_errors(errors, args.input, sys.stderr)
    phases.report()
    return 2 if errors else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--check" in argv:
        argv.remove("--check")
        if argv and argv[0] in _MODES:
            argv[0] = "check"
        else:
            argv.insert(0, "check")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # A usage error exits 1, as every input error does: argparse's 2 is
        # the code of a checker rejection. --help exits 0.
        return 1 if exc.code == 2 else exc.code
    diags = Diagnostics()
    try:
        return _run(args, diags)
    except UndecodableInput as exc:
        print("%s: error: %s" % (exc.file, exc), file=sys.stderr)
        return 1
    except LockshiftError as exc:
        # The warnings gathered before a failure, such as a refusal, often
        # explain it; none were printed yet.
        _print_diagnostics(diags, args.input)
        if isinstance(exc, SourceError):
            where = "%d:%d" % (exc.line, exc.col) if exc.col else "%d" % exc.line
            print("%s:%s: error: %s" % (args.input, where, exc.message),
                  file=sys.stderr)
        else:
            print("%s: error: %s" % (args.input, exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
