"""Error types, the warning sink and the collector pause shared by all phases."""
from __future__ import annotations

import functools
import gc
from dataclasses import dataclass


class LockshiftError(Exception):
    """Base class for all errors raised by the library."""


class SourceError(LockshiftError):
    """An error tied to a position in an input file."""

    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.col:
            return "line %d, col %d: %s" % (self.line, self.col, self.message)
        return "line %d: %s" % (self.line, self.message)


class ParseError(SourceError):
    """Syntax error with line/column."""


class UnknownIdentifier(SourceError):
    """A name that resolves to no global, parameter, struct, or function."""


class TypeCheckError(SourceError):
    """Wrong call arity, or an ill-typed construct such as a bad lock-API argument."""


class UnsupportedCall(SourceError):
    """A call the transformer cannot thread guards through: one inside an
    expression, or one whose guard's lock runs through a non-place argument."""


class UndecodableInput(LockshiftError):
    """An input file that is not UTF-8 text; carries the file's path."""

    def __init__(self, file: str, exc: UnicodeDecodeError):
        super().__init__("not UTF-8 text (byte 0x%02x at offset %d)"
                         % (exc.object[exc.start], exc.start))
        self.file = file


class IterationBudgetExceeded(LockshiftError):
    """An SCC fixpoint failed to stabilize within the configured bound."""

    def __init__(self, functions: list[str], budget: int):
        super().__init__(
            "lock-set fixpoint for {%s} did not converge within %d iterations"
            % (", ".join(sorted(functions)), budget)
        )
        self.functions = functions
        self.budget = budget


class SchemaError(LockshiftError):
    """Malformed summary JSON; carries the JSON path of the offending key."""

    def __init__(self, message: str, path: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


class SummaryMismatch(LockshiftError):
    """A summary references entities that do not exist in the program it is applied to."""


@dataclass(slots=True)
class Diagnostic:
    """A non-fatal warning emitted by a phase."""

    message: str
    function: str | None = None
    line: int | None = None

    def render(self) -> str:
        where = []
        if self.function:
            where.append(self.function)
        if self.line is not None:
            where.append("line %d" % self.line)
        if where:
            return "warning: %s (%s)" % (self.message, ", ".join(where))
        return "warning: %s" % self.message


class Diagnostics:
    """Ordered collector for warnings; phases append, the CLI prints."""

    def __init__(self) -> None:
        self.entries: list[Diagnostic] = []

    def warn(self, message: str, function: str | None = None, line: int | None = None) -> None:
        self.entries.append(Diagnostic(message, function, line))

    def extend(self, other: "Diagnostics") -> None:
        self.entries.extend(other.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def gc_paused(fn):
    """Run fn with the cyclic garbage collector off, then restore the
    caller's setting. The phases build no reference cycles, so a collection
    inside one would only re-scan the live program at a cost that grows with
    its size. A call that starts with the collector already off, such as a
    nested phase, leaves it alone."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused
