"""Tokenizer shared by the plain and guarded dialects."""
from __future__ import annotations

import re
from dataclasses import dataclass

from .ast import KEYWORDS
from .diagnostics import ParseError

# Identifiers, keywords included; lock paths in a summary are checked
# against it too.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# One match per token: leading blanks, then exactly one alternative. `bad`
# takes any other character except a blank. Lines are matched with their
# trailing blanks stripped, so every blank run is followed by a token and no
# match is tried that must fail (a failing try would rescan the run from each
# of its blanks).
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
        (?P<ident>%s)
      | (?P<punct>->|==|!=|<=|[{}()\[\];,.&*+\-<>=])
      | (?P<int>[0-9]+)
      | (?P<comment>//.*)
      | (?P<bad>[^ \t\r])
    )
    """ % IDENT,
    re.VERBOSE,
)


@dataclass(slots=True)
class Token:
    kind: str  # kw | ident | int | punct | eof
    value: str
    line: int
    col: int

    def __repr__(self) -> str:
        return "Token(%s %r @%d:%d)" % (self.kind, self.value, self.line, self.col)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    lines = source.split("\n")
    finditer = _TOKEN_RE.finditer
    for line, text in enumerate(lines, 1):
        for m in finditer(text.rstrip(" \t\r")):
            kind = m.lastgroup
            value = m.group(kind)
            col = m.start(kind) + 1
            if kind == "ident":
                if value in KEYWORDS:
                    kind = "kw"
            elif kind == "comment":
                break
            elif kind == "bad":
                raise ParseError("unexpected character %r" % value, line, col)
            append(Token(kind, value, line, col))
    append(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens
