"""Tokenizer shared by the plain and guarded dialects.

A token is an index into the three parallel lists of a `Tokens`: its kind
(kw | ident | int | punct | eof), its text and its line. The last token is
eof, with the text "". No per-token object is built, and a token's column
is found only when an error needs it, by rescanning that one line. Equal
token texts are one shared string, and so are the names the parser copies
from them into the AST.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .ast import KEYWORDS
from .diagnostics import ParseError

# Identifiers, keywords included; lock paths in a summary are checked
# against it too.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# One alternative per token, a two-character operator before its first
# character. A blank matches no alternative, so `findall` steps over it at
# the cost of one failed try; `[^ \t\r]` takes any other character, and a
# character that starts no token has no kind (see _FIRST).
_TOKEN_RE = re.compile(r"->|==|!=|<=|%s|[0-9]+|[^ \t\r]" % IDENT)

# A token's kind: a keyword or `!=` by its text, anything else by its first
# character.
_KINDS = {kw: "kw" for kw in KEYWORDS}
_KINDS["!="] = "punct"
_FIRST = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident")
_FIRST.update(dict.fromkeys("0123456789", "int"))
_FIRST.update(dict.fromkeys("{}()[];,.&*+-<>=", "punct"))


@dataclass(slots=True)
class Tokens:
    """The token lists of one source text; token i is
    (kinds[i], values[i], lines[i], col(i))."""

    kinds: list[str]
    values: list[str]
    lines: list[int]
    source: str

    def __len__(self) -> int:
        return len(self.kinds)

    def col(self, i: int) -> int:
        """1-based column of token i: rescans its line up to it."""
        line = self.lines[i]
        text = self.source.split("\n")[line - 1]
        if i == len(self.kinds) - 1:  # eof, after the line's last character
            return len(text) + 1
        # Lines never decrease, so token i is the k-th token of its line.
        k = i - self.lines.index(line)
        return next(islice(_TOKEN_RE.finditer(text), k, None)).start() + 1


def tokenize(source: str) -> Tokens:
    values: list[str] = []
    lines: list[int] = []
    findall = _TOKEN_RE.findall
    no = 0
    for no, text in enumerate(source.split("\n"), 1):
        if "//" in text:  # only a comment can hold "//"
            text = text[:text.index("//")]
        found = findall(text)
        values += found
        lines += [no] * len(found)
    # One string per distinct text; the copies `findall` made are freed.
    distinct: dict[str, str] = {}
    values = list(map(distinct.setdefault, values, values))
    kind_of = {v: _KINDS[v] if v in _KINDS else _FIRST.get(v[0]) for v in distinct}
    kinds = list(map(kind_of.__getitem__, values))
    values.append("")
    lines.append(no)
    kinds.append("eof")
    tokens = Tokens(kinds, values, lines, source)
    if None in kinds:
        i = kinds.index(None)
        raise ParseError("unexpected character %r" % values[i], lines[i], tokens.col(i))
    return tokens
