"""Parser for element expressions.

Grammar, with juxtaposition binding tighter than ``+``/``-``::

    expr   := ['-'] term (('+' | '-') term)*
    term   := [scalar '*'] factor factor*
    factor := generator | '(' expr ')'
    scalar := integer ['/' integer]

Generator tokens are ``v`` for a vertex, ``e.1`` for an edge strand and
``e.1*`` for its star.  Identifiers may themselves contain superscripts
(``a^(1)``, ``(h^(1))^(2)``), so an opening parenthesis is treated as part
of an identifier exactly when a balanced group followed by ``^(digits)``
matches; otherwise it opens a grouping.
"""

from __future__ import annotations

import re
from typing import Optional

from .algebra import Algebra, AlgebraElement, Generator

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+(\^\(\d+\))*")
_SUPERSCRIPT_RE = re.compile(r"\^\(\d+\)")
_STRAND_RE = re.compile(r"\.(\d+)(\*)?")  # strand suffix .<digits>, optional star
_DENOMINATOR_RE = re.compile(r"/(\d+)")


# Deepest parenthesis nesting accepted.  The parser and the identifier
# scanner recurse once per level, so deeper input is rejected up front.
MAX_NESTING = 100


class ExpressionError(ValueError):
    pass


def _check_nesting(text: str) -> None:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ExpressionError(f"parentheses nest deeper than {MAX_NESTING}")
        elif ch == ")":
            depth = max(depth - 1, 0)


def _scan_identifier(text: str, pos: int) -> Optional[int]:
    """End position of an identifier starting at ``pos``, or None."""
    if pos >= len(text):
        return None
    if text[pos] == "(":
        # Balanced group followed by ^(digits), possibly chained.
        depth = 0
        i = pos
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            return None
        inner = _scan_identifier(text, pos + 1)
        if inner is None or inner != i:
            return None
        m = _SUPERSCRIPT_RE.match(text, i + 1)
        if not m:
            return None
        end = m.end()
        while True:
            m = _SUPERSCRIPT_RE.match(text, end)
            if not m:
                return end
            end = m.end()
    m = _ATOM_RE.match(text, pos)
    return m.end() if m else None


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str]] = []
        self._run()

    def _run(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self.pos += 1
                continue
            if ch in "+-*":
                self.tokens.append((ch, ch))
                self.pos += 1
                continue
            ident_end = _scan_identifier(text, self.pos)
            if ident_end is not None:
                name = text[self.pos:ident_end]
                self.pos = ident_end
                m = _STRAND_RE.match(text, self.pos)
                if m:
                    self.pos = m.end()
                    kind = "star" if m.group(2) else "edge"
                    self.tokens.append((kind, f"{name}.{m.group(1)}"))
                elif name.isdigit():
                    # a bare number is a scalar; allow a/b
                    m2 = _DENOMINATOR_RE.match(text, self.pos)
                    if m2:
                        self.pos = m2.end()
                        self.tokens.append(("scalar", f"{name}/{m2.group(1)}"))
                    else:
                        self.tokens.append(("scalar", name))
                else:
                    self.tokens.append(("name", name))
                continue
            if ch == "(":
                self.tokens.append(("(", ch))
                self.pos += 1
                continue
            if ch == ")":
                self.tokens.append((")", ch))
                self.pos += 1
                continue
            raise ExpressionError(f"unexpected character {ch!r} at position {self.pos}")


class _Parser:
    def __init__(self, algebra: Algebra, text: str):
        self.algebra = algebra
        self.tokens = _Tokenizer(text).tokens
        self.i = 0

    def peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.i += 1
        return tok

    def parse(self) -> AlgebraElement:
        value = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input near {self.peek()[1]!r}")
        return value

    def expr(self) -> AlgebraElement:
        negate = False
        tok = self.peek()
        if tok is not None and tok[0] == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                return value
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs

    def term(self) -> AlgebraElement:
        scalar = None
        tok = self.peek()
        if tok is not None and tok[0] == "scalar":
            self.take()
            scalar = self.algebra.field.parse(tok[1])
            nxt = self.peek()
            if nxt is None or nxt[0] != "*":
                raise ExpressionError("scalar prefix must be followed by '*'")
            self.take()
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in ("name", "edge", "star", "("):
                break
            value = value * self.factor()
        if scalar is not None:
            value = value.scaled(scalar)
        return value

    def factor(self) -> AlgebraElement:
        kind, text = self.take()
        if kind == "(":
            value = self.expr()
            closing = self.take()
            if closing[0] != ")":
                raise ExpressionError("expected ')'")
            return value
        if kind == "name":
            if not self.algebra.graph.has_vertex(text):
                raise ExpressionError(f"unknown vertex {text!r}")
            return self.algebra.vertex(text)
        if kind in ("edge", "star"):
            name, _, rest = text.rpartition(".")
            index = int(rest)
            gen = Generator(kind, name, index)
            try:
                return self.algebra.word((gen,))
            except ValueError as exc:
                raise ExpressionError(str(exc)) from None
        raise ExpressionError(f"unexpected token {text!r}")


def parse_element(algebra: Algebra, text: str) -> AlgebraElement:
    """Evaluate an element expression in the given algebra."""
    if not text.strip():
        raise ExpressionError("empty expression")
    _check_nesting(text)
    return _Parser(algebra, text).parse()
