"""Parser for element expressions.

Grammar, with juxtaposition binding tighter than ``+``/``-``::

    expr   := ['-'] term (('+' | '-') term)*
    term   := [scalar '*'] factor factor*
    factor := generator | '(' expr ')'
    scalar := integer ['/' integer]

Generator tokens are ``v`` for a vertex, ``e.1`` for an edge strand and
``e.1*`` for its star; a bare digit run that no ``*`` follows names the
vertex of that name, if the graph has one, and is a scalar otherwise.
Identifiers may themselves contain superscripts (``a^(1)``,
``(h^(1))^(2)``), so an opening parenthesis is treated as part of an
identifier exactly when its balanced group holds one identifier and is
followed by ``^(digits)``; otherwise it opens a grouping.  The tokenizer
matches every parenthesis in one pass and decides each opening one once.

Evaluation is formal.  Each generator is read straight to its letter id,
a strand through the plain ``(kind, name, index)`` key of the algebra's
letter table, and checked when it is read, so the first bad generator in
the text is the error reported; a :class:`Generator` is built only to
name an unknown one.  A term without groups is one ``(scalar, word)``
pair, its letter ids juxtaposed into a single word; normal forms are
unique, so the normal form of that word is the product of its letters.
Each expression, the whole text and every group, hands the pairs of its
group-free terms in one call to the routine ``Algebra.normalize`` runs
after interning.  A term with a parenthesised group multiplies elements
instead (the pending word's normal form times the group's value), and its
value is added to that sum, so nested groups never expand into
exponentially many formal words.
"""

from __future__ import annotations

import re
from typing import Optional

from .algebra import Algebra, AlgebraElement, Generator
from .fields import FieldError, parse_natural

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+(\^\([0-9]+\))*")
_SUPERSCRIPTS_RE = re.compile(r"(\^\([0-9]+\))+")
_STRAND_RE = re.compile(r"\.([0-9]+)(\*)?")  # strand suffix .<digits>, optional star
_DENOMINATOR_RE = re.compile(r"/([0-9]+)")
_SPACE_RE = re.compile(r"\s*")


# Deepest parenthesis nesting accepted.  The parser recurses once per
# group, so deeper input is rejected up front.
MAX_NESTING = 100


class ExpressionError(ValueError):
    pass


def _matching_parentheses(text: str) -> dict[int, int]:
    """Position of the matching ``)`` of every balanced ``(``.

    Raises :class:`ExpressionError` when parentheses nest deeper than
    ``MAX_NESTING``.
    """
    closes, stack = {}, []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(i)
            if len(stack) > MAX_NESTING:
                raise ExpressionError(f"parentheses nest deeper than {MAX_NESTING}")
        elif ch == ")" and stack:
            closes[stack.pop()] = i
    return closes


def _scan_identifier(text: str, pos: int, closes: dict[int, int],
                     decided: dict[int, Optional[int]]) -> Optional[int]:
    """End position of an identifier starting at ``pos``, or None.

    ``(x)^(d)`` is an identifier when ``x`` is one that ends at the matching
    ``)``.  The run of opening parentheses at ``pos`` is decided innermost
    first, and each verdict is stored in ``decided``, so a tokenizer that
    steps over those parentheses one by one reads them only once.
    """
    if pos in decided:
        return decided[pos]
    opens = []
    while pos < len(text) and text[pos] == "(":
        opens.append(pos)
        pos += 1
    m = _ATOM_RE.match(text, pos)
    end = m.end() if m else None
    for p in reversed(opens):
        if end is not None:
            m = _SUPERSCRIPTS_RE.match(text, end + 1) if closes.get(p) == end else None
            end = m.end() if m else None
        decided[p] = end
    return end


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str]] = []
        self._run()

    def _run(self):
        text, tokens = self.text, self.tokens
        closes = _matching_parentheses(text)
        decided: dict[int, Optional[int]] = {}
        skip_space, atom = _SPACE_RE.match, _ATOM_RE.match
        pos = skip_space(text).end()
        while pos < len(text):
            ch = text[pos]
            if ch in "+-*":
                tokens.append((ch, ch))
                pos += 1
            else:
                if ch == "(":
                    ident_end = _scan_identifier(text, pos, closes, decided)
                else:
                    m = atom(text, pos)
                    ident_end = m.end() if m else None
                if ident_end is not None:
                    name = text[pos:ident_end]
                    pos = ident_end
                    m = _STRAND_RE.match(text, pos)
                    if m:
                        pos = m.end()
                        kind = "star" if m.group(2) else "edge"
                        tokens.append((kind, f"{name}.{m.group(1)}"))
                    elif name.isdigit():
                        # a bare number is a scalar; allow a/b
                        m2 = _DENOMINATOR_RE.match(text, pos)
                        if m2:
                            pos = m2.end()
                            tokens.append(("scalar", f"{name}/{m2.group(1)}"))
                        else:
                            tokens.append(("scalar", name))
                    else:
                        tokens.append(("name", name))
                elif ch in "()":
                    tokens.append((ch, ch))
                    pos += 1
                else:
                    raise ExpressionError(f"unexpected character {ch!r} at position {pos}")
            pos = skip_space(text, pos).end()


class _Parser:
    def __init__(self, algebra: Algebra, text: str):
        self.algebra = algebra
        self.tokens = tokens = _Tokenizer(text).tokens
        self.i = 0
        vertices = algebra._vertex_id
        for k, (kind, name) in enumerate(tokens):
            # a digit run that no '*' follows names the vertex of that name, if any
            if kind == "scalar" and name in vertices and tokens[k + 1:k + 2] != [("*", "*")]:
                tokens[k] = ("name", name)

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
        """A sum of terms: the formal pairs normalized once, plus the group terms."""
        pairs, value = [], None
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] == "-":
            self.take()
            sign = -1
        while True:
            term = self.term(sign)
            if isinstance(term, AlgebraElement):
                value = term if value is None else value + term
            else:
                pairs.append(term)
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                break
            sign = 1 if self.take()[0] == "+" else -1
        total = self.algebra._normal_form(pairs)
        return total if value is None else total + value

    def term(self, sign: int):
        """A ``(scalar, letter ids)`` pair, or the value of a term with a group."""
        scalar = sign
        tok = self.peek()
        if tok is not None and tok[0] == "scalar":
            self.take()
            try:
                scalar = self.algebra.field.parse(tok[1])
            except FieldError as exc:
                raise ExpressionError(str(exc)) from None
            if sign < 0:
                scalar = -scalar
            nxt = self.peek()
            if nxt is None or nxt[0] != "*":
                raise ExpressionError("scalar prefix must be followed by '*'")
            self.take()
        alg = self.algebra
        word: list[int] = []
        value = None  # product of the factors before ``word``, once a group is read
        while True:
            factor = self.factor()
            if isinstance(factor, int):
                word.append(factor)
            else:
                if word:
                    factor = alg._lift(alg._nf_word(tuple(word))) * factor
                    word = []
                value = factor if value is None else value * factor
            tok = self.peek()
            if tok is None or tok[0] not in ("name", "edge", "star", "("):
                break
        if value is None:
            return scalar, tuple(word)
        if word:
            value = value * alg._lift(alg._nf_word(tuple(word)))
        return value.scaled(scalar)

    def factor(self):
        """The letter id of a generator, or the value of a parenthesised group."""
        kind, text = self.take()
        if kind == "(":
            value = self.expr()
            closing = self.take()
            if closing[0] != ")":
                raise ExpressionError("expected ')'")
            return value
        if kind == "name":
            vertex = self.algebra._vertex_id.get(text)
            if vertex is None:
                raise ExpressionError(f"unknown vertex {text!r}")
            return vertex
        if kind in ("edge", "star"):
            name, _, digits = text.rpartition(".")
            try:
                index = parse_natural(digits)
            except ValueError:  # an index too long for int()
                raise ExpressionError(f"unknown generator {text!r}") from None
            letter = self.algebra._id_of.get((kind, name, index))
            if letter is None:
                gen = Generator(kind, name, index)  # built only to name the letter
                raise ExpressionError(f"unknown generator {gen.token()!r}")
            return letter
        raise ExpressionError(f"unexpected token {text!r}")


def parse_element(algebra: Algebra, text: str) -> AlgebraElement:
    """Evaluate an element expression in the given algebra."""
    if not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(algebra, text).parse()
