"""Parser for element expressions.

Grammar, with juxtaposition binding tighter than ``+``/``-``::

    expr   := ['-'] term (('+' | '-') term)*
    term   := [scalar ['*']] factor factor*
    factor := generator | '(' expr ')'
    scalar := integer ['/' integer]

Generator tokens are ``v`` for a vertex, ``e.1`` for an edge strand and
``e.1*`` for its star; a bare digit run that no ``*`` follows names the
vertex of that name, if the graph has one, and is a scalar otherwise.
That rule comes first, so on a graph with a vertex ``2`` the text ``2 v``
is a product of two vertices: ``AlgebraElement.render`` reads back as the
same element only on graphs with no digit-run vertex name.

One ``findall`` of ``_TOKEN_RE`` scans the whole text into tuples
``(fraction, name, index, star, punctuation, stray)``.  The stray group
holds the first character no other branch takes, and the rest of the
text, so it can only be the last tuple.  Such a text is read a second
time by :func:`_scan_strays`, a loop over the same pattern that keeps
positions: a stray character is an error, unless it is the ``^`` of an
identifier that begins with a parenthesis (``(h^(1))^(2)``).  There an
opening parenthesis is part of an identifier exactly when its balanced
group holds one identifier and is followed by ``^(digits)``; otherwise it
opens a grouping.  That reader matches every parenthesis in one pass and
decides each opening one once.  A text without strays has its
parentheses matched only when it holds more than ``MAX_NESTING`` of
``(``, since fewer cannot nest deeper.

Evaluation is formal.  Each generator is read straight to its letter id
through its plain ``(kind, name, index)`` key in the algebra's one letter
table and checked when it is read, so the first bad generator in the text
is the error reported; a :class:`Generator` is built only to name an
unknown one.  A term without groups is one ``(scalar, word)`` pair, its
letter ids juxtaposed into a single word; normal forms are unique, so the
normal form of that word is the product of its letters.  Each expression,
the whole text and every group, hands the pairs of its group-free terms in
one call to the routine ``Algebra.normalize`` runs after interning.  A
term with a parenthesised group multiplies elements instead (the pending
word's normal form times the group's value), and its value is added to
that sum, so nested groups never expand into exponentially many formal
words.
"""

from __future__ import annotations

import re
from typing import Optional

from .algebra import Algebra, AlgebraElement, Generator
from .fields import FieldError

_ATOM = r"[A-Za-z0-9_]+(?:\^\([0-9]+\))*"
_STRAND = r"(?:\.([0-9]+)(\*)?)?"  # optional strand suffix .<digits>, optional star
_TOKEN_RE = re.compile(
    r"(?:([0-9]+/[0-9]+)|(" + _ATOM + ")" + _STRAND + r"|([-+*()])|(\S[\s\S]*))\s*")
_STRAND_RE = re.compile(_STRAND + r"\s*")
_ATOM_RE = re.compile(_ATOM)
_SUPERSCRIPTS_RE = re.compile(r"(\^\([0-9]+\))+")
_SPACE_RE = re.compile(r"\s*")
_END = ("",) * 6  # closes every token list the parser reads


# Longest digit run read as an integer scalar with int(): no setting of
# Python's digit limit for int() goes below 640.  A longer run, and every
# fraction, is read by the field's parse, which names a bad literal.
_INT_DIGITS = 640

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
    first, and each verdict is stored in ``decided``, so a reader that
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


def _scan_strays(text: str) -> list[tuple[str, ...]]:
    """The tokens of a text whose scan holds a stray character, read with positions."""
    closes = _matching_parentheses(text)
    decided: dict[int, Optional[int]] = {}
    tokens = []
    pos = _SPACE_RE.match(text).end()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m.group(6):
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        end = _scan_identifier(text, pos, closes, decided) if m.group(5) == "(" else None
        if end is None:
            tokens.append(m.groups(""))
        else:
            m = _STRAND_RE.match(text, end)
            tokens.append(("", text[pos:end]) + m.groups("") + ("", ""))
        pos = m.end()
    return tokens


def _tokens(text: str) -> list[tuple[str, ...]]:
    """``(fraction, name, index, star, punctuation, "")`` for each token of ``text``."""
    tokens = _TOKEN_RE.findall(text)
    if tokens and tokens[-1][5]:
        return _scan_strays(text)
    if text.count("(") > MAX_NESTING:
        _matching_parentheses(text)
    return tokens


def _quote(token: tuple[str, ...]) -> str:
    """A token that is not a generator, as error messages quote it."""
    return repr(token[0] or token[1] or token[4])


class _Parser:
    """Recursive descent over the token tuples of one text, closed by ``_END``."""

    def __init__(self, algebra: Algebra, tokens: list[tuple[str, ...]]):
        self.algebra, self.tokens = algebra, tokens

    def expr(self, i: int) -> tuple[AlgebraElement, int]:
        """The sum that starts at token ``i``, and the index after it.

        The formal pairs are normalized once, then the group terms added.
        """
        tokens = self.tokens
        pairs, value, sign = [], None, 1
        if tokens[i][4] == "-":
            sign, i = -1, i + 1
        while True:
            term, i = self.term(i, sign)
            if isinstance(term, AlgebraElement):
                value = term if value is None else value + term
            else:
                pairs.append(term)
            punct = tokens[i][4]
            if punct != "+" and punct != "-":
                break
            sign, i = (1 if punct == "+" else -1), i + 1
        total = self.algebra._normal_form(pairs)
        return (total if value is None else total + value), i

    def term(self, i: int, sign: int):
        """A ``(scalar, letter ids)`` pair, or the value of a term with a group,
        and the index after it."""
        alg, tokens = self.algebra, self.tokens
        id_of = alg._id_of
        fraction, name, index, _, _, _ = tokens[i]
        scalar, bare = sign, False
        # a digit run that no '*' follows names the vertex of that name, if any
        if fraction or (not index and name.isdigit()
                        and (("vertex", name, 0) not in id_of or tokens[i + 1][4] == "*")):
            if fraction or len(name) > _INT_DIGITS:
                try:
                    scalar = alg.field.parse(fraction or name)
                except FieldError as exc:
                    raise ExpressionError(str(exc)) from None
            else:  # ASCII digits, as the pattern reads them
                scalar = alg.field.reduce(int(name))
            if sign < 0:
                scalar = -scalar
            i += 1
            bare = tokens[i][4] != "*"
            if not bare:
                i += 1
        word: list[int] = []
        value = None  # product of the factors before ``word``, once a group is read
        while True:
            fraction, name, index, star, punct, _ = tokens[i]
            if index:
                kind = "star" if star else "edge"
                try:
                    letter = id_of.get((kind, name, int(index)))
                except ValueError:  # an index too long for int()
                    raise ExpressionError(f"unknown generator {name + '.' + index!r}") from None
                if letter is None:
                    gen = Generator(kind, name, int(index))  # built only to name the letter
                    raise ExpressionError(f"unknown generator {gen.token()!r}")
                word.append(letter)
            elif name:
                letter = id_of.get(("vertex", name, 0))
                if letter is None or (tokens[i + 1][4] == "*" and name.isdigit()):
                    if not name.isdigit():
                        raise ExpressionError(f"unknown vertex {name!r}")
                    break  # a scalar
                word.append(letter)
            elif punct == "(":
                group, i = self.expr(i + 1)
                if tokens[i][4] != ")":
                    raise ExpressionError("unexpected end of expression" if tokens[i] is _END
                                          else "expected ')'")
                if word:
                    group = alg._lift(alg._nf_word(tuple(word))) * group
                    word = []
                value = group if value is None else value * group
            else:
                break
            i += 1
        if not word and value is None:
            if bare:
                raise ExpressionError("scalar prefix must be followed by '*'")
            if tokens[i] is _END:
                raise ExpressionError("unexpected end of expression")
            raise ExpressionError(f"unexpected token {_quote(tokens[i])}")
        if value is None:
            return (scalar, tuple(word)), i
        if word:
            value = value * alg._lift(alg._nf_word(tuple(word)))
        return value.scaled(scalar), i


def parse_element(algebra: Algebra, text: str) -> AlgebraElement:
    """Evaluate an element expression in the given algebra."""
    if not text.strip():
        raise ExpressionError("empty expression")
    tokens = _tokens(text)
    tokens.append(_END)
    value, i = _Parser(algebra, tokens).expr(0)
    if tokens[i] is not _END:
        raise ExpressionError(f"trailing input near {_quote(tokens[i])}")
    return value
