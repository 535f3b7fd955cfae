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

One ``findall`` scans the whole text into tuples ``(fraction, name,
index, star, punctuation, stray)``.  The stray group holds the first
character no other branch takes, and the rest of the text, so it can only
be the last tuple; a stray is always an error, at ``len(text) -
len(stray)``.  Names can nest, as ``(h^(1))^(2)`` does: a run of k
opening parentheses, an atom and m groups ``)^(digits)...`` is a name
from its last min(k, m) parentheses on, and the others open groups.
With m > k the ``^`` after the (k+1)-th ``)`` is a stray.  Only a text
holding ``)^(`` can hold such a name, so only such a text is scanned with
``_NESTED_RE``, whose name branch also takes a whole run from its first
``(``, and :func:`_nested_tokens` splits each run.  Parentheses are
counted for depth first, and only in a text holding more than
``MAX_NESTING`` of ``(``, since fewer cannot nest deeper.

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

from .algebra import Algebra, AlgebraElement, Generator
from .fields import FieldError

_ATOM = r"[A-Za-z0-9_]+(?:\^\([0-9]+\))*"
_STRAND = r"(?:\.([0-9]+)(\*)?)?"  # optional strand suffix .<digits>, optional star
_TOKEN = r"(?:([0-9]+/[0-9]+)|(%s)" + _STRAND + r"|([-+*()])|(\S[\s\S]*))\s*"
_TOKEN_RE = re.compile(_TOKEN % _ATOM)
# each token also whole in a first group; a name may be a run of '(',
# taken from its first, an atom and groups ')^(digits)...'
_NESTED_RE = re.compile(
    "(" + _TOKEN % (r"(?<!\()\(+" + _ATOM + r"(?:\)(?:\^\([0-9]+\))+)+|" + _ATOM) + ")")
_OPEN = ("", "", "", "", "(", "")
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


def _matching_parentheses(text: str) -> None:
    """Raise :class:`ExpressionError` when parentheses nest deeper than ``MAX_NESTING``.

    A ``)`` with no ``(`` open is skipped.
    """
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ExpressionError(f"parentheses nest deeper than {MAX_NESTING}")
        elif ch == ")" and depth:
            depth -= 1


def _nested_tokens(text: str) -> list[tuple[str, ...]]:
    """The tokens of a text holding ``)^(``, each name run split into ``(`` and its name.

    A group's ``)`` after the first follows a ``)``: with m > k groups, the
    (k+1)-th group's ``)`` ends the (m - k)-th ``))`` from the end.
    """
    tokens, pos = [], len(text) - len(text.lstrip())
    for source, *token in _NESTED_RE.findall(text):
        name = token[1]
        if name[:1] == "(":
            opens = len(name) - len(name.lstrip("("))
            groups = name.count(")") - name.count("^(")  # one per superscript
            if groups > opens:
                stray = pos + len(name.rsplit("))", groups - opens)[0]) + 2
                raise ExpressionError(f"unexpected character '^' at position {stray}")
            tokens += [_OPEN] * (opens - groups)
            token[1] = name[opens - groups:]
        tokens.append(tuple(token))
        pos += len(source)
    return tokens


def _tokens(text: str) -> list[tuple[str, ...]]:
    """``(fraction, name, index, star, punctuation, "")`` for each token of ``text``."""
    if text.count("(") > MAX_NESTING:
        _matching_parentheses(text)
    tokens = _nested_tokens(text) if ")^(" in text else _TOKEN_RE.findall(text)
    if tokens and tokens[-1][5]:
        stray = tokens[-1][5]
        raise ExpressionError(
            f"unexpected character {stray[0]!r} at position {len(text) - len(stray)}")
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
