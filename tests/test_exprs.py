"""Expression evaluation against a direct element-arithmetic oracle, and
the tokenizer's and parser's robustness."""

from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from wlpa import Algebra, Generator, WeightedGraph, field_from_name, parse_weighted_graph
from wlpa import exprs
from wlpa.exprs import ExpressionError, parse_element

from graphgen import random_weighted_graph, small_graphs
from oracles import reference_parse_element

FIXTURES = Path(__file__).parent / "fixtures"

_SCALARS = ["0", "1", "2", "5", "1/2", "3/2", "2/3"]


# -- random expression trees ----------------------------------------------
#
# expr   = [(sign, term), ...] with sign in "", "-" first and "+", "-" after
# term   = (scalar text or None, [factor, ...])
# factor = ("gen", token) | ("group", expr)


def _letters(g):
    out = [("vertex", v) for v in g.vertices]
    for e in g.edges:
        for i in range(1, e.weight + 1):
            out += [("edge", e.id, i), ("star", e.id, i)]
    return out


def _random_expr(rng, letters, depth):
    signs = [rng.choice(["", "-"])] + [rng.choice("+-") for _ in range(rng.randint(0, 2))]
    return [(sign, _random_term(rng, letters, depth)) for sign in signs]


def _random_term(rng, letters, depth):
    scalar = rng.choice(_SCALARS) if rng.random() < 0.4 else None
    factors = []
    for _ in range(rng.randint(1, 4)):
        if depth < 4 and rng.random() < 0.2:
            factors.append(("group", _random_expr(rng, letters, depth + 1)))
        else:
            factors.append(("gen", rng.choice(letters)))
    return scalar, factors


def _render(expr):
    pieces = []
    for k, (sign, (scalar, factors)) in enumerate(expr):
        body = " ".join(
            _token(f[1]) if f[0] == "gen" else "(" + _render(f[1]) + ")" for f in factors
        )
        if scalar is not None:
            body = f"{scalar} * {body}"
        pieces.append(sign + body if k == 0 else f"{sign} {body}")
    return " ".join(pieces)


def _token(letter):
    if letter[0] == "vertex":
        return letter[1]
    return f"{letter[1]}.{letter[2]}" + ("*" if letter[0] == "star" else "")


def _evaluate(alg, expr):
    """The value by element arithmetic: ``+``, ``-``, ``*`` and ``scaled``."""
    total = alg.zero()
    for sign, (scalar, factors) in expr:
        value = None
        for f in factors:
            if f[0] == "group":
                x = _evaluate(alg, f[1])
            elif f[1][0] == "vertex":
                x = alg.vertex(f[1][1])
            else:
                kind, e, i = f[1]
                x = alg.edge(e, i) if kind == "edge" else alg.star(e, i)
            value = x if value is None else value * x
        if scalar is not None:
            value = value.scaled(scalar)
        total = total - value if sign == "-" else total + value
    return total


def _oracle_graphs():
    for path in sorted(FIXTURES.glob("*.wg")):
        yield 12, parse_weighted_graph(path.read_text())
    for g in small_graphs(3, 3, 2):
        yield 2, g
    rng = Random(70101)
    for _ in range(20):
        yield 12, random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)


def test_parse_element_matches_element_arithmetic():
    rng = Random(70100)
    checked = 0
    for count, g in _oracle_graphs():
        letters = _letters(g)
        for field in ("rational", "mod:7"):
            alg = Algebra(g, field=field_from_name(field))
            for _ in range(count):
                expr = _random_expr(rng, letters, 0)
                text = _render(expr)
                assert parse_element(alg, text) == _evaluate(alg, expr), (field, text)
                checked += 1
    assert checked == 2 * (13 * 12 + 336 * 2 + 20 * 12)


# -- scanning -----------------------------------------------------------------

_OPEN = ("", "", "", "", "(", "")
_CLOSE = ("", "", "", "", ")", "")


class _CountingText(str):
    """A string that counts the characters and slices read from it."""

    reads = 0

    def __getitem__(self, key):
        _CountingText.reads += 1
        return super().__getitem__(key)


class _CountingPattern:
    """A compiled pattern that counts the scans made with it."""

    calls = 0

    def __init__(self, pattern):
        self._pattern = pattern

    def __getattr__(self, method):
        scan = getattr(self._pattern, method)

        def counted(*args):
            _CountingPattern.calls += 1
            return scan(*args)
        return counted


def test_identifier_scan_is_linear_in_nesting(monkeypatch):
    for pattern in ("_TOKEN_RE", "_NESTED_RE"):
        monkeypatch.setattr(exprs, pattern, _CountingPattern(getattr(exprs, pattern)))
    n = exprs.MAX_NESTING
    _CountingPattern.calls = 0
    tokens = exprs._tokens(_CountingText("(" * n + "v" + ")" * n))
    assert tokens == [_OPEN] * n + [("", "v", "", "", "", "")] + [_CLOSE] * n
    assert _CountingPattern.calls == 1  # one findall
    # a superscripted name inside the run takes the reader that keeps positions
    n -= 1
    _CountingPattern.calls = _CountingText.reads = 0
    tokens = exprs._tokens(_CountingText("(" * n + "(v)^(1)" + ")" * n))
    assert tokens == [_OPEN] * n + [("", "(v)^(1)", "", "", "", "")] + [_CLOSE] * n
    assert _CountingPattern.calls + _CountingText.reads <= 5 * n


def test_deeply_superscripted_identifier_is_one_name():
    name = "a^(1)"
    for _ in range(60):
        name = f"({name})^(1)"
    assert exprs._tokens(name) == [("", name, "", "", "", "")]
    assert exprs._tokens(f"{name}.2*") == [("", name, "2", "*", "", "")]
    assert exprs._tokens(f"({name})") == [_OPEN, ("", name, "", "", "", ""), _CLOSE]
    alg = Algebra(WeightedGraph([name], []))
    assert parse_element(alg, f"2 * ({name} {name})") == alg.vertex(name).scaled(2)


def test_texts_without_strays_skip_the_parenthesis_scan(monkeypatch):
    calls = []
    for helper in ("_matching_parentheses", "_nested_tokens"):
        scan = getattr(exprs, helper)
        monkeypatch.setattr(exprs, helper,
                            lambda *args, _scan=scan, _name=helper: calls.append(_name) or _scan(*args))
    alg = _TOTALITY_ALGEBRAS[0]
    parse_element(alg, "2 * b.2 a.1 b.2* - 1/2 * a.1* + v")
    siblings = parse_element(alg, " ".join(["(v + a.1)"] * exprs.MAX_NESTING))
    assert calls == []
    factor = expected = alg.vertex("v") + alg.edge("a", 1)
    for _ in range(exprs.MAX_NESTING - 1):
        expected = expected * factor
    assert siblings == expected


@pytest.mark.parametrize("text, message", [
    ("(" * 100 + "v" + ")" * 100, None),
    ("(" * 101 + "v" + ")" * 101, "parentheses nest deeper than 100"),
    ("(v) " * 101, None),
])
def test_nesting_limit(text, message):
    alg = _TOTALITY_ALGEBRAS[0]
    if message is None:
        assert parse_element(alg, text) == alg.vertex("v")
    else:
        with pytest.raises(ExpressionError) as info:
            parse_element(alg, text)
        assert str(info.value) == message


# -- totality -----------------------------------------------------------------

# single characters plus chunks that reach deeper into the grammar
_ALPHABET = ["v", "a", "b", "x", ".", "0", "1", "2", "*", "/", "^", "(", ")", "+", "-", " ",
             "v^(1)", "a.1", "b.2*", "b.3", "12", "1/0", "2/7", " * ",
             "\t", " ", "%", "a/2", "1/2 ", "(h^(1))^(2)", "b.01",
             "((h^(1))^(2))^(3)", "(v)^(1)", ")^(2)", "((", "(2/3)", "(h^(1))^(12)"]
_TOTALITY_ALGEBRAS = [
    Algebra(parse_weighted_graph((FIXTURES / "e2loops.wg").read_text()), field=field)
    for field in (field_from_name("rational"), field_from_name("mod:7"))
]
# a digit run is a vertex here unless '*' follows it
_DIGIT_VERTICES = Algebra(parse_weighted_graph("vertex 2\nvertex x\nedge 7 2 x\n"))


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=30).map("".join),
       st.sampled_from(_TOTALITY_ALGEBRAS))
def test_parse_element_returns_a_value_or_an_expression_error(text, alg):
    try:
        value = parse_element(alg, text)
    except ExpressionError:
        return
    assert value.algebra is alg


def _outcome(parse, alg, text):
    try:
        return "value", parse(alg, text)
    except ExpressionError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=30).map("".join),
       st.sampled_from(_TOTALITY_ALGEBRAS + [_DIGIT_VERTICES]))
def test_parse_element_agrees_with_the_reference_parser(text, alg):
    assert _outcome(parse_element, alg, text) == _outcome(reference_parse_element, alg, text)


def test_rendered_elements_read_back():
    rng = Random(70102)
    checked = 0
    for path in sorted(FIXTURES.glob("*.wg")):
        g = parse_weighted_graph(path.read_text())
        letters = [Generator(*letter) for letter in _letters(g)]
        for field in ("rational", "mod:7"):
            alg = Algebra(g, field=field_from_name(field))
            for _ in range(12):
                terms = [(rng.choice(_SCALARS + ["-1", "-3/2"]),
                          tuple(rng.choice(letters) for _ in range(rng.randint(1, 4))))
                         for _ in range(rng.randint(1, 3))]
                x = alg.normalize(terms)
                if x.is_zero():
                    continue
                assert parse_element(alg, x.render()) == x, (path.name, field, x.render())
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("text", ["a.\u0661", "b.\u0662*", "1/\u0662 * v",
                                  "\u0662 * v", "v^(\u0661)", "a.\uff11"])
def test_non_ascii_digits_are_expression_errors(text):
    # a Unicode-aware \d read "a.\u0661" as a.1 and "1/\u0662 * v" as 1/2 v
    with pytest.raises(ExpressionError):
        parse_element(_TOTALITY_ALGEBRAS[0], text)


def test_overlong_numbers_are_expression_errors():
    alg = _TOTALITY_ALGEBRAS[0]
    index = "a." + "9" * 5000  # beyond int()'s default digit limit
    for text, message in ((index, f"unknown generator {index!r}"),
                          ("9" * 5000 + " * v", f"bad rational literal {'9' * 5000!r}")):
        with pytest.raises(ExpressionError) as info:
            parse_element(alg, text)
        assert str(info.value) == message


@pytest.mark.parametrize("alg", _TOTALITY_ALGEBRAS)
@pytest.mark.parametrize("digits", [1, 639, 640, 641, 4000])
def test_integer_scalars_on_both_sides_of_the_int_reader(alg, digits):
    # runs up to exprs._INT_DIGITS are read with int(), longer ones by the field
    run = "7" + "0" * (digits - 1)
    want = alg.normalize([(int(run), (Generator.vertex("v"),))])
    assert parse_element(alg, f"{run} * v") == want
    assert parse_element(alg, f"-{run} v") == -want
    assert parse_element(alg, f"{run} (v)") == want


# -- letters read straight to ids -----------------------------------------

_INDEX = "b." + "9" * 5000  # beyond int()'s default digit limit


@pytest.mark.parametrize("text, same_as", [
    ("b.01 b.02*", "b.1 b.2*"),
    ("2 * b.002 a.1*", "2 * b.2 a.1*"),
    ("\tv\n-  a.1 ", "v - a.1"),
    ("-(b.1 + b.02) b.2*", "-b.1 b.2* - b.2 b.2*"),
    ("2 v", "2 * v"),
])
def test_parser_accepts(text, same_as):
    alg = _TOTALITY_ALGEBRAS[0]
    assert parse_element(alg, text) == parse_element(alg, same_as)


@pytest.mark.parametrize("text, message", [
    ("e.01", "unknown generator 'e.1'"),
    ("v b.03*", "unknown generator 'b.3*'"),
    ("a.1 w", "unknown vertex 'w'"),
    (_INDEX, f"unknown generator {_INDEX!r}"),
    ("v % a.1", "unexpected character '%' at position 2"),
    # a name closing more superscript groups than it opens
    ("(v)^(1))^(2)", "unexpected character '^' at position 8"),
    ("2", "scalar prefix must be followed by '*'"),
    ("v 2", "trailing input near '2'"),
    ("1 * 2", "unexpected token '2'"),
    ("(v * v)", "expected ')'"),
])
def test_parser_rejects(text, message):
    with pytest.raises(ExpressionError) as info:
        parse_element(_TOTALITY_ALGEBRAS[0], text)
    assert str(info.value) == message


def test_warm_reparse_builds_no_generator(monkeypatch):
    alg = Algebra(parse_weighted_graph((FIXTURES / "e2loops.wg").read_text()))
    text = "2 * b.2 a.1 b.2* - (v + b.1*) b.1 + 1/2 * a.1* - b.02"
    first = parse_element(alg, text)
    built = []
    # forwards nothing: the tuple's __new__ has made the Generator already
    monkeypatch.setattr(Generator, "__init__", lambda self, *args, **kwargs: built.append(args))
    assert parse_element(alg, text) == first
    assert built == []
    Algebra(alg.graph)._generators()  # the positive control: one per letter
    assert len(built) == len(alg._id_of)
