from fractions import Fraction
from itertools import accumulate, islice, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from wlpa import (
    NOT_HOMOGENEOUS,
    ZERO_ELEMENT,
    Algebra,
    AlgebraError,
    EdgeRecord,
    Generator,
    GraphError,
    MixedContextError,
    PrimeField,
    SpecialEdgeChoice,
    UnknownGeneratorError,
    WeightedGraph,
    apply_generator_map,
    default_special_edges,
    evaluate_relation,
    field_from_name,
    identity_map,
    parse_weighted_graph,
    relation_instances,
    search_shape_word,
    validate_choice,
    witness_nodpath,
)
from wlpa import algebra as algebra_module
from wlpa.exprs import parse_element
from wlpa.fields import ModInt

from graphgen import (
    _last_maximal_choice,
    multigraphs,
    random_lpa_satisfying_graph,
    random_weighted_graph,
    small_graphs,
)
from oracles import (
    AllLetters,
    _search_shape_word,
    classical_unweighted_count,
    engine_span_dimension_gf2,
    generator_endpoints,
    out_edges,
    reference_default_special_edges,
    reference_normal_form,
    reference_relation_instances,
    reference_rule,
    reference_validate_choice,
    relation_failures,
    truncated_quotient_dimension,
    word_degree,
)

FIXTURES = Path(__file__).parent / "fixtures"

E = Generator.edge
S = Generator.star
V = Generator.vertex


def fixture_graph(name):
    return parse_weighted_graph((FIXTURES / name).read_text())


def loop1():
    return parse_weighted_graph("vertex v\nedge a v v 1")


def random_words(rng, algebra, count, max_len):
    letters = list(algebra.nonvertex_generators())
    letters += [V(v) for v in algebra.graph.vertices]
    words = []
    for _ in range(count):
        n = rng.randint(1, max_len)
        words.append(tuple(rng.choice(letters) for _ in range(n)))
    return words


# -- special edges ---------------------------------------------------------


def test_default_special_edges():
    assert default_special_edges(loop1()).mapping == {"v": "a"}
    assert default_special_edges(fixture_graph("e2loops.wg")).mapping == {"v": "b"}
    # ties break to the first edge in graph order
    assert default_special_edges(fixture_graph("l23.wg")).mapping == {"v": "e1"}


def test_choice_validation():
    g = fixture_graph("e2loops.wg")
    with pytest.raises(AlgebraError):
        validate_choice(g, SpecialEdgeChoice((("v", "a"),)))  # not maximal
    with pytest.raises(AlgebraError):
        validate_choice(g, SpecialEdgeChoice(()))  # not total


def _outcome(fn, *args):
    """What ``fn(*args)`` returned, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (AlgebraError, GraphError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(multigraphs())
def test_default_special_edges_match_the_reference(g):
    assert default_special_edges(g) == reference_default_special_edges(g)


@st.composite
def _graphs_and_choices(draw):
    """A multigraph and a choice of special edges, often a faulty one.

    Each vertex is left out, or given its default edge, any edge of the
    graph or an unknown one; so sinks are named, non-sinks missed, and
    edges chosen that the vertex does not emit or that are not of its
    maximal weight.  Keys that are no vertex may be added.
    """
    g = draw(multigraphs())
    default = default_special_edges(g).mapping
    ids = [e.id for e in g.edges] + ["zz"]
    pairs = []
    for v in g.vertices:
        options = [None, *ids] + ([default[v]] * 3 if v in default else [])
        eid = draw(st.sampled_from(options))
        if eid is not None:
            pairs.append((v, eid))
    pairs += draw(st.lists(st.tuples(st.sampled_from(["x", "v9"]), st.sampled_from(ids)),
                           max_size=2))
    return g, SpecialEdgeChoice(tuple(draw(st.permutations(pairs))))


@settings(max_examples=500, deadline=None, database=None)
@given(_graphs_and_choices())
def test_validate_choice_matches_the_reference(case):
    g, choice = case
    assert _outcome(validate_choice, g, choice) == _outcome(reference_validate_choice, g, choice)


_TIE = parse_weighted_graph(
    "vertex v\nvertex w\nvertex s\n"
    "edge a v w 1\nedge b v v 3\nedge c v s 3\nedge d w s 2\nedge f w w 2")


@pytest.mark.parametrize("pairs,message", [
    ((("v", "b"), ("w", "d")), None),
    ((("v", "c"), ("w", "f"), ("x", "zz")), None),
    ((("v", "b"), ("w", "d"), ("s", "d")), "special edge fixed for sink 's'"),
    ((("v", "b"),), "no special edge fixed for non-sink 'w'"),
    ((("v", "zz"), ("w", "d")), "unknown edge 'zz'"),
    ((("v", "d"), ("w", "d")), "special edge 'd' is not emitted by 'v'"),
    ((("v", "a"), ("w", "d")), "special edge 'a' has weight 1, not the maximal weight 3 at 'v'"),
    # the first vertex in graph order is reported, whatever the pair order
    ((("w", "a"), ("v", "a")), "special edge 'a' has weight 1, not the maximal weight 3 at 'v'"),
])
def test_validate_choice_reports_each_fault(pairs, message):
    choice = SpecialEdgeChoice(pairs)
    outcome = _outcome(validate_choice, _TIE, choice)
    assert outcome == _outcome(reference_validate_choice, _TIE, choice)
    assert (outcome and outcome[1]) == message


# -- nod-word predicate ------------------------------------------------------


def test_is_nodword():
    g = fixture_graph("e2loops.wg")
    algebra = Algebra(g)
    assert algebra.is_nodword((V("v"),))
    assert algebra.is_nodword((E("b", 2), E("a", 1), S("b", 2)))
    assert not algebra.is_nodword((S("a", 1), E("a", 1)))  # e1* f1 factor
    assert not algebra.is_nodword((E("b", 1), S("b", 2)))  # special factor
    assert not algebra.is_nodword((V("v"), E("a", 1)))  # not a d-path
    with pytest.raises(UnknownGeneratorError):
        algebra.is_nodword((E("zz", 1),))
    with pytest.raises(UnknownGeneratorError):
        algebra.is_nodword((E("a", 2),))  # strand out of range


# -- normalization -----------------------------------------------------------


def test_vertex_products():
    g = parse_weighted_graph("vertex u\nvertex v\nedge a u v 1")
    algebra = Algebra(g)
    assert algebra.normalize([(1, (V("u"), V("v")))]).is_zero()
    assert algebra.normalize([(1, (V("u"), V("u")))]) == algebra.vertex("u")


def test_loop_relations():
    algebra = Algebra(loop1())
    assert algebra.normalize([(1, (S("a", 1), E("a", 1)))]) == algebra.vertex("v")
    assert algebra.normalize([(1, (E("a", 1), S("a", 1)))]) == algebra.vertex("v")


def test_weighted_special_pair_expansion():
    algebra = Algebra(fixture_graph("l23.wg"))
    got = algebra.normalize([(1, (E("e1", 1), S("e1", 2)))])
    expected = algebra.normalize(
        [(-1, (E("e2", 1), S("e2", 2))), (-1, (E("e3", 1), S("e3", 2)))]
    )
    assert got == expected
    assert got.render() == "-e2.1 e2.2* - e3.1 e3.2*"


def test_local_units():
    algebra = Algebra(fixture_graph("e2loops.wg"))
    x = algebra.word((E("b", 2), E("a", 1)))
    assert algebra.vertex("v") * x == x
    assert x * algebra.vertex("v") == x


def test_multiply_examples():
    algebra = Algebra(loop1())
    a1 = algebra.edge("a", 1)
    assert (a1 * a1).support_words() == [(E("a", 1), E("a", 1))]

    two = Algebra(fixture_graph("e2loops.wg"))
    left = two.word((E("b", 2), E("a", 1)))
    right = two.star("b", 2)
    assert (left * right).support_words() == [(E("b", 2), E("a", 1), S("b", 2))]


def test_normalize_is_idempotent_and_strategy_free():
    rng = Random(52001)
    checked = 0
    for _ in range(40):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        if not g.vertices:
            continue
        algebra = Algebra(g)
        for word in random_words(rng, algebra, 25, 6):
            left = algebra.normalize([(1, word)])
            right = algebra.normalize([(1, word)], strategy="right")
            reference = reference_normal_form(algebra, [(1, algebra._intern_word(word))])
            assert left == right == algebra._lift(reference)
            renorm = algebra.normalize(
                [(c, w) for c, w in left.terms()]
            )
            assert renorm == left
            checked += 1
    assert checked >= 900


def test_relation_soundness_random_graphs():
    rng = Random(52002)
    for _ in range(30):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        if not g.vertices:
            continue
        algebra = Algebra(g)
        mapping = identity_map(algebra)
        for label, terms in relation_instances(g):
            value = evaluate_relation(terms, mapping, algebra)
            assert value.is_zero(), (label, value)


def test_relation_failures_agrees_with_each_instance():
    rng = Random(52003)
    for _ in range(20):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        if not g.vertices:
            continue
        algebra = Algebra(g)
        mapping = identity_map(algebra)
        vertex = V(g.vertices[0])
        mapping[vertex] = mapping[vertex].scaled(2)
        instances = list(relation_instances(g))
        expected = [label for label, terms in instances
                    if not evaluate_relation(terms, mapping, algebra).is_zero()]
        assert expected
        assert relation_failures(g, mapping, algebra) == (len(instances), expected)


@st.composite
def _multigraphs(draw):
    # few vertices, so parallel edges and self-loops are common
    vertices = [f"v{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends, st.integers(1, 3)), max_size=7))
    return WeightedGraph(vertices, [EdgeRecord(f"e{k}", s, r, w)
                                    for k, (s, r, w) in enumerate(edges, 1)])


@settings(max_examples=200, deadline=None, database=None)
@given(_multigraphs())
@example(parse_weighted_graph("vertex u\nvertex v\nedge a u v 3\nedge b u v 2\n"
                              "edge l u u 2\nedge m v v 1\nedge c v u 1"))
def test_relation_instances_match_the_reference(g):
    # label, coefficients, Generator words and order, item for item
    assert list(relation_instances(g)) == list(reference_relation_instances(g))


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.wg")))
def test_relation_instances_match_the_reference_on_fixtures(name):
    g = fixture_graph(name)
    assert list(relation_instances(g)) == list(reference_relation_instances(g))


@pytest.mark.parametrize("field", ["rational", "mod:2", "mod:7"])
@settings(max_examples=100, deadline=None, database=None)
@given(g=_multigraphs(), data=st.data())
def test_relation_failures_agrees_with_each_instance_on_multigraphs(field, g, data):
    # one letter's image swapped with another's, doubled or zeroed
    algebra = Algebra(g, field=field_from_name(field))
    mapping = identity_map(algebra)
    gens = list(mapping)
    gen = data.draw(st.sampled_from(gens))
    corruption = data.draw(st.sampled_from(["swap", "double", "zero"]))
    if corruption == "swap":
        other = data.draw(st.sampled_from(gens))
        mapping[gen], mapping[other] = mapping[other], mapping[gen]
    else:
        mapping[gen] = mapping[gen].scaled(2) if corruption == "double" else algebra.zero()
    instances = list(relation_instances(g))
    expected = [label for label, terms in instances
                if not evaluate_relation(terms, mapping, algebra).is_zero()]
    assert relation_failures(g, mapping, algebra) == (len(instances), expected)


def test_relation_failures_rejects_a_key_that_is_no_letter():
    g = fixture_graph("g6.wg")
    algebra = Algebra(g)
    mapping = {**identity_map(algebra), V("nope"): algebra.zero()}
    with pytest.raises(UnknownGeneratorError, match="unknown generator 'nope'"):
        relation_failures(g, mapping, algebra)


@pytest.mark.parametrize("name", ["e2loops.wg", "l23.wg"])
@pytest.mark.parametrize("field", ["rational", "mod:7"])
def test_identity_map_leaves_the_memos_empty(name, field):
    # a single letter is a nod-word, so no image is normalized
    algebra = Algebra(fixture_graph(name), field=field_from_name(field))
    mapping = identity_map(algebra)
    assert (algebra._memo_left, algebra._memo_right) == ({}, {})
    assert list(mapping) == [*algebra.nonvertex_generators(), *map(V, algebra.graph.vertices)]
    for gen, image in mapping.items():
        assert image == algebra.word((gen,))


# 2^61 - 1: a product of two residues needs more than 64 bits
FIELDS = ["rational", "mod:7", "mod:2305843009213693951"]


@pytest.mark.parametrize("field", FIELDS)
def test_ring_axioms_on_random_basis_words(field):
    rng = Random(52003)
    checked = 0
    while checked < 120:
        g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        if not g.vertices or not g.edges:
            continue
        algebra = Algebra(g, field=field_from_name(field))
        words = algebra.enumerate_nodwords(3)
        if len(words) < 3:
            continue
        for _ in range(6):
            a, b, c = (algebra.word(rng.choice(words)) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            checked += 1


SCALARS = ["1", "-1", "2", "3/2", "-5/3"]


def _random_support(rng, algebra, words):
    """A support of 1-4 random nod-word ids with nonzero plain coefficients."""
    chosen = rng.sample(words, min(len(words), rng.randint(1, 4)))
    return {w: algebra._scalar(rng.choice(SCALARS)) for w in chosen}


def _junction_path(algebra, wa, wb):
    """Which way ``_product`` takes for the pair: apart, endpoint, normal, one step or absorbed."""
    if algebra._rng_id[wa[-1]] != algebra._src_id[wb[0]]:
        return "apart"
    if wa[0] < algebra._nv or wb[0] < algebra._nv:
        return "endpoint"  # a vertex word, absorbed by the other word
    rule = algebra._rules.get((wa[-1], wb[0]))
    if rule is None:
        return "normal"
    # a vertex rhs between letters is absorbed and the next junction rewritten
    if len(wa) + len(wb) > 2 and rule[1] is not None:
        return "absorbed"
    return "one step"


@pytest.mark.parametrize("field", FIELDS)
def test_product_equals_normal_form_of_concatenated_words(field):
    # _product rewrites only at the junction and _combine folds it over the
    # letters both ways; the reference rewrites whole words with no memo
    rng = Random(52010)
    paths = dict.fromkeys(["apart", "endpoint", "normal", "one step", "absorbed"], 0)
    checked = 0
    while checked < 200:
        g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        if not g.vertices:
            continue
        algebra = Algebra(g, field=field_from_name(field))
        words = [algebra._intern_word(w) for w in algebra.enumerate_nodwords(3)]
        for _ in range(5):
            x, y = _random_support(rng, algebra, words), _random_support(rng, algebra, words)
            pairs = [(cx * cy, wx + wy) for wx, cx in x.items() for wy, cy in y.items()]
            reference = reference_normal_form(algebra, pairs)
            assert algebra._product(x, y) == reference
            assert algebra._combine(pairs) == algebra._combine(pairs, right=True) == reference
            for wx in x:
                for wy in y:
                    paths[_junction_path(algebra, wx, wy)] += 1
            checked += 1
    assert min(paths.values()) >= 20, paths


def test_supports_hold_only_nodwords():
    rng = Random(52011)
    words_checked = 0
    for _ in range(30):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        if not g.vertices:
            continue
        algebra = Algebra(g)
        a, b, c, d = (algebra.normalize([(rng.choice(SCALARS), w)
                                         for w in random_words(rng, algebra, 3, 5)])
                      for _ in range(4))
        values = [a, b, a * b, a + b, (a * b) * c - d, a.scaled("3/2"), b.involute(),
                  (a * c).involute() * d, (a + b.involute()) * (c + d), d * d * d]
        for value in values:
            for word in value.support_words():
                assert algebra.is_nodword(word), (g, value)
                words_checked += 1
    assert words_checked >= 300


def test_product_leaves_the_memos_alone():
    algebra = Algebra(fixture_graph("e2loops.wg"))  # b is special at v
    x = algebra.word((S("a", 1), S("a", 1)))
    y = algebra.word((E("a", 1), E("b", 2)))
    z = algebra.word((E("b", 1),))
    w = algebra.word((S("b", 1), S("a", 1)))
    sizes = (len(algebra._memo_left), len(algebra._memo_right))
    products = [x.involute() * x, x * y, z * w]
    assert (len(algebra._memo_left), len(algebra._memo_right)) == sizes
    assert products == [
        algebra.word((E("a", 1), E("a", 1), S("a", 1), S("a", 1))),  # no rule at the junction
        algebra.word((S("a", 1), E("b", 2))),  # a_1^* a_1 -> v, absorbed
        # b_1 b_1^* -> v - a_1 a_1^*, and v is absorbed by the a_1^* after it
        algebra.word((S("a", 1),)) - algebra.word((E("a", 1), S("a", 1), S("a", 1))),
    ]


def test_long_term_leaves_one_memo_entry(monkeypatch):
    # the memos hold whole words only, so a 1,600-letter term adds one entry,
    # not one per intermediate word
    algebra = Algebra(fixture_graph("e2loops.wg"))
    text = "b.1* b.1 " * 800
    element = parse_element(algebra, text)
    assert (len(algebra._memo_left), len(algebra._memo_right)) == (1, 0)

    # the whole-word entry is why the memo is kept: a second normalize is a hit
    calls = 0
    original = Algebra._product

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return original(self, *args)

    monkeypatch.setattr(Algebra, "_product", counted)
    assert parse_element(algebra, text) == element
    assert calls == 0
    assert element == algebra.vertex("v") - algebra.word((S("b", 2), E("b", 2)))


@pytest.mark.parametrize("field", FIELDS)
def test_scalar_arithmetic(field):
    algebra = Algebra(loop1(), field=field_from_name(field))
    a = algebra.edge("a", 1)
    v = algebra.vertex("v")
    combo = a.scaled("3/2") - v
    assert combo == algebra.normalize([("3/2", (E("a", 1),)), (-1, (V("v"),))])
    assert (combo - combo).is_zero()
    assert 2 * a == a + a
    # coefficients leave as field scalars, never as the plain numbers kept inside
    scalar_type = Fraction if field == "rational" else ModInt
    assert [type(c) for c, _ in combo.terms()] == [scalar_type, scalar_type]
    if field == "rational":
        assert combo.terms() == [(Fraction(-1), (V("v"),)), (Fraction(3, 2), (E("a", 1),))]
        return
    p = algebra.field.p
    assert ((p - 1) * v + v).is_zero()
    assert v.scaled(p).is_zero()
    assert (-v).render() == f"{p - 1} v"
    assert combo.render() == f"{p - 1} v + {(3 * pow(2, -1, p)) % p} a.1"


def test_mixed_context_rejected():
    a = Algebra(loop1())
    b = Algebra(loop1())
    with pytest.raises(MixedContextError):
        a.vertex("v") + b.vertex("v")


def test_scalar_coercion_rejections():
    v = Algebra(loop1()).vertex("v")
    with pytest.raises(AlgebraError, match="^boolean is not a scalar$"):
        v.scaled(True)
    with pytest.raises(AlgebraError, match=r"^cannot coerce 1\.5 into rational$"):
        v.scaled(1.5)
    w = Algebra(loop1(), field=field_from_name("mod:7")).vertex("v")
    assert w.scaled(ModInt(10, 7)) == 3 * w
    with pytest.raises(MixedContextError, match="^scalar from a different prime field$"):
        w.scaled(ModInt(1, 5))


def test_element_times_scalar_and_comparison_with_a_scalar():
    a = Algebra(loop1()).edge("a", 1)
    assert a * 3 == 3 * a == a.scaled(3)
    assert (a == 3) is False and a != 3


def test_normalize_rejects_an_unknown_strategy():
    with pytest.raises(AlgebraError, match="^unknown strategy 'middle'$"):
        Algebra(loop1()).normalize([(1, (V("v"),))], "middle")


def test_reprs():
    algebra = Algebra(loop1())
    assert repr(algebra) == "Algebra(WeightedGraph(1 vertices, 1 edges), field=rational)"
    assert repr(algebra.edge("a", 1).scaled(2)) == "<2 a.1>"
    assert repr(E("a", 1)) == "Generator('a.1')"
    assert (repr(ZERO_ELEMENT), repr(NOT_HOMOGENEOUS)) == ("ZERO_ELEMENT", "NOT_HOMOGENEOUS")


# -- involution ----------------------------------------------------------


def test_involution_examples():
    algebra = Algebra(fixture_graph("e2loops.wg"))
    v = algebra.vertex("v")
    assert v.involute() == v
    aa = algebra.word((E("a", 1), E("a", 1)))
    assert aa.involute().support_words() == [(S("a", 1), S("a", 1))]
    p = algebra.word((E("b", 2), E("a", 1), S("b", 2)))
    assert p.involute().support_words() == [(E("b", 2), S("a", 1), S("b", 2))]


def test_involution_properties():
    rng = Random(52004)
    for _ in range(20):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        if not g.vertices:
            continue
        algebra = Algebra(g)
        words = random_words(rng, algebra, 8, 4)
        for w1, w2 in zip(words, words[1:]):
            a = algebra.normalize([(1, w1)])
            b = algebra.normalize([(1, w2)])
            assert a.involute().involute() == a
            assert (a * b).involute() == b.involute() * a.involute()


# -- grading ---------------------------------------------------------------


def test_degree_examples():
    algebra = Algebra(fixture_graph("e2loops.wg"))
    assert algebra.vertex("v").degree() == (0, 0)
    p = algebra.word((E("b", 2), E("a", 1), S("b", 2)))
    assert p.degree() == (1, 0)
    mixed = algebra.vertex("v") + algebra.edge("a", 1)
    assert mixed.degree() is NOT_HOMOGENEOUS
    assert algebra.zero().degree() is ZERO_ELEMENT


def test_degree_additivity():
    rng = Random(52005)
    for _ in range(20):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        if not g.vertices or not g.edges:
            continue
        algebra = Algebra(g)
        words = algebra.enumerate_nodwords(3)
        for _ in range(10):
            a = algebra.word(rng.choice(words))
            b = algebra.word(rng.choice(words))
            prod = a * b
            if prod.is_zero() or prod.degree() is NOT_HOMOGENEOUS:
                continue
            assert prod.degree() == tuple(
                x + y for x, y in zip(a.degree(), b.degree())
            )


# -- enumeration, growth, degree-zero counting --------------------------------


def test_enumerate_examples():
    lonely = Algebra(parse_weighted_graph("vertex v"))
    assert lonely.enumerate_nodwords(5) == [(V("v"),)]

    algebra = Algebra(loop1())
    assert algebra.enumerate_nodwords(2) == [
        (V("v"),),
        (E("a", 1),),
        (S("a", 1),),
        (E("a", 1), E("a", 1)),
        (S("a", 1), S("a", 1)),
    ]

    two = Algebra(fixture_graph("e2loops.wg"))
    assert two.enumerate_nodwords(1) == [
        (V("v"),),
        (E("a", 1),),
        (S("a", 1),),
        (E("b", 1),),
        (E("b", 2),),
        (S("b", 1),),
        (S("b", 2),),
    ]


def test_enumerate_filters():
    g = fixture_graph("g6.wg")
    algebra = Algebra(g)
    for word in algebra.enumerate_nodwords(3, source="v"):
        src, _ = generator_endpoints(algebra, word[0]) if word[0].kind != "vertex" else ("v", "v")
        assert src == "v"


def test_enumerate_matches_growth_dp():
    rng = Random(52006)
    for _ in range(15):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=4, max_weight=3)
        if not g.vertices:
            continue
        algebra = Algebra(g)
        for n in range(4):
            assert len(algebra.enumerate_nodwords(n)) == algebra.growth(n)


def test_growth_examples():
    lonely = Algebra(parse_weighted_graph("vertex v"))
    assert [lonely.growth(n) for n in range(6)] == [1] * 6

    algebra = Algebra(loop1())
    assert algebra.growth(3) == 7
    assert [algebra.growth(n) for n in range(8)] == [2 * n + 1 for n in range(8)]

    two = Algebra(fixture_graph("e2loops.wg"))
    for k in range(1, 5):
        assert two.growth(3 * k) >= 2 ** k


def test_zero_component_count():
    algebra = Algebra(loop1())
    assert algebra.zero_component_count(4) == 1

    two = Algebra(fixture_graph("e2loops.wg"))
    assert two.zero_component_count(6) >= 2

    lonely = Algebra(parse_weighted_graph("vertex v"))
    assert lonely.zero_component_count(9) == 1


@pytest.mark.parametrize("text", ["vertex v", "vertex u\nvertex v\nedge e u v 1",
                                  "vertex u\nvertex v\nedge e u v 2"])
def test_counting_stops_at_the_last_nod_word(text):
    # finitely many nod-words: a huge max_len walks only to the longest one
    algebra = Algebra(parse_weighted_graph(text))
    huge = 10**9
    counts = list(islice(algebra.nodword_counts(huge), 4))
    assert 1 <= len(counts) <= 3 and counts[-1] > 0
    assert algebra.growth(huge) == algebra.growth(5) == sum(counts)
    assert algebra.zero_component_count(huge) == algebra.zero_component_count(5)
    assert algebra.enumerate_nodwords(huge, budget=100) == algebra.enumerate_nodwords(5)


def test_zero_component_matches_enumeration():
    rng = Random(52007)
    for _ in range(10):
        g = random_weighted_graph(rng, max_vertices=3, max_edges=4, max_weight=2)
        if not g.vertices:
            continue
        algebra = Algebra(g)
        zero = (0,) * algebra.grading_length
        for n in range(5):
            direct = [
                w for w in algebra.enumerate_nodwords(n)
                if word_degree(algebra, w) == zero
            ]
            assert algebra.zero_component_count(n) == len(direct)


def _finitely_many_nodwords(algebra):
    # the automaton has no cycle: peel off letters with no successor left
    succ = {a: set(bs) for a, bs in algebra._succ.items()}
    while True:
        ends = {a for a, bs in succ.items() if not bs}
        if not ends:
            return not succ
        succ = {a: bs - ends for a, bs in succ.items() if a not in ends}


def _request_answer(algebra, request):
    zero_degree, n = request
    return algebra.zero_component_count(n) if zero_degree else algebra.growth(n)


@st.composite
def _graph_and_requests(draw):
    g = random_weighted_graph(Random(draw(st.integers(0, 2**32))),
                              max_vertices=4, max_edges=4, max_weight=3)
    lengths = st.integers(0, 7)
    if _finitely_many_nodwords(Algebra(g)):
        lengths = lengths | st.just(10**9)
    requests = draw(st.lists(st.tuples(st.booleans(), lengths), max_size=12))
    order = draw(st.sampled_from(["drawn", "ascending", "descending", "twice"]))
    if order == "ascending":
        requests.sort()
    elif order == "descending":
        requests.sort(reverse=True)
    elif order == "twice":
        requests += requests
    return g, requests


@settings(max_examples=150, deadline=None, database=None)
@given(_graph_and_requests())
def test_count_store_answers_as_a_fresh_algebra(case):
    g, requests = case
    algebra = Algebra(g)
    for request in requests:
        assert _request_answer(algebra, request) == _request_answer(Algebra(g), request), request


def _table(counts, max_len):
    # the CLI table: running totals, the last repeated past the end of the walk
    totals = list(accumulate(counts))
    return totals + totals[-1:] * (max_len + 1 - len(totals))


@settings(max_examples=150, deadline=None, database=None)
@given(_graph_and_requests(), st.tuples(st.booleans(), st.integers(0, 7)),
       st.tuples(st.booleans(), st.integers(0, 7)), st.lists(st.booleans(), max_size=30))
# the shorter walk starts while the longer one is part-way
@example((fixture_graph("e2loops.wg"), []), (True, 6), (True, 3), [False, True, True, True])
@example((fixture_graph("e2loops.wg"), []), (False, 6), (False, 3), [False, True, False, True])
def test_count_generators_consumed_in_turns(case, first, second, turns):
    g, requests = case
    algebra = Algebra(g)
    for request in requests:  # the walks start from a part-filled store
        _request_answer(algebra, request)
    walks = (first, second)
    gens = [algebra.nodword_counts(n, zero_degree=zero) for zero, n in walks]
    got = [[], []]
    for turn in turns + [False] * 9 + [True] * 9:  # then drain both
        got[turn].extend(islice(gens[turn], 1))
    for (zero, n), counts in zip(walks, got):
        fresh = Algebra(g).nodword_counts(n, zero_degree=zero)
        assert _table(counts, n) == _table(fresh, n), (zero, n)


class _CountingSucc(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _count_succ_reads(algebra):
    algebra._succ = _CountingSucc(algebra._succ)
    return algebra._succ


@pytest.mark.parametrize("name", ["e2loops.wg", "g6.wg", "l23.wg"])
def test_count_store_walks_each_length_once(name):
    g = fixture_graph(name)
    once = Algebra(g)
    walk = _count_succ_reads(once)
    once.growth(8)
    assert walk.reads > 0

    algebra = Algebra(g)
    succ = _count_succ_reads(algebra)
    assert [algebra.growth(n) for n in range(9)] == [once.growth(n) for n in range(9)]
    assert succ.reads == walk.reads  # growth(0..8) walks once, to 8
    algebra.zero_component_count(6)
    before = succ.reads
    for n in (8, 3, 0, 8):
        algebra.growth(n)
    for n in (6, 2, 0, 6):
        algebra.zero_component_count(n)
    assert succ.reads == before  # repeated requests read the store alone


def _reference_automaton(algebra):
    # the successors of a letter: every letter it makes a normal pair with
    letters = algebra._nonvertex_ids
    return {a: tuple(b for b in letters if reference_rule(algebra, a, b) is None) for a in letters}


_WALKS = {
    "growth": lambda algebra: algebra.growth(6),
    "zero_component_count": lambda algebra: algebra.zero_component_count(4),
    "enumerate_nodwords": lambda algebra: algebra.enumerate_nodwords(3),
    "witness search": _search_shape_word,
}


@pytest.mark.parametrize("walk", sorted(_WALKS))
@pytest.mark.parametrize("name", ["e2loops.wg", "g6.wg", "l23.wg", "lpa_all.wg"])
def test_automaton_is_built_on_first_walk(name, walk):
    g = fixture_graph(name)
    lazy = Algebra(g)
    assert lazy._succ_table is None
    got = _WALKS[walk](lazy)
    assert lazy._succ_table is not None
    assert lazy._succ == _reference_automaton(lazy)
    eager = Algebra(g)
    assert eager._succ == lazy._succ  # built before any walk
    assert _WALKS[walk](eager) == got


def _valid_choices(g):
    """Every valid special-edge choice of ``g``: an edge of maximal weight at each non-sink."""
    options = []
    for v in g.vertices:
        out = out_edges(g, v)
        if out:
            wv = max(e.weight for e in out)
            options.append([(v, e.id) for e in out if e.weight == wv])
    return [SpecialEdgeChoice(pairs) for pairs in product(*options)]


def test_automaton_matches_the_rule_table_under_every_choice():
    # the successor routine, which reads no rule, yields exactly the letters
    # that make a pair with no rule, under each special edge of each vertex;
    # a key that is no vertex, naming an edge special at no vertex, changes
    # neither the automaton nor the rules
    built = extra = 0
    for g in small_graphs(3, 3, 2):
        for choice in _valid_choices(g):
            algebra = Algebra(g, choice)
            assert algebra._succ == _reference_automaton(algebra), (g, choice)
            built += 1
            chosen = set(choice.mapping.values())
            for e in g.edges:
                if e.id not in chosen:
                    with_key = Algebra(g, SpecialEdgeChoice(choice.pairs + (("zz", e.id),)))
                    assert with_key._succ == _reference_automaton(with_key), (g, choice, e)
                    assert (with_key._succ, with_key._rules) == (algebra._succ, algebra._rules)
                    extra += 1
                    break
    assert (built, extra) == (509, 421)  # 509 > 336 graphs: some vertex had two choices


def test_a_choice_key_that_is_no_vertex_is_ignored_by_every_reader():
    # e2 is special at no vertex; the key zz names it, and validate_choice
    # ignores zz, so every count and the witness are those without it
    g = parse_weighted_graph("vertex v1\nvertex v2\nedge e1 v1 v1 2\nedge e2 v1 v2 1\n")
    for pairs in ((("v1", "e1"), ("zz", "e2")), (("v1", "e1"),)):
        choice = SpecialEdgeChoice(pairs)
        algebra = Algebra(g, choice)
        assert [algebra.growth(n) for n in range(6)] == [2, 8, 26, 80, 234, 664]
        assert [algebra.zero_component_count(n) for n in range(6)] == [2, 2, 4, 4, 18, 18]
        words = algebra.enumerate_nodwords(2)
        assert len(words) == 26 and (E("e2", 1), S("e2", 1)) in words
        # the dense oracle reads the choice per vertex too
        oracle = AllLetters(g, choice.mapping)
        letters = [Generator(*letter) for letter in oracle.letters]
        assert {w for w in words if len(w) == 2} == {
            (letters[a], letters[b]) for a in range(len(letters)) for b in range(len(letters))
            if not oracle.reducible(a, b)}
        witness = (E("e1", 2), E("e2", 1), S("e2", 1), S("e1", 2))
        assert search_shape_word(g, choice) == witness
        assert witness_nodpath(g, choice) == witness


def test_products_and_relation_checks_build_no_automaton():
    g = fixture_graph("e2loops.wg")
    algebra = Algebra(g)
    x = parse_element(algebra, "b.2 a.1 b.2* + 1/2 b.1* b.1")
    assert not (x * x.involute()).is_zero()
    assert relation_failures(g, identity_map(algebra), algebra)[1] == []
    assert algebra.is_nodword((E("b", 2), S("b", 2))) is False
    assert algebra._succ_table is None


def test_validate_choice_runs_on_every_build(monkeypatch):
    calls = []
    monkeypatch.setattr(algebra_module, "validate_choice", lambda g, c: calls.append(c))
    g = fixture_graph("e2loops.wg")
    Algebra(g)
    Algebra(g, SpecialEdgeChoice((("v", "b"),)))
    assert calls == [default_special_edges(g), SpecialEdgeChoice((("v", "b"),))]


# -- idempotents and support length --------------------------------------


def test_idempotents():
    algebra = Algebra(fixture_graph("e2loops.wg"))
    assert algebra.vertex("v").is_idempotent()
    assert algebra.zero().is_idempotent()
    p = algebra.word((E("b", 2), E("a", 1), S("b", 2)))
    assert not p.is_idempotent()
    pp = p * p.involute()
    for k in range(1, 4):
        power = pp
        for _ in range(k - 1):
            power = power * pp
        assert not power.is_idempotent()


def test_min_support_length():
    algebra = Algebra(fixture_graph("e2loops.wg"))
    assert algebra.vertex("v").min_support_length() == 0
    p = algebra.word((E("b", 2), E("a", 1), S("b", 2)))
    assert p.min_support_length() == 3
    assert algebra.zero().min_support_length() is ZERO_ELEMENT
    generators = [algebra.vertex("v")] + [
        algebra.word((gen,)) for gen in algebra.nonvertex_generators()
    ]
    for x in generators:
        sandwich = p * x * p
        assert sandwich.min_support_length() >= 6


# -- special-edge choice independence ------------------------------------


def test_choice_independence_of_equality():
    g = fixture_graph("l23.wg")
    choices = [
        SpecialEdgeChoice((("v", e),)) for e in ("e1", "e2", "e3")
    ]
    rng = Random(52008)
    algebras = [Algebra(g, c) for c in choices]
    for _ in range(40):
        word = tuple(
            rng.choice(algebras[0].nonvertex_generators()) for _ in range(rng.randint(1, 5))
        )
        images = [a.normalize([(1, word)]) for a in algebras]
        # equality of two normal forms, decided under the third choice
        for i, j, k in ((0, 1, 2), (1, 2, 0), (0, 2, 1)):
            diff = [(c, w) for c, w in images[i].terms()]
            diff += [(-c, w) for c, w in images[j].terms()]
            assert algebras[k].normalize(diff).is_zero()


# -- prime fields ------------------------------------------------------------


def test_prime_field_normalization():
    g = fixture_graph("l23.wg")
    algebra = Algebra(g, field=PrimeField(2))
    # over GF(2) the sign of the special-pair expansion disappears
    got = algebra.normalize([(1, (E("e1", 1), S("e1", 2)))])
    expected = algebra.normalize(
        [(1, (E("e2", 1), S("e2", 2))), (1, (E("e3", 1), S("e3", 2)))]
    )
    assert got == expected
    assert not algebra.vertex("v").scaled(2)


def test_apply_generator_map_rejections():
    g = fixture_graph("l23.wg")
    source = Algebra(g)
    element = source.edge("e1", 1) * source.star("e2", 1)
    mapping = identity_map(source)
    assert apply_generator_map(element, mapping, source) == element
    target = Algebra(g, field=field_from_name("mod:7"))
    with pytest.raises(MixedContextError):
        apply_generator_map(element, identity_map(target), target)
    del mapping[S("e2", 1)]
    with pytest.raises(UnknownGeneratorError):
        apply_generator_map(element, mapping, source)
    with pytest.raises(AlgebraError, match="nonempty"):
        evaluate_relation([(1, [])], mapping, source)


def _random_paths(rng, algebra, count, max_len):
    # words along composable letters, so their normal forms are rarely zero
    letters = list(algebra.nonvertex_generators()) + [V(v) for v in algebra.graph.vertices]
    starts = {}
    for letter in letters:
        starts.setdefault(generator_endpoints(algebra, letter)[0], []).append(letter)
    words = []
    for _ in range(count):
        word = [rng.choice(letters)]
        for _ in range(rng.randint(0, max_len - 1)):
            word.append(rng.choice(starts[generator_endpoints(algebra, word[-1])[1]]))
        words.append(tuple(word))
    return words


@settings(max_examples=120, deadline=None, database=None)
@given(st.integers(0, 2**32), st.sampled_from(["rational", "mod:7"]), st.sampled_from([2, 3, -1]))
def test_apply_generator_map_agrees_with_evaluate_relation(seed, field, scale):
    rng = Random(seed)
    g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
    algebra = Algebra(g, field=field_from_name(field))
    words = _random_paths(rng, algebra, 6, 4)
    element = algebra.normalize([(rng.randint(-3, 3), w) for w in words])
    scaled = identity_map(algebra)
    vertex = V(rng.choice(g.vertices))
    scaled[vertex] = scaled[vertex].scaled(scale)
    for mapping in (identity_map(algebra), scaled):
        expected = evaluate_relation(element.terms(), mapping, algebra)
        assert apply_generator_map(element, mapping, algebra) == expected
    assert apply_generator_map(element, identity_map(algebra), algebra) == element


def test_unknown_generators_rejected():
    algebra = Algebra(loop1())
    with pytest.raises(UnknownGeneratorError):
        algebra.normalize([(1, (E("b", 1),))])
    with pytest.raises(UnknownGeneratorError):
        algebra.normalize([(1, (S("a", 2),))])
    with pytest.raises(AlgebraError):
        algebra.normalize([(1, ())])


# -- unweighted degeneration and the dimension oracle -------------------------


def test_degeneration_matches_classical_count():
    rng = Random(52009)
    for _ in range(25):
        g = random_weighted_graph(rng, max_vertices=5, max_edges=8, max_weight=1)
        if not g.vertices:
            continue
        algebra = Algebra(g)
        expected = classical_unweighted_count(g, algebra.choice, 4)
        assert algebra.growth(4) == expected


def test_dimension_oracle_small_graphs():
    for text in (
        "vertex v",
        "vertex v\nedge a v v 1",
        "vertex v\nedge a v v 2",
        "vertex u\nvertex v\nedge a u v 2\nedge b v u 1",
    ):
        g = parse_weighted_graph(text)
        for max_len in range(1, 4):
            assert truncated_quotient_dimension(g, max_len) == \
                engine_span_dimension_gf2(g, max_len)


# -- vertex-local rewrite table ---------------------------------------------


def _pair_oracle_graphs():
    yield from small_graphs(3, 3, 2)
    rng = Random(70217)
    for _ in range(12):
        yield random_weighted_graph(rng, max_vertices=5, max_edges=7, max_weight=3)


def test_pair_table_matches_dense_oracle():
    for g in _pair_oracle_graphs():
        algebra = Algebra(g)
        oracle = AllLetters(g, algebra.choice.mapping)
        letters = [Generator(*letter) for letter in oracle.letters]
        assert letters == [V(v) for v in g.vertices] + list(algebra.nonvertex_generators())
        normal_pairs = set()
        for a, ga in enumerate(letters):
            for b, gb in enumerate(letters):
                normal = not oracle.reducible(a, b)
                assert algebra.is_nodword((ga, gb)) == normal, (g, ga, gb)
                if normal:
                    normal_pairs.add((ga, gb))
                left = algebra.normalize([(1, (ga, gb))], "left")
                assert left == algebra.normalize([(1, (ga, gb))], "right"), (g, ga, gb)
                if not oracle.composable(a, b):
                    assert left.is_zero(), (g, ga, gb)
        # the automaton yields exactly the normal pairs, in length-then-lex order
        words = algebra.enumerate_nodwords(2)
        assert {w for w in words if len(w) == 2} == normal_pairs
        index = {gen: k for k, gen in enumerate(letters)}
        keys = [(0 if w[0].kind == "vertex" else len(w), [index[x] for x in w]) for w in words]
        assert keys == sorted(keys)


_SMALL_GRAPHS = list(small_graphs(3, 3, 3))


@settings(max_examples=300, deadline=None, database=None)
@given(multigraphs() | st.sampled_from(_SMALL_GRAPHS), st.booleans())
def test_each_rule_is_the_relation_it_orients(g, last):
    # a (iii) or (iv) instance reads sum of its pairs - rhs = 0; its one
    # stored pair rewrites to rhs minus the others, in instance order
    algebra = Algebra(g, _last_maximal_choice(g) if last else None)
    id_of = algebra._id_of
    oriented = {}
    for label, terms in reference_relation_instances(g):
        if not label.startswith(("(iii)", "(iv)")):
            continue
        pairs = [tuple(id_of[x.kind, x.name, x.index] for x in w) for c, w in terms if c == 1]
        rhs = [id_of[w[0].kind, w[0].name, w[0].index] for c, w in terms if c == -1]
        assert all(len(p) == 2 for p in pairs) and len(rhs) + len(pairs) == len(terms)
        keys = [p for p in pairs if p in algebra._rules]
        assert len(keys) == 1, label
        others, got = algebra._rules[keys[0]]
        assert (list(others), got) == ([p for p in pairs if p != keys[0]], (rhs or [None])[0])
        assert keys[0] not in oriented, (label, oriented.get(keys[0]))
        oriented[keys[0]] = label
    assert oriented.keys() == algebra._rules.keys()


def test_pair_table_is_vertex_local_at_scale():
    n = 2000
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        EdgeRecord(f"e{i}", vertices[i], vertices[(i + 1) % n], 3 if i % 700 == 0 else 1)
        for i in range(n)
    ]
    g = WeightedGraph(vertices, edges)
    algebra = Algebra(g)
    # non-vertex letters ending at v, and starting at v: both are the total
    # weight of the edges incident to v (e_i and e_i^* run opposite ways);
    # vertex letters are absorbed by endpoints, so they add no rule
    incident = dict.fromkeys(vertices, 0)
    for e in edges:
        incident[e.source] += e.weight
        incident[e.range] += e.weight
    bound = sum(k * k for k in incident.values())  # sum of in(v) * out(v)
    letters = n + 2 * sum(e.weight for e in edges)
    assert bound == 8072
    assert len(algebra._rules) <= bound < letters * letters // 1000
    for max_len in range(3):
        assert len(algebra.enumerate_nodwords(max_len)) == algebra.growth(max_len)
