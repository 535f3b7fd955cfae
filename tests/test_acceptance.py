"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion asserts both its content and its time budget.
"""

import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

from wlpa import (
    Algebra,
    Generator,
    check_lpa,
    evaluate_relation,
    family_maps,
    identity_map,
    parse_weighted_graph,
    relation_instances,
    serialize_graph,
    serialize_weighted_graph,
    make_ranges_sinks,
    to_unweighted,
    unweight_sunk,
    verify_families,
)

from graphgen import (
    random_lpa_satisfying_graph,
    random_weighted_graph,
    small_graphs,
)
from oracles import (
    classical_unweighted_count,
    engine_span_dimension_gf2,
    truncated_quotient_dimension,
)

FIXTURES = Path(__file__).parent / "fixtures"

E = Generator.edge
S = Generator.star
V = Generator.vertex


def fixture_graph(name):
    return parse_weighted_graph((FIXTURES / name).read_text())


def fixture_text(name):
    return (FIXTURES / name).read_text()


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < limit_seconds
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(
        f"ACCEPTANCE {number} ({description}): {verdict} "
        f"[{elapsed:.2f}s < {limit_seconds}s]",
        flush=True,
    )
    assert ok, f"criterion {number} exceeded {limit_seconds}s ({elapsed:.2f}s)"


def test_acceptance_1_lpa_verdicts():
    with criterion(1, "LPA verdicts on the paper fixtures", 1.0):
        assert check_lpa(fixture_graph("g6.wg")).satisfied
        assert check_lpa(fixture_graph("fork.wg")).satisfied
        assert check_lpa(fixture_graph("twoparallel.wg")).satisfied
        report = check_lpa(fixture_graph("e2loops.wg"))
        assert not report.satisfied
        assert [v.kind for v in report.violations] == ["LPA2", "LPA4"]


def test_acceptance_2_transformation_goldens():
    with criterion(2, "transformation golden files", 1.0):
        g6 = fixture_graph("g6.wg")
        assert serialize_weighted_graph(make_ranges_sinks(g6)) == fixture_text(
            "g6_stage1.wg"
        )
        sunk = parse_weighted_graph(fixture_text("g6_stage1.wg"))
        assert serialize_graph(unweight_sunk(sunk)) == fixture_text("g6_stage2.wg")
        out, _ = to_unweighted(g6)
        assert serialize_graph(out) == fixture_text("g6_stage2.wg")


def test_acceptance_3_isomorphism_verification():
    with criterion(3, "family verification on 200 random graphs", 60.0):
        for name in ("g6.wg", "fork.wg"):
            g = fixture_graph(name)
            _, trace = to_unweighted(g)
            fwd, bwd = family_maps(trace)
            result = verify_families(fwd, bwd)
            assert result.ok, (name, result.failures[:3])
        rng = Random(77003)
        for _ in range(200):
            g = random_lpa_satisfying_graph(
                rng, max_vertices=6, max_edges=8, max_weight=3
            )
            _, trace = to_unweighted(g)
            fwd, bwd = family_maps(trace)
            result = verify_families(fwd, bwd)
            assert result.ok, result.failures[:3]


def test_acceptance_4_rewriting_soundness():
    with criterion(4, "rewriting soundness and the dimension oracle", 120.0):
        rng = Random(77004)

        # (a) every defining relation instance normalizes to zero
        for _ in range(200):
            g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
            algebra = Algebra(g)
            mapping = identity_map(algebra)
            for label, terms in relation_instances(g):
                assert evaluate_relation(terms, mapping, algebra).is_zero(), label

        # (b) idempotence and two-strategy agreement on 1000 random words
        checked = 0
        while checked < 1000:
            g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
            algebra = Algebra(g)
            letters = list(algebra.nonvertex_generators())
            letters += [V(v) for v in g.vertices]
            for _ in range(25):
                word = tuple(
                    rng.choice(letters) for _ in range(rng.randint(1, 6))
                )
                left = algebra.normalize([(1, word)])
                assert left == algebra.normalize([(1, word)], strategy="right")
                assert algebra.normalize(list(left.terms())) == left
                checked += 1

        # (c) associativity on 1000 random basis-word triples
        checked = 0
        while checked < 1000:
            g = random_weighted_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
            if not g.edges:
                continue
            algebra = Algebra(g)
            words = algebra.enumerate_nodwords(3)
            if len(words) < 3:
                continue
            for _ in range(20):
                a, b, c = (algebra.word(rng.choice(words)) for _ in range(3))
                assert (a * b) * c == a * (b * c)
                checked += 1

        # (d) span dimension equality against the truncated relation quotient
        graphs = list(small_graphs(max_vertices=2, max_edges=2, max_weight=2))
        assert len(graphs) >= 25
        for g in graphs:
            assert truncated_quotient_dimension(g, 4) == engine_span_dimension_gf2(g, 4)


def test_acceptance_5_growth():
    with criterion(5, "growth reproductions", 30.0):
        loop = Algebra(parse_weighted_graph("vertex v\nedge a v v 1"))
        for n in range(21):
            assert loop.growth(n) == 2 * n + 1
        two = Algebra(fixture_graph("e2loops.wg"))
        for k in range(1, 7):
            assert two.growth(3 * k) >= 2 ** k


def test_acceptance_6_structural_witnesses():
    with criterion(6, "structural witnesses for the violating graph", 10.0):
        algebra = Algebra(fixture_graph("e2loops.wg"))
        word = (E("b", 2), E("a", 1), S("b", 2))
        p = algebra.word(word)

        # (i) nod-word of the required shape
        assert algebra.is_nodword(word)
        assert word[0] == E("b", 2) and word[-1] == S("b", 2)

        # (ii) (p p*)^k is a degree-zero nod-word; counting matches
        pp = p * p.involute()
        power = pp
        for k in range(1, 4):
            assert len(power.support_words()) == 1
            assert algebra.is_nodword(power.support_words()[0])
            assert power.degree() == (0, 0)
            assert power.min_support_length() == 6 * k
            assert algebra.zero_component_count(6 * k) >= k + 1
            power = power * pp

        # (iii) p x p never drops below length 2|p|
        generators = [algebra.vertex("v")] + [
            algebra.word((gen,)) for gen in algebra.nonvertex_generators()
        ]
        for x in generators:
            assert (p * x * p).min_support_length() >= 6

        # (iv) no idempotents among the witnesses
        assert not p.is_idempotent()
        power = pp
        for _ in range(3):
            assert not power.is_idempotent()
            power = power * pp


def test_acceptance_7_unweighted_degeneration():
    with criterion(7, "unweighted degeneration count", 30.0):
        rng = Random(77007)
        for _ in range(100):
            g = random_weighted_graph(
                rng, max_vertices=6, max_edges=8, max_weight=1
            )
            algebra = Algebra(g)
            assert algebra.growth(5) == classical_unweighted_count(
                g, algebra.choice, 5
            )
