from pathlib import Path
from random import Random

import pytest

from wlpa import (
    BadWeightError,
    DanglingEndpointError,
    DuplicateIdError,
    EdgeRecord,
    GraphPath,
    GraphSyntaxError,
    UnknownVertexError,
    WeightedGraph,
    cycles_through,
    cyclic_components,
    graph_to_records,
    in_line,
    parse_weighted_graph,
    reaches,
    serialize_weighted_graph,
    shortest_cycle,
    tree,
    vertex_weight,
    weighted_edges,
    weighted_graph_from_records,
)

from graphgen import random_weighted_graph
from oracles import brute_force_cycles, transitive_closure

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_graph(name):
    return parse_weighted_graph((FIXTURES / name).read_text())


# -- parsing -------------------------------------------------------------


def test_parse_minimal_loop():
    g = parse_weighted_graph("vertex v\nedge a v v 1")
    assert g.vertices == ("v",)
    assert g.edges == (EdgeRecord("a", "v", "v", 1),)


def test_parse_six_vertex_fixture():
    g = fixture_graph("g6.wg")
    assert g.vertices == ("t", "u", "v", "x", "y", "z")
    assert len(g.edges) == 9
    assert {e.id for e in g.edges if e.weight == 2} == {"a", "f", "k"}


def test_parse_weight_defaults_to_one():
    g = parse_weighted_graph("vertex v\nedge a v v")
    assert g.edges[0].weight == 1


def test_parse_dangling_endpoint():
    with pytest.raises(DanglingEndpointError):
        parse_weighted_graph("edge a v v 1")


def test_parse_duplicate_id():
    with pytest.raises(DuplicateIdError):
        parse_weighted_graph("vertex v\nvertex v")
    with pytest.raises(DuplicateIdError):
        parse_weighted_graph("vertex v\nedge v v v 1")


def test_parse_bad_weight():
    with pytest.raises(BadWeightError):
        parse_weighted_graph("vertex v\nedge a v v 0")


@pytest.mark.parametrize("weight", ["\u0662", "1_0", "\uff12", "\u00b2", "+2", "-1"])
def test_parse_weight_is_ascii_digits(weight):
    # int() reads all but "\u00b2" as 2, 10, 2, 2 and -1
    with pytest.raises(GraphSyntaxError) as err:
        parse_weighted_graph(f"vertex v\nedge a v v {weight}")
    assert err.value.line == 2 and f"bad weight {weight!r}" in str(err.value)


@pytest.mark.parametrize("weight", [2.7, "\u0662", "1_0", True, -1, "2 "])
def test_records_weight_is_read_as_in_text(weight):
    # int() reads these as 2, 2, 10, 1, -1 and 2
    records = {"vertices": ["v"], "edges": [
        {"id": "a", "source": "v", "range": "v", "weight": weight}]}
    with pytest.raises(BadWeightError, match="bad weight"):
        weighted_graph_from_records(records)


def test_parse_syntax_error_reports_position():
    with pytest.raises(GraphSyntaxError) as err:
        parse_weighted_graph("vertex v\nedgy a v v 1")
    assert err.value.line == 2
    assert err.value.column == 1


def test_parse_rejects_bad_tokens():
    with pytest.raises(GraphSyntaxError):
        parse_weighted_graph("vertex v\nedge a v v x")
    with pytest.raises(GraphSyntaxError):
        parse_weighted_graph("vertex a$b")


def test_roundtrip_random_graphs():
    rng = Random(94001)
    for _ in range(50):
        g = random_weighted_graph(rng)
        assert parse_weighted_graph(serialize_weighted_graph(g)) == g
        assert weighted_graph_from_records(graph_to_records(g)) == g


def test_serialize_parse_is_canonical_reordering():
    text = "# a comment\nedge-free line?"
    text = "vertex v\n# note\n\nedge a v v 2\nvertex u\n"
    g = parse_weighted_graph(text)
    canon = serialize_weighted_graph(g)
    assert canon == "vertex v\nvertex u\nedge a v v 2\n"
    assert serialize_weighted_graph(parse_weighted_graph(canon)) == canon


# -- primitives ----------------------------------------------------------


def test_vertex_weight():
    g = fixture_graph("g6.wg")
    assert vertex_weight(g, "z") == 0  # sink
    assert vertex_weight(g, "v") == 2  # c, d, e, g weight 1; f weight 2
    assert vertex_weight(g, "u") == 1
    with pytest.raises(UnknownVertexError):
        vertex_weight(g, "nope")


def test_vertex_weight_uniform_loops():
    # n + k loops all of weight n
    n, k = 2, 1
    edges = [EdgeRecord(f"e{i}", "v", "v", n) for i in range(1, n + k + 1)]
    g = WeightedGraph(["v"], edges)
    assert vertex_weight(g, "v") == n


def test_weighted_edges():
    g6 = fixture_graph("g6.wg")
    assert [e.id for e in weighted_edges(g6)] == ["a", "f", "k"]
    flat = parse_weighted_graph("vertex v\nedge a v v 1")
    assert weighted_edges(flat) == ()
    loops = fixture_graph("e2loops.wg")
    assert [e.id for e in weighted_edges(loops)] == ["b"]


def test_reaches():
    g = fixture_graph("g6.wg")
    assert reaches(g, "u", "u")
    assert reaches(g, "v", "z")  # via e k or f/g h k
    assert not reaches(g, "z", "v")  # z is a sink


def test_reaches_matches_transitive_closure():
    rng = Random(94002)
    for _ in range(30):
        g = random_weighted_graph(rng, max_vertices=8, max_edges=12)
        closure = transitive_closure(g)
        for u in g.vertices:
            for v in g.vertices:
                assert reaches(g, u, v) == ((u, v) in closure)


def test_tree():
    g = fixture_graph("g6.wg")
    assert tree(g, ["z"]) == ("z",)
    assert tree(g, ["u", "x", "z"]) == ("t", "u", "x", "y", "z")
    assert tree(g, []) == ()


def test_tree_is_monotone_fixed_point():
    rng = Random(94003)
    for _ in range(20):
        g = random_weighted_graph(rng, max_vertices=7, max_edges=10)
        if not g.vertices:
            continue
        roots = [v for v in g.vertices if rng.random() < 0.4]
        grown = tree(g, roots)
        assert set(roots) <= set(grown)
        # closure: emitted edges stay inside
        for v in grown:
            for e in g.out_edges(v):
                assert e.range in set(grown)
        # monotone
        assert set(tree(g, roots[:1])) <= set(grown)


def test_in_line():
    g = fixture_graph("g6.wg")
    assert in_line(g, "a", "a")
    # r(a)=u only reaches t, u; r(f)=x does not reach v or t
    assert not in_line(g, "a", "f")
    assert in_line(g, "f", "k")  # r(f)=x reaches y=s(k)


def test_in_line_disjoint_picture():
    # two weighted edges pointing into a shared middle from opposite sides
    g = parse_weighted_graph(
        "vertex a\nvertex m\nvertex b\nedge e a m 2\nedge f b m 2"
    )
    assert not in_line(g, "e", "f")


def test_cycles_through():
    acyclic = parse_weighted_graph("vertex u\nvertex v\nedge a u v 1")
    assert cycles_through(acyclic, "u") == []

    g6 = fixture_graph("g6.wg")
    assert cycles_through(g6, "v") == [GraphPath.of(["d"])]

    loops = fixture_graph("e2loops.wg")
    assert cycles_through(loops, "v") == [GraphPath.of(["a"]), GraphPath.of(["b"])]


def test_cycles_match_brute_force():
    rng = Random(94004)
    for _ in range(25):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=6)
        for v in g.vertices:
            found = cycles_through(g, v)
            assert len(found) == len(set(c.edges for c in found))
            assert {c.edges for c in found} == brute_force_cycles(g, v)
            for c in found:
                assert c.source(g) == v and c.range(g) == v and len(c) > 0


def test_cycles_through_deep_ring_needs_no_recursion():
    n = 5000
    g = WeightedGraph([f"v{i}" for i in range(n)],
                      [EdgeRecord(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
    assert cycles_through(g, "v3") == [
        GraphPath.of([f"e{(3 + i) % n}" for i in range(n)])
    ]


def _components_are_maximal_sccs(g, within, avoid, components):
    sub = WeightedGraph(within, [e for e in g.edges if e.id != avoid
                                 and e.source in within and e.range in within])
    closure = transitive_closure(sub)
    for component in components:
        first = component[0]
        # strongly connected
        assert all((first, v) in closure and (v, first) in closure for v in component)
        # maximal
        assert not [v for v in within if v not in component
                    and (first, v) in closure and (v, first) in closure]


def test_cyclic_components_match_brute_force():
    rng = Random(94005)
    for _ in range(40):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=6)
        for avoid in [None] + [e.id for e in g.edges]:
            expected = {
                v for v in g.vertices
                if any(avoid not in cycle for cycle in brute_force_cycles(g, v))
            }
            components = cyclic_components(g, g.vertices, avoid)
            assert {v for c in components for v in c} == expected
            _components_are_maximal_sccs(g, g.vertices, avoid, components)
            order = [g.vertices.index(c[0]) for c in components]
            assert order == sorted(order)
            for c in components:
                assert list(c) == [v for v in g.vertices if v in c]
        # restricted to a vertex set, cycles must stay inside it
        within = g.vertices[1:]
        sub = WeightedGraph(within, [e for e in g.edges
                                     if e.source in within and e.range in within])
        expected = {v for v in within if brute_force_cycles(sub, v)}
        components = cyclic_components(g, within)
        assert {v for c in components for v in c} == expected
        _components_are_maximal_sccs(g, within, None, components)


def test_cyclic_components_deep_ring_needs_no_recursion():
    n = 5000
    g = WeightedGraph([f"v{i}" for i in range(n)],
                      [EdgeRecord(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
    assert cyclic_components(g, g.vertices) == [g.vertices]
    assert cyclic_components(g, g.vertices, avoid="e7") == []


def test_shortest_cycle_matches_brute_force():
    rng = Random(94006)
    for _ in range(40):
        g = random_weighted_graph(rng, max_vertices=4, max_edges=6)
        for avoid in [None] + [e.id for e in g.edges]:
            for v in g.vertices:
                lengths = [len(c) for c in brute_force_cycles(g, v) if avoid not in c]
                cycle = shortest_cycle(g, v, g.vertices, avoid)
                if not lengths:
                    assert cycle is None
                    continue
                assert cycle.source(g) == v and cycle.range(g) == v
                assert len(cycle) == min(lengths) and avoid not in cycle.edges
                assert cycle.edges in brute_force_cycles(g, v)


def test_shortest_cycle_prefers_a_self_loop():
    g = fixture_graph("e2loops.wg")
    assert shortest_cycle(g, "v", g.vertices) == GraphPath.of(["a"])
    assert shortest_cycle(g, "v", g.vertices, avoid="a") == GraphPath.of(["b"])
    # a cycle must stay inside the given vertex set
    ring = WeightedGraph(["u", "v"], [EdgeRecord("a", "u", "v"), EdgeRecord("b", "v", "u")])
    assert shortest_cycle(ring, "u", ["u"]) is None
    assert shortest_cycle(ring, "u", ["u", "v"]) == GraphPath.of(["a", "b"])


def test_path_endpoints():
    g = fixture_graph("g6.wg")
    p = GraphPath.of(["f", "h", "k"])
    assert p.source(g) == "v" and p.range(g) == "z" and len(p) == 3
    base = GraphPath.at("v")
    assert base.source(g) == "v" and len(base) == 0
