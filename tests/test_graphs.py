from pathlib import Path
from random import Random
import re

from hypothesis import example, given, settings, strategies as st
import pytest

from wlpa import (
    BadWeightError,
    DanglingEndpointError,
    DuplicateIdError,
    EdgeRecord,
    GraphError,
    GraphPath,
    GraphSyntaxError,
    UnknownVertexError,
    WeightedGraph,
    cycles_through,
    cyclic_components,
    graph_to_records,
    parse_graph,
    parse_weighted_graph,
    reaches,
    serialize_graph,
    serialize_weighted_graph,
    shortest_cycle,
    tree,
    weighted_edges,
    weighted_graph_from_records,
)

from graphgen import multigraphs, random_weighted_graph, small_graphs
from oracles import (
    brute_force_cycles,
    in_edges,
    in_line,
    out_edges,
    path_range,
    path_source,
    reference_graph_tables,
    reference_read_graph_text,
    transitive_closure,
    vertex_weight,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_graph(name):
    return parse_weighted_graph((FIXTURES / name).read_text())


# -- round trips -----------------------------------------------------------

_SMALL_GRAPHS = list(small_graphs(max_vertices=3, max_edges=3, max_weight=3))


@settings(max_examples=200, deadline=None)
@given(multigraphs() | st.sampled_from(_SMALL_GRAPHS))
def test_weighted_graph_text_round_trip(g):
    assert parse_weighted_graph(serialize_weighted_graph(g)) == g


@settings(max_examples=200, deadline=None)
@given(multigraphs() | st.sampled_from(_SMALL_GRAPHS))
def test_weighted_graph_records_round_trip(g):
    assert weighted_graph_from_records(graph_to_records(g)) == g


@settings(max_examples=200, deadline=None)
@given(multigraphs() | st.sampled_from(_SMALL_GRAPHS))
def test_unweighted_graph_text_round_trip(g):
    u = WeightedGraph(g.vertices, [e._replace(weight=1) for e in g.edges])
    assert parse_graph(serialize_graph(u)) == u


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
    assert str(err.value) == f"line 2, column 12: bad weight {weight!r}"


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


@pytest.mark.parametrize("text, message", [
    ("vertex v\nedge a v", "line 2, column 1: expected: edge <id> <source> <range> [<weight>]"),
    ("vertex v\nedge a v w$ 1", "line 2, column 10: bad id 'w$'"),
])
def test_parse_reports_an_edge_line_fault_at_its_column(text, message):
    with pytest.raises(GraphSyntaxError, match=f"^{re.escape(message)}$"):
        parse_weighted_graph(text)


def test_equal_graphs_hash_alike():
    text = "vertex u\nvertex v\nedge a u v 2"
    assert {parse_weighted_graph(text), parse_weighted_graph(text)} == {parse_weighted_graph(text)}
    assert hash(parse_weighted_graph(text)) == hash(parse_weighted_graph(text + "\n"))


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


def _outcome(fn, *args):
    """What ``fn(*args)`` returned, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (GraphError, TypeError, AttributeError) as exc:
        return type(exc), str(exc)


def _graph_outcome(build, *args):
    def tables():
        g = build(*args)
        into = {v: list(in_edges(g, v)) for v in g.vertices}
        return g.vertices, g.edges, (g._vertex_index, g._edge_by_id, g._out, into)
    return _outcome(tables)


def _reference_outcome(vertices, edges):
    def tables():
        return tuple(vertices), tuple(edges), reference_graph_tables(vertices, edges)
    return _outcome(tables)


def _reference_text_outcome(text, unweighted=False):
    def read():
        return _reference_outcome(*reference_read_graph_text(text, unweighted))
    return _outcome(read)


def test_edge_record_fields():
    e = EdgeRecord("a", "u", "v")
    assert (e.id, e.source, e.range, e.weight) == ("a", "u", "v", 1)
    assert e == EdgeRecord(id="a", source="u", range="v", weight=1) != EdgeRecord("a", "u", "v", 2)
    assert hash(e) == hash(EdgeRecord("a", "u", "v", 1))
    assert repr(e) == "EdgeRecord(id='a', source='u', range='v', weight=1)"
    with pytest.raises(AttributeError):
        e.weight = 2


def test_parse_bad_weight_reports_the_weight_token_column():
    # the id 2x comes first on the line; the weight is the token at column 13
    with pytest.raises(GraphSyntaxError) as err:
        parse_weighted_graph("vertex a\nvertex b\nedge 2x a b 2x")
    assert str(err.value) == "line 3, column 13: bad weight '2x'"
    assert (err.value.line, err.value.column) == (3, 13)


@pytest.mark.parametrize("text,vertices", [
    ("vertex a\rvertex b", ("a", "b")),
    ("vertex a\xa0", ("a",)),
    ("\xa0vertex\u3000a\n", ("a",)),
    ("vertex a\r\n\r\n# c\r\nvertex b\r\n", ("a", "b")),
    ("  # comment\n\n \t \nvertex a\n#vertex b\n", ("a",)),
    ("vertex a\r\r\nvertex b", ("a", "b")),
])
def test_parse_line_semantics(text, vertices):
    assert parse_weighted_graph(text).vertices == vertices
    assert _graph_outcome(parse_weighted_graph, text) == _reference_text_outcome(text)


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_parse_breaks_lines_where_splitlines_does(brk):
    with pytest.raises(GraphSyntaxError) as err:
        parse_weighted_graph(f"vertex a{brk}b")
    assert str(err.value) == "line 2, column 1: unknown directive 'b'"
    # so a comment ends there too
    with pytest.raises(GraphSyntaxError) as err:
        parse_weighted_graph(f"# note{brk}vertex a b")
    assert str(err.value) == "line 2, column 1: expected: vertex <id>"


def test_parse_weight_omitted_and_explicit():
    g = parse_weighted_graph("vertex v\r\nedge a v v\r\nedge b v v 3\r\nedge c v v 007")
    assert [e.weight for e in g.edges] == [1, 3, 7]


def test_parse_graph_reports_a_weight_at_its_line():
    text = "vertex v\nedge a v v 1\nedge b v v\nedge c v v 2\n"
    with pytest.raises(BadWeightError) as err:
        parse_graph(text)
    assert str(err.value) == "line 4: edge 'c' has weight 2 in an unweighted graph"
    assert _graph_outcome(parse_graph, text) == _reference_text_outcome(text, True)
    assert parse_graph(text.replace(" 2\n", "\n")).edges[2] == EdgeRecord("c", "v", "v", 1)


def test_parse_weight_past_the_digit_limit():
    text = "vertex v\nedge a v v " + "9" * 5000
    assert _graph_outcome(parse_weighted_graph, text) == _reference_text_outcome(text)
    assert _outcome(parse_weighted_graph, text)[0] is GraphSyntaxError


_V = ["a", "b"]
_E = EdgeRecord


@pytest.mark.parametrize("vertices,edges", [
    # a bad id and a duplicate, both orders
    (["a", "b$", "a"], []),
    (["a", "a", "b$"], []),
    (_V, [_E("e", "a", "b"), _E("e", "a", "b"), _E("f$", "a", "b")]),
    (_V, [_E("f$", "a", "b"), _E("a", "a", "b")]),
    (["a", "b\nc", "a"], []),
    # a duplicate and a dangling endpoint
    (_V, [_E("e", "a", "z"), _E("e", "a", "b")]),
    (_V, [_E("e", "a", "b"), _E("e", "z", "b")]),
    (_V, [_E("b", "a", "z")]),
    (_V, [_E("e", "a", "b"), _E("f", "a", "z"), _E("f", "z", "a")]),
    # a dangling endpoint and weight 0
    (_V, [_E("e", "z", "b", 0)]),
    (_V, [_E("e", "a", "b", 0), _E("f", "a", "z")]),
    (_V, [_E("e", "a", "b", 1), _E("f", "a", "b", 0), _E("g", "y", "z", -1)]),
    # faults the bulk checks cannot read
    ([5, "a$"], []),
    (["a$", 5], []),
    (_V, [_E("e", "a", "b", 2.0), _E("f", "a", "b", "2")]),
    (_V, [_E("e", "a", "b", True)]),
    (_V, [_E("e", ["a"], "b")]),
    (_V, [("e", "a", "b", 1)]),
    # a dangling range and no other fault: only the range check of the bulk checks sees it
    (_V, [_E("e", "a", "b"), _E("f", "b", "z")]),
])
def test_constructor_reports_the_first_fault_in_input_order(vertices, edges):
    expected = _reference_outcome(vertices, edges)
    assert _graph_outcome(WeightedGraph, vertices, edges) == expected
    # records report a bad weight only after the faults before it
    if all(type(e) is EdgeRecord and type(e.weight) is int for e in edges):
        records = {"vertices": vertices, "edges": [e._asdict() for e in edges]}
        assert _graph_outcome(weighted_graph_from_records, records) == expected


class _Two(int):
    pass


def test_constructor_rejects_a_true_weight():
    # the bulk checks reject a subclass of int by type, and so does the locator
    for weight in (True, False, _Two(2)):
        with pytest.raises(BadWeightError) as err:
            WeightedGraph(_V, [_E("e", "a", "b", weight)])
        assert str(err.value) == f"edge 'e': bad weight {weight!r}"
    # in the records reader's words
    records = {"vertices": _V, "edges": [{"id": "e", "source": "a", "range": "b", "weight": True}]}
    with pytest.raises(BadWeightError, match="^edge 'e': bad weight True$"):
        weighted_graph_from_records(records)


@pytest.mark.parametrize("vertices,edges", [
    (["a", ["b"]], []),
    (["a", 5], []),
    (_V, [_E(["e"], "a", "b")]),
    (_V, [_E(5, "a", "b")]),
])
def test_constructor_rejects_a_list_or_int_id_with_type_error(vertices, edges):
    with pytest.raises(TypeError):
        WeightedGraph(vertices, edges)


def test_constructor_rejects_a_plain_tuple_edge_with_attribute_error():
    with pytest.raises(AttributeError):
        WeightedGraph(_V, [("e", "a", "b", 1)])


def test_constructor_reports_a_bad_weight_before_a_later_dangling_endpoint():
    with pytest.raises(BadWeightError) as err:
        parse_weighted_graph("vertex a\nvertex b\nedge e a b 0\nedge f a x\n")
    assert str(err.value) == "edge 'e': weight 0 < 1"


_IDS = ["a", "b", "v1", "12", "edge", "vertex", "(h^(1))^(2)", "x_y"]
_SPACE = st.sampled_from([" ", "\t", "  ", " \t"])
_EDGE_SPACE = st.sampled_from(["", " ", "\t"])
_ODD_SPACE = st.sampled_from(["\xa0", "\u3000", "\x1f"])
_BREAK = st.sampled_from(["\n", "\r\n"])
_ODD_BREAK = st.sampled_from(["\r", "\x0c", "\x85", "\u2028"])


@st.composite
def _graph_texts(draw, odd=False):
    """A valid graph text with random spacing, comments and line ends.

    With ``odd``, spaces and line breaks also come from the Unicode
    whitespace and line boundaries that ``str.split`` and
    ``str.splitlines`` honour.
    """
    space = _SPACE | _ODD_SPACE if odd else _SPACE
    edge_space = _EDGE_SPACE | _ODD_SPACE if odd else _EDGE_SPACE
    brk = _BREAK | _ODD_BREAK if odd else _BREAK
    names = draw(st.lists(st.sampled_from(_IDS), min_size=1, unique=True))
    vertices = names[:draw(st.integers(1, len(names)))]
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from(["", "1", "2", "3", "01"])),
                          max_size=6))
    lines = [["vertex", v] for v in vertices]
    lines += [["edge", f"e{k}", s, r] + ([w] if w else []) for k, (s, r, w) in enumerate(edges)]
    lines = draw(st.permutations(lines))
    out = []
    for tokens in lines:
        for _ in range(draw(st.integers(0, 1))):
            out.append(draw(st.sampled_from(["", "  ", "# c", "\t#c v x$"])))
        text = draw(space).join(tokens)
        out.append(draw(edge_space) + text + draw(edge_space))
    return "".join(line + draw(brk) for line in out) + draw(st.sampled_from(["", "vertex z"]))


@settings(max_examples=300, deadline=None, database=None)
@given(_graph_texts() | _graph_texts(odd=True))
@example("vertex a\nvertex b\r\nedge e a b 2\r\n  # c\n\nedge f b a")
def test_reader_matches_the_reference_on_valid_texts(text):
    expected = _reference_text_outcome(text)
    assert not isinstance(expected[0], type), expected
    assert _graph_outcome(parse_weighted_graph, text) == expected
    assert _graph_outcome(parse_graph, text) == _reference_text_outcome(text, True)


_CORRUPTIONS = ["a$b", "0", "-1", "\uff12", "x", "vertexx", "#", "edge", "zz", "a", "",
                "a b", "2x", "\xa0", "\r", "\x0c", "9" * 5000]


@settings(max_examples=400, deadline=None, database=None)
@given(_graph_texts(), st.data())
def test_reader_matches_the_reference_on_corrupted_texts(text, data):
    tokens = list(re.finditer(r"[^\s#]+", text))
    token = data.draw(st.sampled_from(tokens))
    bad = data.draw(st.sampled_from(_CORRUPTIONS))
    text = text[:token.start()] + bad + text[token.end():]
    assert _graph_outcome(parse_weighted_graph, text) == _reference_text_outcome(text)
    assert _graph_outcome(parse_graph, text) == _reference_text_outcome(text, True)


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
            for e in out_edges(g, v):
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
                assert path_source(g, c) == v and path_range(g, c) == v and len(c) > 0


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
                assert path_source(g, cycle) == v and path_range(g, cycle) == v
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
    assert path_source(g, p) == "v" and path_range(g, p) == "z" and len(p) == 3
    base = GraphPath.at("v")
    assert path_source(g, base) == "v" and len(base) == 0


def test_path_is_a_base_vertex_or_edges():
    for fields in ({}, {"vertex": "v", "edges": ("a",)}):
        with pytest.raises(GraphError, match="^path is either a base vertex or a nonempty edge list$"):
            GraphPath(**fields)


def test_unweighted_graph_rejects_a_weighted_record():
    # the unweighted text has no weight column, so the writer checks each weight first
    with pytest.raises(BadWeightError, match="^edge 'a': weight must be 1$"):
        serialize_graph(WeightedGraph(["v"], [EdgeRecord("a", "v", "v", 2)]))
    with pytest.raises(BadWeightError, match="^edge 'b': weight must be 1$"):
        serialize_graph(parse_weighted_graph("vertex v\nedge a v v\nedge b v v 2\n"))
