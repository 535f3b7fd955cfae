import math
from pathlib import Path
from random import Random
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import pytest

from wlpa import lpa
from wlpa import (
    Algebra,
    AlgebraError,
    EdgeRecord,
    Generator,
    LpaSatisfiedError,
    SpecialEdgeChoice,
    WeightedGraph,
    check_lpa,
    cyclic_components,
    default_special_edges,
    parse_weighted_graph,
    search_shape_word,
    to_unweighted,
    weighted_edges,
    witness_nodpath,
)

from graphgen import (
    _last_maximal_choice,
    chord_ladder,
    multigraphs,
    random_lpa_failing_graph,
    random_lpa_satisfying_graph,
    random_unweighted_graph,
    random_weighted_graph,
    relabeled,
    small_graphs,
    weighted_fan,
    weighted_ring,
)
from oracles import (
    brute_force_cycles,
    brute_force_lpa4_sites,
    gk_dimension,
    path_range,
    reference_check_lpa,
    reference_witness,
    violation_holds,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_graph(name):
    return parse_weighted_graph((FIXTURES / name).read_text())


def test_all_weight_one_is_vacuously_satisfied():
    g = parse_weighted_graph("vertex u\nvertex v\nedge a u v 1\nedge b v u 1")
    report = check_lpa(g)
    assert report.satisfied and report.violations == ()


def test_six_vertex_fixture_satisfies():
    assert check_lpa(fixture_graph("g6.wg")).satisfied


def test_fork_and_parallel_fixtures_satisfy():
    assert check_lpa(fixture_graph("fork.wg")).satisfied
    assert check_lpa(fixture_graph("twoparallel.wg")).satisfied


def test_two_loops_violations():
    g = fixture_graph("e2loops.wg")
    report = check_lpa(g)
    assert not report.satisfied
    kinds = [v.kind for v in report.violations]
    assert kinds == ["LPA2", "LPA4"]
    lpa2, lpa4 = report.violations
    assert lpa2.vertex == "v" and set(lpa2.edges) == {"a", "b"}
    assert lpa2.weighted_edge == "b" and lpa2.path.edges == ()
    assert lpa4.weighted_edge == "b" and lpa4.cycle.edges == ("a",)
    assert all(violation_holds(g, v) for v in report.violations)


def test_lpa1_violation():
    g = parse_weighted_graph(
        "vertex u\nvertex v\nedge a u v 2\nedge b u v 3"
    )
    report = check_lpa(g)
    assert any(v.kind == "LPA1" for v in report.violations)
    assert all(violation_holds(g, v) for v in report.violations)


def test_lpa3_violation():
    # two weighted edges into separate heads of a shared tail
    g = parse_weighted_graph(
        "vertex a\nvertex b\nvertex m\nvertex s\n"
        "edge e a m 2\nedge f b s 2\nedge g s m 1"
    )
    report = check_lpa(g)
    assert any(v.kind == "LPA3" for v in report.violations)
    assert all(violation_holds(g, v) for v in report.violations)


def test_check_lpa_searches_once_per_weighted_edge(monkeypatch):
    # an LPA3 fan: k weighted edges s_i -> r_i whose ranges feed one trunk
    from wlpa import graphs, lpa

    k = 6
    lines = ["vertex t0", "vertex t1", "edge u t0 t1 1"]
    for i in range(k):
        lines += [f"vertex s{i}", f"vertex r{i}",
                  f"edge h{i} s{i} r{i} 2", f"edge c{i} r{i} t{i % 2} 1"]
    g = parse_weighted_graph("\n".join(lines))

    calls = {"breadth_first": 0, "tree": 0, "reaches": 0, "in_line": 0}
    for module in (graphs, lpa):
        for name in calls:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

    report = check_lpa(g)
    assert [v.kind for v in report.violations] == ["LPA3"] * (k * (k - 1) // 2)
    # the zone search that decides, then one search per weighted edge
    assert calls == {"breadth_first": k + 1, "tree": 0, "reaches": 0, "in_line": 0}


def test_check_lpa_enumerates_no_cycles_on_a_satisfying_ring(monkeypatch):
    # every cycle through a ring vertex contains every weighted edge
    from wlpa import graphs, lpa

    calls = 0
    original = graphs.cycles_through

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(graphs, "cycles_through", counted)
    assert not hasattr(lpa, "cycles_through")
    assert check_lpa(weighted_ring(60, {3: 2, 20: 3, 41: 2})).satisfied
    # cycles avoiding the weighted edge are still found and reported
    for g in (fixture_graph("e2loops.wg"), chord_ladder(14)):
        report = check_lpa(g)
        assert "LPA4" in [v.kind for v in report.violations]
    assert calls == 0


def _reporter_verdict(g):
    with mock.patch.object(lpa, "_satisfies_lpa", lambda g, zone: False):
        return check_lpa(g).satisfied


@st.composite
def _functional_zones(draw):
    """Vertices z_i emitting at most one edge, fed from free vertices u_j.

    Such a zone is a functional graph, so (LPA) holds or fails only by the
    placement of the weighted edges: on cycles, tails and entries.
    """
    zone = [f"z{i}" for i in range(draw(st.integers(1, 8)))]
    free = [f"u{i}" for i in range(draw(st.integers(0, 3)))]
    pairs = [(z, draw(st.sampled_from(zone))) for z in zone if draw(st.integers(0, 5))]
    for u in free:
        pairs += [(u, draw(st.sampled_from(zone + free))) for _ in range(draw(st.integers(0, 3)))]
    pairs = draw(st.permutations(pairs))
    edges = [EdgeRecord(f"e{k}", s, r, draw(st.sampled_from([1, 1, 2, 3])))
             for k, (s, r) in enumerate(pairs)]
    return WeightedGraph(draw(st.permutations(zone + free)), edges)


@settings(max_examples=500, deadline=None, database=None)
@given(multigraphs() | _functional_zones())
@example(weighted_ring(5, {0: 2, 2: 3}))
@example(chord_ladder(6))
@example(parse_weighted_graph(  # two entries into one tail, one of them outside
    "vertex a\nvertex b\nvertex c\nvertex u\n"
    "edge f u a 2\nedge e b c 2\nedge g a b 1"))
def test_linear_decision_matches_the_reporter(g):
    assert lpa._decide_lpa(g)[1] == _reporter_verdict(g)


def test_linear_decision_matches_the_reporter_on_graph_families():
    rng = Random(71007)
    graphs = list(small_graphs(max_vertices=3, max_edges=3, max_weight=2))
    graphs += [random_lpa_satisfying_graph(rng) for _ in range(200)]
    graphs += [random_lpa_failing_graph(rng) for _ in range(200)]
    graphs += [weighted_ring(n, {i: 2 + i % 2 for i in range(0, n, 3)}) for n in (1, 2, 7)]
    graphs += [chord_ladder(n) for n in (4, 9)]
    verdicts = [lpa._decide_lpa(g)[1] for g in graphs]
    assert verdicts == [_reporter_verdict(g) for g in graphs]
    assert 200 < sum(verdicts) < len(graphs) - 200


def test_finite_gk_dimension_implies_lpa():
    # the paper's second theorem: an algebra of finite Gelfand-Kirillov
    # dimension is an unweighted Leavitt path algebra, so (LPA) holds; the
    # dimension is read off the nod-word automaton, apart from the package
    graphs = list(small_graphs(max_vertices=3, max_edges=4, max_weight=2))
    finite = [g for g in graphs if gk_dimension(g, default_special_edges(g)) < math.inf]
    assert (len(finite), len(graphs)) == (157, 1541)
    for g in finite:
        assert lpa._decide_lpa(g)[1] and check_lpa(g).satisfied, g


def test_decision_report_and_shape_search_agree_on_every_small_graph():
    # the linear decision, the reporter and the search for a nod-word
    # e.2 ... e.2* give one verdict on every graph of the class
    verdicts = []
    for g in small_graphs(max_vertices=3, max_edges=4, max_weight=2):
        satisfied = lpa._decide_lpa(g)[1]
        assert check_lpa(g).satisfied == satisfied == (search_shape_word(g) is None), g
        verdicts.append(satisfied)
    assert (sum(verdicts), len(verdicts)) == (389, 1541)


def _with_fixture_examples(test):
    for path in sorted(FIXTURES.glob("*.wg")):
        test = example(parse_weighted_graph(path.read_text()))(test)
    return test


@settings(max_examples=300, deadline=None, database=None)
@given(multigraphs())
@_with_fixture_examples
def test_finite_gk_dimension_implies_lpa_on_multigraphs(g):
    # the same theorem on parallel edges, self-loops and weights up to 3;
    # about one drawn graph in six has finite dimension
    if gk_dimension(g, default_special_edges(g)) < math.inf:
        assert lpa._decide_lpa(g)[1] and check_lpa(g).satisfied


def test_unweighted_gk_dimension_is_finite_iff_no_two_cycles_share_a_vertex():
    # Alahmadi, Alsulami, Jain and Zelmanov (J. Algebra Appl. 11, 2012):
    # graph-side, two distinct cycles share a vertex iff some vertex is the
    # base of two, counted by filtering edge sequences
    rng = Random(3401)
    graphs = [random_unweighted_graph(rng, max_vertices=5, max_edges=6) for _ in range(300)]
    finite = [gk_dimension(g, default_special_edges(g)) < math.inf for g in graphs]
    shared = [any(len(brute_force_cycles(g, v)) > 1 for v in g.vertices) for g in graphs]
    assert finite == [not s for s in shared]
    assert sum(finite) == 189


def test_compilation_keeps_the_gk_dimension_and_acyclic_means_the_counts_reach_zero():
    # an isomorphism keeps the Gelfand-Kirillov dimension, so (E, w) and its
    # unweighted graph read the same d off their own automata; and d = 0 iff
    # the automaton is acyclic, iff no nod-word has m + 1 letters, for m the
    # number of non-vertex letters (the walk stops at the first empty length);
    # on the compiled graph h, d is finite iff no cyclic component has more
    # internal edges than vertices (two cycles share a vertex), and d = 0
    # iff h has no cyclic component
    rng = Random(3501)
    graphs = [random_lpa_satisfying_graph(rng) for _ in range(300)]
    dims = []
    for g in graphs:
        d = gk_dimension(g, default_special_edges(g))
        unweighted = to_unweighted(g)[0]
        assert gk_dimension(unweighted, default_special_edges(unweighted)) == d, g
        inside = [set(c) for c in cyclic_components(unweighted, unweighted.vertices)]
        internal = [sum(e.source in c and e.range in c for e in unweighted.edges) for c in inside]
        assert (d < math.inf) == all(n <= len(c) for n, c in zip(internal, inside)), g
        assert (d == 0) == (not inside), g
        for h in (g, unweighted):
            m = 2 * sum(e.weight for e in h.edges)
            assert (d == 0) == (len(list(Algebra(h).nodword_counts(m + 1))) <= m + 1), h
        dims.append(d)
    assert {d: dims.count(d) for d in dims} == {
        0: 84, 1: 25, 2: 42, 3: 7, 4: 7, 5: 1, math.inf: 134}


@settings(max_examples=500, deadline=None, database=None)
@given(multigraphs() | _functional_zones())
@_with_fixture_examples
def test_check_lpa_matches_the_reference_reporter(g):
    assert check_lpa(g) == reference_check_lpa(g)


def test_check_lpa_matches_the_reference_reporter_on_graph_families():
    rng = Random(71026)
    graphs = list(small_graphs(max_vertices=3, max_edges=3, max_weight=2))
    graphs += [random_lpa_failing_graph(rng) for _ in range(500)]
    graphs += [random_lpa_failing_graph(rng, max_vertices=9, max_edges=14) for _ in range(500)]
    graphs += [chord_ladder(n) for n in range(3, 15)]
    graphs += [weighted_fan(k) for k in range(2, 13)]
    for g in graphs:
        assert check_lpa(g) == reference_check_lpa(g), g


def test_check_lpa_runs_one_zone_scc_pass(monkeypatch):
    # one pass over the zone, then one re-split per weighted edge e whose
    # source lies in T(r(e)): none on the fan, h3 and h4 on lpa_fan.wg;
    # the zone search that decides, then one search per weighted edge
    from wlpa import graphs

    calls = {"cyclic_components": 0, "breadth_first": 0}
    for module in (graphs, lpa):
        for name in calls:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    for g, passes in ((weighted_fan(6), 1), (fixture_graph("lpa_fan.wg"), 3)):
        calls.update(cyclic_components=0, breadth_first=0)
        check_lpa(g)
        assert calls == {"cyclic_components": passes, "breadth_first": 7}


def test_check_lpa_decides_a_large_satisfying_ring_in_one_pass(monkeypatch):
    from wlpa import graphs

    g = weighted_ring(4000, {i: 2 for i in range(0, 4000, 4)})
    calls = {"cyclic_components": 0, "shortest_cycle": 0, "breadth_first": 0}
    for module in (graphs, lpa):
        for name in calls:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    assert check_lpa(g) == lpa.LpaReport()
    # the zone search alone decides
    assert calls == {"cyclic_components": 0, "shortest_cycle": 0, "breadth_first": 1}


def test_lpa4_one_site_per_cyclic_component():
    rng = Random(71006)
    graphs = list(small_graphs(max_vertices=3, max_edges=3, max_weight=2))
    graphs += [random_lpa_failing_graph(rng) for _ in range(300)]
    sites = 0
    for g in graphs:
        report = check_lpa(g)
        lpa4 = [v for v in report.violations if v.kind == "LPA4"]
        got = [(v.weighted_edge, path_range(g, v.path), len(v.cycle)) for v in lpa4]
        assert got == brute_force_lpa4_sites(g), g
        assert all(violation_holds(g, v) for v in report.violations)
        sites += len(lpa4)
    assert sites > 100


def test_lpa4_chord_ladder_reports_one_shortest_cycle():
    # every ring cycle avoids h, and the chords alone close the shortest one
    g = chord_ladder(14)
    lpa4 = [v for v in check_lpa(g).violations if v.kind == "LPA4"]
    assert len(lpa4) == 1
    assert lpa4[0].weighted_edge == "h" and lpa4[0].path.edges == ()
    assert lpa4[0].cycle.edges == tuple(f"k{i}" for i in range(0, 14, 2))


def test_verdict_invariant_under_relabeling():
    rng = Random(71001)
    for _ in range(40):
        g = random_weighted_graph(rng, max_vertices=5, max_edges=7)
        assert check_lpa(g).satisfied == check_lpa(relabeled(rng, g)).satisfied


def test_all_violations_replay():
    rng = Random(71002)
    for _ in range(40):
        g = random_lpa_failing_graph(rng)
        report = check_lpa(g)
        assert not report.satisfied
        for violation in report.violations:
            assert violation_holds(g, violation), violation


# -- witnesses -----------------------------------------------------------


def shape_ok(algebra, word):
    if not algebra.is_nodword(word):
        return False
    first, last = word[0], word[-1]
    weighted = {e.id for e in weighted_edges(algebra.graph)}
    return (
        first.kind == "edge"
        and first.index == 2
        and first.name in weighted
        and last == Generator.star(first.name, 2)
    )


def test_witness_two_loops():
    g = fixture_graph("e2loops.wg")
    word = witness_nodpath(g)
    assert word == (
        Generator.edge("b", 2),
        Generator.edge("a", 1),
        Generator.star("b", 2),
    )


def test_witness_weighted_edge_into_loop():
    g = parse_weighted_graph(
        "vertex u\nvertex v\nedge e u v 2\nedge f v v 1"
    )
    word = witness_nodpath(g)
    assert word == (
        Generator.edge("e", 2),
        Generator.edge("f", 1),
        Generator.star("e", 2),
    )


def test_witness_from_long_path_into_long_cycle():
    # h enters a k-vertex path that runs into a k-cycle: the LPA4 word
    # crosses the path, goes once round the cycle and comes back
    k = 2000
    vertices = ["u"] + [f"p{i}" for i in range(k)] + [f"c{i}" for i in range(k)]
    edges = [EdgeRecord("h", "u", "p0", 2)]
    edges += [EdgeRecord(f"q{i}", f"p{i}", f"p{i + 1}" if i + 1 < k else "c0")
              for i in range(k)]
    edges += [EdgeRecord(f"r{i}", f"c{i}", f"c{(i + 1) % k}") for i in range(k)]
    g = WeightedGraph(vertices, edges)
    word = witness_nodpath(g)
    assert shape_ok(Algebra(g), word)
    assert len(word) == 2 * k + k + 2


def test_witness_on_satisfied_graph_raises():
    with pytest.raises(LpaSatisfiedError):
        witness_nodpath(fixture_graph("g6.wg"))


def test_witness_on_satisfied_graph_checks_a_given_choice():
    g = fixture_graph("fork.wg")
    with pytest.raises(AlgebraError, match="not the maximal weight 2 at 'u'"):
        witness_nodpath(g, SpecialEdgeChoice((("u", "a"),)))
    with pytest.raises(LpaSatisfiedError):
        witness_nodpath(g, SpecialEdgeChoice((("u", "b"),)))


def test_witness_shape_on_small_graphs_exhaustive():
    count = 0
    for g in small_graphs(max_vertices=2, max_edges=3, max_weight=3):
        if check_lpa(g).satisfied:
            continue
        count += 1
        word = witness_nodpath(g)
        assert shape_ok(Algebra(g), word)
    assert count > 50


def test_witness_shape_on_sampled_graphs():
    rng = Random(71003)
    for _ in range(120):
        g = random_lpa_failing_graph(rng, max_vertices=4, max_edges=5, max_weight=3)
        word = witness_nodpath(g)
        assert shape_ok(Algebra(g), word)


def _assert_witness_matches_the_reference(g):
    if reference_check_lpa(g).satisfied:
        with pytest.raises(LpaSatisfiedError):
            witness_nodpath(g)
        return
    for choice in (None, _last_maximal_choice(g)):
        assert witness_nodpath(g, choice) == reference_witness(g, choice), (g, choice)


@settings(max_examples=300, deadline=None, database=None)
@given(multigraphs() | _functional_zones())
@_with_fixture_examples
def test_witness_matches_the_reference_witness(g):
    _assert_witness_matches_the_reference(g)


def test_witness_matches_the_reference_witness_on_graph_families():
    rng = Random(71029)
    graphs = list(small_graphs(max_vertices=2, max_edges=3, max_weight=3))
    graphs += [random_lpa_failing_graph(rng) for _ in range(200)]
    graphs += [random_lpa_failing_graph(rng, max_vertices=8, max_edges=12) for _ in range(100)]
    graphs += [weighted_fan(k) for k in range(2, 9)]
    graphs += [chord_ladder(n) for n in range(3, 12)]
    for g in graphs:
        _assert_witness_matches_the_reference(g)


def _count_calls(monkeypatch, names):
    """Count the calls of each named function of ``graphs`` and ``lpa``."""
    from wlpa import graphs

    calls = dict.fromkeys(names, 0)
    for module in (graphs, lpa):
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def _in_line_chain(k):
    """k weighted edges h_i: s_i -> r_i in line along one path into the sink
    r_(k-1), and a vertex x emitting two weighted edges, so (LPA) fails
    through LPA1 only."""
    vertices = ["x", "y", "z"]
    edges = [EdgeRecord("a", "x", "y", 2), EdgeRecord("b", "x", "z", 2)]
    for i in range(k):
        vertices += [f"s{i}", f"r{i}"]
        edges.append(EdgeRecord(f"h{i}", f"s{i}", f"r{i}", 2))
        if i + 1 < k:
            edges.append(EdgeRecord(f"c{i}", f"r{i}", f"s{i + 1}"))
    return WeightedGraph(vertices, edges)


@pytest.mark.parametrize("g", [weighted_fan(6), _in_line_chain(40)], ids=["fan", "chain"])
def test_witness_on_an_acyclic_zone_searches_it_once(monkeypatch, g):
    # no cycle in the zone, so no LPA4 site and no per-edge search
    calls = _count_calls(monkeypatch, ["check_lpa", "breadth_first", "cyclic_components"])
    word = witness_nodpath(g)
    assert calls == {"check_lpa": 0, "breadth_first": 1, "cyclic_components": 1}
    assert shape_ok(Algebra(g), word)


@pytest.mark.parametrize("g", [weighted_fan(6), _in_line_chain(40),
                               fixture_graph("lpa1_loop.wg")], ids=["fan", "chain", "loop"])
def test_witness_search_builds_no_algebra(monkeypatch, g):
    # the nod-word search reads one pass of the letter tables under the choice
    build = Algebra.__init__
    for choice in (None, _last_maximal_choice(g)):
        built = []
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, ["_letters"])
            patch.setattr(Algebra, "__init__",
                          lambda self, *args: built.append(args) or build(self, *args))
            word = witness_nodpath(g, choice)
        assert (len(built), calls["_letters"]) == (0, 1)
        assert word == reference_witness(g, choice)


def test_witness_takes_the_first_lpa4_site_with_one_cycle_search(monkeypatch):
    g = chord_ladder(11)
    calls = _count_calls(monkeypatch, ["check_lpa", "shortest_cycle"])
    word = witness_nodpath(g)
    assert calls == {"check_lpa": 0, "shortest_cycle": 1}
    assert word[0] == Generator.edge("h", 2) and shape_ok(Algebra(g), word)


def test_soundness_pairing():
    # check_lpa fails exactly when the bounded shape search finds a word
    rng = Random(71004)
    failing = satisfied = 0
    for _ in range(60):
        g = random_weighted_graph(rng, max_vertices=5, max_edges=6, max_weight=3)
        found = search_shape_word(g)
        if check_lpa(g).satisfied:
            satisfied += 1
            assert found is None
        else:
            failing += 1
            assert found is not None and shape_ok(Algebra(g), found)
    assert failing > 5 and satisfied > 5


def test_search_respects_satisfying_constructions():
    rng = Random(71005)
    for _ in range(30):
        g = random_lpa_satisfying_graph(rng)
        assert search_shape_word(g) is None
