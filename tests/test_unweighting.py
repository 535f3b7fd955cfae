import importlib.util
import io
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wlpa import (
    RATIONALS,
    Algebra,
    EdgeRecord,
    FamilyMap,
    Generator,
    LpaViolatedError,
    MixedContextError,
    PreconditionViolatedError,
    PrimeField,
    ReservedIdError,
    UnknownGeneratorError,
    check_lpa,
    family_maps,
    field_from_name,
    make_ranges_sinks,
    parse_weighted_graph,
    relation_instances,
    serialize_graph,
    serialize_weighted_graph,
    strand_name,
    to_unweighted,
    tree,
    unweight_sunk,
    verify_families,
    weighted_edges,
)
from wlpa import algebra as algebra_module, cli, unweighting as unweighting_module

from graphgen import _last_maximal_choice, multigraphs, random_lpa_satisfying_graph, weighted_ring
from oracles import (
    dense_family_verification,
    family_map_from,
    generator_endpoints,
    images_by_generator,
    in_edges,
    is_sink,
    out_edges,
    reference_family_maps,
    reference_sunk_preconditions,
    reference_unweight_sunk,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

E = Generator.edge
S = Generator.star
V = Generator.vertex


def fixture_graph(name):
    return parse_weighted_graph((FIXTURES / name).read_text())


def fixture_text(name):
    return (FIXTURES / name).read_text()


def test_strand_name_nesting():
    assert strand_name("a", 2) == "a^(2)"
    assert strand_name("h^(1)", 2) == "(h^(1))^(2)"


# -- stage 1 ---------------------------------------------------------------


def test_stage1_six_vertex_golden():
    g = fixture_graph("g6.wg")
    out = make_ranges_sinks(g)
    assert serialize_weighted_graph(out) == fixture_text("g6_stage1.wg")


def test_stage1_identity_without_weighted_edges():
    g = parse_weighted_graph("vertex u\nvertex v\nedge a u v 1\nedge b v u 1")
    assert make_ranges_sinks(g) == g


def test_stage1_identity_when_zone_is_sunk():
    g = fixture_graph("fork.wg")
    assert make_ranges_sinks(g) == g


def test_stage1_rejects_lpa_violations():
    with pytest.raises(LpaViolatedError) as err:
        make_ranges_sinks(fixture_graph("e2loops.wg"))
    assert not err.value.report.satisfied


def test_stage1_rejects_reserved_ids():
    g = parse_weighted_graph("vertex u\nvertex v\nedge a^(1) u v 1")
    with pytest.raises(ReservedIdError):
        make_ranges_sinks(g)
    g = parse_weighted_graph("vertex u^(1)\nvertex v\nedge a u^(1) v 2")
    with pytest.raises(ReservedIdError, match=r"^input vertex id 'u\^\(1\)' uses the reserved"):
        to_unweighted(g)


def test_stage1_postconditions_on_random_graphs():
    rng = Random(30301)
    for _ in range(60):
        g = random_lpa_satisfying_graph(rng)
        out = make_ranges_sinks(g)
        for e in weighted_edges(out):
            assert is_sink(out, e.range)
        for v in out.vertices:
            assert sum(1 for e in out_edges(out, v) if e.weight > 1) <= 1
            assert sum(1 for e in in_edges(out, v) if e.weight > 1) <= 1


# -- stage 2 ---------------------------------------------------------------


def test_stage2_six_vertex_golden():
    g = parse_weighted_graph(fixture_text("g6_stage1.wg"))
    out = unweight_sunk(g)
    assert serialize_graph(out) == fixture_text("g6_stage2.wg")


def test_stage2_identity_on_unweighted():
    g = parse_weighted_graph("vertex u\nvertex v\nedge a u v 1\nedge b v u 1")
    out = unweight_sunk(g)
    assert list(out.vertices) == list(g.vertices)
    assert [(e.id, e.source, e.range) for e in out.edges] == [
        (e.id, e.source, e.range) for e in g.edges
    ]


def test_stage2_fork():
    out = unweight_sunk(fixture_graph("fork.wg"))
    assert out.vertices == ("u", "v1", "v3^(1)", "v3^(2)")
    assert [(e.id, e.source, e.range) for e in out.edges] == [
        ("a", "u", "v1"),
        ("b^(1)", "u", "v3^(1)"),
        ("b^(2)", "v3^(2)", "u"),
    ]


def test_stage2_precondition_errors():
    not_sunk = parse_weighted_graph(
        "vertex u\nvertex v\nvertex w\nedge a u v 2\nedge b v w 1"
    )
    with pytest.raises(PreconditionViolatedError) as err:
        unweight_sunk(not_sunk)
    assert "not a sink" in err.value.clause

    double_emit = parse_weighted_graph(
        "vertex u\nvertex v\nvertex w\nedge a u v 2\nedge b u w 2"
    )
    with pytest.raises(PreconditionViolatedError) as err:
        unweight_sunk(double_emit)
    assert "emits" in err.value.clause

    double_receive = parse_weighted_graph(
        "vertex u\nvertex w\nvertex v\nedge a u v 2\nedge b w v 2"
    )
    with pytest.raises(PreconditionViolatedError) as err:
        unweight_sunk(double_receive)
    assert "receives" in err.value.clause


@st.composite
def _stage2_inputs(draw):
    """A random multigraph, rarely sunk, or the stage-1 output of a graph satisfying (LPA)."""
    if draw(st.booleans()):
        return draw(multigraphs())
    return make_ranges_sinks(random_lpa_satisfying_graph(Random(draw(st.integers(0, 2**32)))))


@settings(max_examples=400, deadline=None, database=None)
@given(_stage2_inputs())
@example(parse_weighted_graph(  # a receiving fault at u comes before an emitting one at w
    "vertex u\nvertex w\nvertex s\nedge a w u 2\nedge b s u 3\nedge c w s 2"))
@example(parse_weighted_graph(  # two ranges that are no sinks: the first weighted edge's
    "vertex u\nvertex v\nvertex w\nedge a v w 2\nedge b w u 1\nedge c u v 3"))
def test_sunk_preconditions_match_the_reference(g):
    def outcome(check):
        try:
            return check(g)
        except PreconditionViolatedError as exc:
            return type(exc), str(exc)
    assert outcome(unweighting_module._sunk_preconditions) == outcome(reference_sunk_preconditions)


def test_to_unweighted_checks_the_stage2_preconditions_twice(monkeypatch):
    # stage 1's postcondition and stage 2's precondition
    calls = []
    original = unweighting_module._sunk_preconditions
    monkeypatch.setattr(unweighting_module, "_sunk_preconditions",
                        lambda g: calls.append(g) or original(g))
    _, trace = to_unweighted(fixture_graph("g6.wg"))
    assert calls == [trace.stage1_graph] * 2


def test_stage2_counts():
    rng = Random(30302)
    for _ in range(40):
        g = make_ranges_sinks(random_lpa_satisfying_graph(rng))
        out = unweight_sunk(g)
        heavy = weighted_edges(g)
        ranges = {e.range for e in heavy}
        gv_weight = {e.range: e.weight for e in heavy}
        n_m = len(g.vertices) - len(ranges)
        assert len(out.vertices) == n_m + sum(gv_weight.values())
        n_a = sum(
            1 for e in g.edges if e.weight == 1 and e.range not in ranges
        )
        n_b = sum(
            gv_weight[e.range]
            for e in g.edges
            if e.weight == 1 and e.range in ranges
        )
        n_c = len(heavy)
        n_d = sum(e.weight - 1 for e in heavy)
        assert len(out.edges) == n_a + n_b + n_c + n_d


# -- full pipeline -----------------------------------------------------------


def test_pipeline_six_vertex_golden():
    g = fixture_graph("g6.wg")
    out, trace = to_unweighted(g)
    assert serialize_graph(out) == fixture_text("g6_stage2.wg")
    assert trace.Z == ("t", "u", "x", "y", "z")
    assert trace.gv == {"x": "f"}
    assert serialize_weighted_graph(trace.stage1_graph) == fixture_text("g6_stage1.wg")


def test_pipeline_rejects_violating_graph():
    with pytest.raises(LpaViolatedError):
        to_unweighted(fixture_graph("e2loops.wg"))


def test_pipeline_identity_on_unweighted():
    g = parse_weighted_graph("vertex u\nvertex v\nedge a u v 1\nedge l v v 1")
    out, _ = to_unweighted(g)
    assert list(out.vertices) == list(g.vertices)
    assert [e.id for e in out.edges] == [e.id for e in g.edges]


# -- family maps ------------------------------------------------------------


def test_family_map_images_follow_case_table():
    g = fixture_graph("g6.wg")
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)
    fwd_images, bwd_images = images_by_generator(fwd), images_by_generator(bwd)
    # weighted edge f: first strand goes forward, higher strands reverse
    assert fwd_images[E("f", 1)].support_words() == [(E("f^(1)", 1),)]
    assert fwd_images[E("f", 2)].support_words() == [(S("f^(2)", 1),)]
    # unweighted edge into a split range fans out over the copies
    assert fwd_images[E("g", 1)].support_words() == [
        (E("g^(1)", 1),),
        (E("g^(2)", 1),),
    ]
    # unweighted edge with untouched range maps to itself
    assert fwd_images[E("c", 1)].support_words() == [(E("c", 1),)]
    # split vertex maps to the sum of its copies
    assert fwd_images[V("x")].support_words() == [
        (V("x^(1)"),),
        (V("x^(2)"),),
    ]
    # backward: a D-edge pulls back to a star strand
    assert bwd_images[E("f^(2)", 1)].support_words() == [(S("f", 2),)]
    # a split-vertex copy and a fan strand (B) pull back to words that rewrite
    src = bwd_images[V("t")].algebra
    assert bwd_images[V("x^(1)")] == src.word((S("f", 1), E("f", 1)))
    assert bwd_images[V("x^(1)")].render() == "x - f.2* f.2"
    assert bwd_images[E("g^(1)", 1)] == src.word((E("g", 1), S("f", 1), E("f", 1)))
    assert bwd_images[E("g^(1)", 1)].render() == "g.1 - g.1 f.2* f.2"


def test_family_maps_read_their_graphs_from_the_trace():
    g = fixture_graph("g6.wg")
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace, field=field_from_name("mod:7"))
    assert fwd.domain.graph is trace.source
    assert fwd.target.graph is trace.stage2_graph
    assert bwd.domain is fwd.target and bwd.target is fwd.domain
    assert fwd.domain.field == fwd.target.field == field_from_name("mod:7")


def test_transform_verify_decides_lpa_once(monkeypatch):
    from wlpa import cli, unweighting

    calls = {"_decide_lpa": 0, "check_lpa": 0, "make_ranges_sinks": 0}

    def counted(name):
        original = getattr(unweighting, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(unweighting, name, wrapper)

    counted("_decide_lpa")
    counted("check_lpa")
    counted("make_ranges_sinks")
    code = cli.run(
        ["transform", "--verify", "--input", str(FIXTURES / "g6.wg")],
        stdout=io.StringIO(), stderr=io.StringIO(),
    )
    assert code == 0
    # a satisfying graph is decided once and builds no report
    assert calls == {"_decide_lpa": 1, "check_lpa": 0, "make_ranges_sinks": 1}


def test_verify_families_fixture_pairs():
    for name in ("g6.wg", "fork.wg", "twoparallel.wg"):
        g = fixture_graph(name)
        _, trace = to_unweighted(g)
        fwd, bwd = family_maps(trace)
        result = verify_families(fwd, bwd)
        assert result.ok, (name, result.failures[:5])


def test_verify_families_identity_pair():
    g = parse_weighted_graph("vertex u\nvertex v\nedge a u v 1\nedge l v v 1")
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)
    assert verify_families(fwd, bwd).ok


def test_verify_families_rejects_maps_of_other_algebras():
    _, g_trace = to_unweighted(fixture_graph("g6.wg"))
    _, h_trace = to_unweighted(fixture_graph("fork.wg"))
    over_q = family_maps(g_trace)
    over_f7 = family_maps(g_trace, field=field_from_name("mod:7"))
    over_h = family_maps(h_trace)
    # maps between the same two algebras whose fields differ
    q_graph, f7_graph = over_q[0].domain, over_f7[0].target
    mixed = (family_map_from("forward", q_graph, f7_graph, images_by_generator(over_f7[0])),
             family_map_from("backward", f7_graph, q_graph, images_by_generator(over_q[1])))
    pairs = [(over_q[0], over_f7[1]), (over_f7[0], over_q[1]), (over_q[0], over_h[1]), mixed]
    for fwd, bwd in pairs:
        with pytest.raises(MixedContextError):
            verify_families(fwd, bwd)


def test_verify_families_rejects_maps_over_other_graphs():
    g = fixture_graph("g6.wg")
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)
    # a second build has the same graphs and field but other Algebra objects
    for pair in ((fwd, family_maps(trace)[1]), (family_maps(trace)[0], bwd), (fwd, fwd)):
        with pytest.raises(MixedContextError):
            verify_families(*pair)
    images = images_by_generator(fwd)
    missing = {gen: image for gen, image in images.items() if gen != V(g.vertices[0])}
    stray = {**images, E("no-such-edge", 1): images[V(g.vertices[0])]}
    for assignments in (missing, stray):
        with pytest.raises(UnknownGeneratorError):
            family_map_from("forward", fwd.domain, fwd.target, assignments)
    with pytest.raises(MixedContextError):  # images over another algebra of the same graph
        family_map_from("forward", fwd.domain, Algebra(trace.stage2_graph), images)


def test_verify_families_rejects_swapped_maps():
    # swapped, the relations of g~ would be checked and labelled as forward ones
    _, trace = to_unweighted(fixture_graph("g6.wg"))
    fwd, bwd = family_maps(trace)
    relabeled = (FamilyMap("backward", fwd.domain, fwd.target, fwd.images),
                 FamilyMap("forward", bwd.domain, bwd.target, bwd.images))
    for pair in ((bwd, fwd), relabeled, (fwd, relabeled[1]), (relabeled[0], bwd)):
        with pytest.raises(MixedContextError, match="a forward and a backward map"):
            verify_families(*pair)
    assert verify_families(fwd, bwd).ok


def _ring300():
    return weighted_ring(300, {0: 2, 100: 3, 200: 2})


@pytest.mark.parametrize("make", [lambda: fixture_graph("g6.wg"), _ring300], ids=["g6", "ring300"])
def test_family_maps_leave_the_memos_empty(make):
    # each backward image is one product of its letters, so nothing is normalized
    _, trace = to_unweighted(make())
    fwd, bwd = family_maps(trace)
    algebras = (fwd.domain, fwd.target)
    assert [(a._memo_left, a._memo_right) for a in algebras] == [({}, {}), ({}, {})]
    assert verify_families(fwd, bwd).ok
    assert [(a._memo_left, a._memo_right) for a in algebras] == [({}, {}), ({}, {})]


def _counted_labels(monkeypatch):
    """The keys of every label rendered from now on, through the one renderer."""
    keys = []
    original = algebra_module._label

    def counted(key):
        keys.append(key)
        return original(key)

    for module in (algebra_module, unweighting_module):
        monkeypatch.setattr(module, "_label", counted)
    return keys


@pytest.mark.parametrize("make", [lambda: fixture_graph("g6.wg"), _ring300], ids=["g6", "ring300"])
def test_passing_verification_renders_no_label(make, monkeypatch):
    _, trace = to_unweighted(make())
    fwd, bwd = family_maps(trace)
    keys = _counted_labels(monkeypatch)
    assert verify_families(fwd, bwd).ok
    assert keys == []


@pytest.mark.parametrize("name", ["g6.wg", "fork.wg"])
def test_failing_verification_renders_one_label_per_failure(name, monkeypatch):
    g = fixture_graph(name)
    out, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)
    cases = [(f"forward {k}", m, bwd) for k, m in _corruptions(fwd, g).items()]
    cases += [(f"backward {k}", fwd, m) for k, m in _corruptions(bwd, out).items()]
    keys = _counted_labels(monkeypatch)
    for label, f, b in cases:
        keys.clear()
        result = verify_families(f, b)
        assert result.failures, label
        assert len(keys) == len(result.failures), label


def test_family_map_assignments_are_a_copy():
    g = fixture_graph("g6.wg")
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)
    images = images_by_generator(fwd)
    first, last = next(iter(images)), next(reversed(images))
    images[first] = images[first] + images[first]
    images[last] = images[last].algebra.zero()
    assert verify_families(fwd, bwd).ok
    assert images_by_generator(fwd) != images
    intact = images_by_generator(fwd)
    assert family_map_from("forward", fwd.domain, fwd.target, intact) == fwd


def test_verify_families_random_sample():
    rng = Random(30303)
    for _ in range(25):
        g = random_lpa_satisfying_graph(rng)
        _, trace = to_unweighted(g)
        fwd, bwd = family_maps(trace)
        result = verify_families(fwd, bwd)
        assert result.ok, result.failures[:5]


def _choice_graphs():
    """The fixtures satisfying (LPA) and 20 seeded random graphs that do."""
    graphs = [fixture_graph(f"{name}.wg") for name in ("g6", "fork", "loop1", "twoparallel")]
    rng = Random(30328)
    return graphs + [random_lpa_satisfying_graph(rng) for _ in range(20)]


def _rebuilt(fmap, domain, target):
    """``fmap`` as a map from ``domain`` to ``target``, its images normalized there."""
    images = {gen: target.normalize(image.terms()) for gen, image in images_by_generator(fmap).items()}
    return family_map_from(fmap.direction, domain, target, images)


def _doubled(fmap, t):
    """``fmap`` with the image of letter ``t`` doubled."""
    images = list(fmap.images)
    images[t] = {w: 2 * c for w, c in images[t].items()}
    return fmap._replace(images=tuple(images))


def test_verification_does_not_depend_on_the_special_edges():
    # the same maps between the algebras under the last edges of maximal
    # weight: (iii) and (iv) are read off other rules, with the same verdict
    moved = labelled = 0
    for g in _choice_graphs():
        _, trace = to_unweighted(g)
        fwd, bwd = family_maps(trace)
        src, tgt = (Algebra(a.graph, _last_maximal_choice(a.graph)) for a in (fwd.domain, bwd.domain))
        moved += src._rules.keys() != fwd.domain._rules.keys()
        moved += tgt._rules.keys() != bwd.domain._rules.keys()
        last_fwd, last_bwd = _rebuilt(fwd, src, tgt), _rebuilt(bwd, tgt, src)
        # the first strand of the first edge on each side
        tf, tb = fwd.domain._nv, bwd.domain._nv
        cases = [
            ((fwd, bwd), (last_fwd, last_bwd)),
            ((_doubled(fwd, tf), bwd), (_doubled(last_fwd, tf), last_bwd)),
            ((fwd, _doubled(bwd, tb)), (last_fwd, _doubled(last_bwd, tb))),
        ]
        results = [verify_families(*default) for default, _ in cases]
        assert [verify_families(*last) for _, last in cases] == results
        assert [r.ok for r in results] == [True, False, False]
        labelled += any(" (iii) " in f or " (iv) " in f for r in results for f in r.failures)
    assert moved >= 20 and labelled >= 20


def test_each_rule_is_checked_once():
    # (i) per ordered pair of vertices, (ii) four per strand, then one
    # instance of (iii) or (iv) per rule of the domain algebra
    for g in _choice_graphs():
        _, trace = to_unweighted(g)
        fwd, bwd = family_maps(trace)
        counts = verify_families(fwd, bwd).counts
        for key, fmap in (("forward_relations", fwd), ("backward_relations", bwd)):
            h = fmap.domain.graph
            n, strands = len(h.vertices), sum(e.weight for e in h.edges)
            assert counts[key] == n * n + 4 * strands + len(fmap.domain._rules), key


def test_zone_matches_tree_of_ranges():
    rng = Random(30304)
    for _ in range(20):
        g = random_lpa_satisfying_graph(rng)
        _, trace = to_unweighted(g)
        assert trace.Z == tree(g, [e.range for e in weighted_edges(g)])


# -- verification against the dense oracle -----------------------------------


def _verification_graph(name):
    if name != "random":
        return fixture_graph(name)
    rng = Random(30305)
    while True:
        g = random_lpa_satisfying_graph(rng)
        if len(g.vertices) >= 3 and weighted_edges(g):
            return g


def _corruptions(fmap, graph):
    """Corrupted copies of ``fmap``, a family map defined on ``graph``'s letters.

    Two vertices a and b of ``graph`` and the first strand of its first
    non-loop edge are tampered with: swapped vertex images, a doubled
    vertex image, a vertex image replaced by a sum of two vertices of the
    image algebra of which one starts a word of b's image, a zero edge
    image and a vertex image replaced by an edge image.
    """
    images, algebra = images_by_generator(fmap), fmap.target
    a, b = V(graph.vertices[0]), V(graph.vertices[-1])
    strand = E(next(e for e in graph.edges if e.source != e.range).id, 1)

    def first_vertex(gen):
        return generator_endpoints(algebra, images[gen].support_words()[0][0])[0]

    overlap = algebra.vertex(first_vertex(b)) + algebra.vertex(first_vertex(a))
    changes = {
        "swap": {a: images[b], b: images[a]},
        "double": {a: images[a] + images[a]},
        "overlap": {a: overlap},
        "zero-edge": {strand: algebra.zero()},
        "edge-for-vertex": {a: images[strand]},
    }
    return {name: family_map_from(fmap.direction, fmap.domain, algebra,
                                             {**images, **change})
            for name, change in changes.items()}


# over F_2 a sign is lost (-1 = 1) and a doubled image is zero
@pytest.mark.parametrize("field", ["rational", "mod:7", "mod:2", "mod:2305843009213693951"])
@pytest.mark.parametrize("name", ["g6.wg", "fork.wg", "random"])
def test_verify_families_matches_dense_oracle_on_corrupted_maps(name, field):
    g = _verification_graph(name)
    out, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace, field=field_from_name(field))
    cases = [("intact", fwd, bwd)]
    cases += [(f"forward {k}", m, bwd) for k, m in _corruptions(fwd, g).items()]
    cases += [(f"backward {k}", fwd, m) for k, m in _corruptions(bwd, out).items()]
    for label, f, b in cases:
        result = verify_families(f, b)
        expected = dense_family_verification(g, out, f, b)
        assert (result.ok, result.counts, result.failures) == expected, label
        assert result.ok == (label == "intact"), label


def test_verify_families_work_is_linear_in_vertices(monkeypatch):
    # products of images rewrite only at the junction and a round trip is
    # compared with its letter, so no word is normalized and no memo grows
    n = 300
    g = weighted_ring(n, {0: 2, 100: 3, 200: 2})
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)
    algebras = [fwd.target, bwd.target]
    memo_sizes = [(len(a._memo_left), len(a._memo_right)) for a in algebras]

    calls = 0
    original = Algebra._nf_word

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "_nf_word", counted)
    result = verify_families(fwd, bwd)
    assert result.ok
    assert result.counts["forward_relations"] >= n * n
    assert calls == 0
    assert [(len(a._memo_left), len(a._memo_right)) for a in algebras] == memo_sizes


def test_verify_families_makes_one_product_per_relation_pair_and_extra_round_trip_letter(
        monkeypatch):
    g = weighted_ring(300, {0: 2, 100: 3, 200: 2})
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)
    expected = 0
    for fmap in (fwd, bwd):
        images, target, graph = fmap.images, fmap.target, fmap.domain.graph
        n = len(graph.vertices)
        # (i): u v is built for v = u and where a word of u's image ends at a start of v's
        ends = [{target._rng_id[w[-1]] for w in images[i]} for i in range(n)]
        starts = [{target._src_id[w[0]] for w in images[j]} for j in range(n)]
        expected += sum(i == j or not ends[i].isdisjoint(starts[j])
                        for i in range(n) for j in range(n))
        # (ii)-(iv): one product per letter pair of each instance
        expected += sum(len(word) == 2 for label, terms in relation_instances(graph)
                        if not label.startswith("(i) ") for _, word in terms)
        # a round trip of n letters makes n - 1 products, a one-letter one none
        expected += sum(len(word) - 1 for image in images for word in image)
    calls = []
    original = Algebra._product
    monkeypatch.setattr(Algebra, "_product",
                        lambda self, left, right: calls.append(1) or original(self, left, right))
    assert verify_families(fwd, bwd).ok
    assert len(calls) == expected


def _count_generators(monkeypatch) -> list:
    """A list that grows by one per :class:`Generator` built while ``monkeypatch`` holds.

    The patched ``__init__`` forwards nothing: the tuple's ``__new__`` has
    already made the Generator, and ``object.__init__`` takes no fields.
    As a positive control, ``Algebra._generators`` must count one per
    letter before the list is handed out empty.
    """
    built = []
    monkeypatch.setattr(Generator, "__init__", lambda self, *args, **kwargs: built.append(args))
    control = Algebra(fixture_graph("e2loops.wg"))
    control._generators()
    assert len(built) == len(control._id_of) > 0
    built.clear()
    return built


def test_verify_families_builds_no_generator_per_relation_instance(monkeypatch):
    # each map is read through one table over the letter ids of its domain
    g = weighted_ring(300, {0: 2, 100: 3, 200: 2})
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)

    built = _count_generators(monkeypatch)
    result = verify_families(fwd, bwd)
    assert result.ok
    assert result.counts["forward_relations"] >= 300 * 300
    assert len(built) == 0


def test_family_maps_builds_no_generator_per_image(monkeypatch):
    # each image is built over letter ids from the case table, no normalize call
    g = weighted_ring(300, {0: 2, 100: 3, 200: 2})
    _, trace = to_unweighted(g)

    calls = {"normalize": 0}
    original_normalize = Algebra.normalize

    def counted_normalize(self, *args, **kwargs):
        calls["normalize"] += 1
        return original_normalize(self, *args, **kwargs)

    built = _count_generators(monkeypatch)
    monkeypatch.setattr(Algebra, "normalize", counted_normalize)
    fwd, bwd = family_maps(trace)
    monkeypatch.undo()
    assert len(built) == 0
    assert calls["normalize"] == 0
    assert verify_families(fwd, bwd).ok


def _bench_graph(monkeypatch, family, n):
    """The graph of the benchmark's ``family`` case of ``n`` vertices at seed 7."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # dataclasses look their module up
    spec.loader.exec_module(gen)
    return parse_weighted_graph(gen.cases(7, [(family, n)])[0].text)


def test_algebra_build_and_transform_verify_build_no_generator(monkeypatch):
    # letters are ids inside the package; a Generator is made only for output
    sat = _bench_graph(monkeypatch, "sat", 960)
    ring = serialize_weighted_graph(weighted_ring(300, {0: 2, 100: 3, 200: 2}))

    built = _count_generators(monkeypatch)
    algebra = Algebra(sat)
    assert (len(algebra._id_of), len(built)) == (4608, 0)
    out = io.StringIO()
    code = cli.run(["transform", "--verify", "--input", "-"],
                   stdin=io.StringIO(ring), stdout=out, stderr=io.StringIO())
    assert (code, len(built)) == (0, 0)
    assert "# verify: ok\n" in out.getvalue()


@pytest.mark.parametrize("case", ["ring", "sat"])
def test_family_maps_and_verify_families_build_no_automaton(monkeypatch, case):
    # only a walk of nod-words reads the automaton, and checking a compilation walks none
    if case == "ring":
        g = weighted_ring(300, {0: 2, 100: 3, 200: 2})
    else:
        g = _bench_graph(monkeypatch, "sat", 120)
    _, trace = to_unweighted(g)
    fwd, bwd = family_maps(trace)
    assert verify_families(fwd, bwd).ok
    assert (fwd.domain._succ_table, fwd.target._succ_table) == (None, None)


def test_family_maps_composes_only_the_backward_words_of_two_letters_or_more(monkeypatch):
    # a one-letter backward word (cases M, A, C, D) is its own support
    _, trace = to_unweighted(fixture_graph("g6.wg"))
    vertex_cases, edge_cases = unweighting_module._stage2_cases(trace.stage1_graph, trace.gv)
    cases = [case for case, _, _ in vertex_cases + edge_cases]
    assert {"M", "N", "A", "B", "C", "D"} <= set(cases)
    calls = []
    original = unweighting_module._compose
    monkeypatch.setattr(unweighting_module, "_compose",
                        lambda *args: calls.append(args) or original(*args))
    fwd, bwd = family_maps(trace)
    assert len(calls) == cases.count("N") + cases.count("B")
    assert verify_families(fwd, bwd).ok


@st.composite
def _lpa_graphs(draw):
    """A multigraph satisfying (LPA), parallel edges and self-loops included, or a built one."""
    if draw(st.booleans()):
        g = draw(multigraphs())
        assume(check_lpa(g).satisfied)
        return g
    return random_lpa_satisfying_graph(Random(draw(st.integers(0, 2**32))))


@settings(max_examples=150, deadline=None, database=None)
@given(_lpa_graphs())
@example(fixture_graph("g6.wg"))
@example(fixture_graph("twoparallel.wg"))
def test_stage2_and_family_maps_match_the_reference(g):
    stage2, trace = to_unweighted(g)
    assert stage2 == reference_unweight_sunk(trace.stage1_graph)
    for field in (RATIONALS, PrimeField(7)):
        maps, expected = family_maps(trace, field), reference_family_maps(trace, field)
        for m, ref in zip(maps, expected):
            assert [list(image.items()) for image in m.images] == \
                [list(image.items()) for image in ref.images]


def test_family_maps_builds_no_edge_record(monkeypatch):
    # the stage-2 pieces are named and built only by unweight_sunk
    _, trace = to_unweighted(fixture_graph("g6.wg"))
    built = []
    monkeypatch.setattr(unweighting_module, "EdgeRecord",
                        lambda *args: built.append(args) or EdgeRecord(*args))
    fwd, bwd = family_maps(trace)
    assert built == []
    assert verify_families(fwd, bwd).ok
    unweight_sunk(trace.stage1_graph)  # the count sees what unweight_sunk builds
    assert len(built) == len(trace.stage2_graph.edges)


@settings(max_examples=60, deadline=None, database=None)
@given(_lpa_graphs())
@example(fixture_graph("g6.wg"))
def test_family_maps_read_stage_1_off_the_stage_1_graph(g):
    # neither Z, the g^v map nor a strand name is read: stage 1 and g^v are
    # read off h, letters by position, so a wrong or empty Z or g^v map is ignored
    _, trace = to_unweighted(g)
    expected = family_maps(trace)
    with pytest.MonkeyPatch.context() as patch:
        def no_name(*args):
            raise AssertionError("family_maps made a strand name")
        patch.setattr(unweighting_module, "strand_name", no_name)
        traces = [trace._replace(Z=()), trace._replace(gv_map=(("t", "f"),)),
                  trace._replace(gv_map=(("x", "f"), ("t", "a"))), trace._replace(gv_map=()),
                  trace]
        for maps in map(family_maps, traces):
            for m, ref in zip(maps, expected):
                assert [list(image.items()) for image in m.images] == \
                    [list(image.items()) for image in ref.images]
