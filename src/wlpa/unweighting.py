"""Compile weighted graphs satisfying Condition (LPA) to unweighted graphs.

The compilation runs in two stages.  Stage 1 reverses every edge emitted
inside Z = T(r(E1w)) into weight-1 strands, after which the ranges of the
weighted edges are sinks and no vertex emits or receives two distinct
weighted edges.  Stage 2 splits each weighted-edge range into one vertex
copy per strand and rewires: unweighted edges into those ranges fan out
over the copies, the first strand of a weighted edge keeps its direction
and the higher strands are reversed.  Constructed names append ``^(i)`` to
the original token, with an extra pair of parentheses when the token
already carries a superscript.

Both stages come with explicit generator correspondences between the two
algebras (:func:`family_maps`), kept as tables over letter ids
(:class:`FamilyMap`); :func:`verify_families` checks the defining
relations and the round trips on those tables, reading relations (iii)
and (iv) off each domain algebra's rule table.  The trace of a compilation
carries all three graphs, so the maps are built from the trace alone: they
read stage 1 and g^v off the stage-1 graph (a trace's Z and g^v map are
output only) and reuse the (LPA) decision; the check reads the graphs from
the maps' algebras.  One case table (:func:`_stage2_cases`) of cases and
positions builds both the stage-2 graph and the maps: :func:`unweight_sunk`
alone names the pieces, and the maps read every letter by position.  Each
stage-2 vertex or edge fixes its own backward image, reduced where it is
composed, and adds one letter to a forward image.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .algebra import (
    Algebra,
    MixedContextError,
    _compose,
    _involute,
    _label,
    _relation_failures,
    _remainder_survives,
)
from .fields import RATIONALS
from .graphs import EdgeRecord, Graph, WeightedGraph, tree, weighted_edges
from .lpa import LpaReport, _decide_lpa, check_lpa


class LpaViolatedError(ValueError):
    def __init__(self, report: LpaReport):
        super().__init__("graph violates Condition (LPA):\n" + report.describe())
        self.report = report


class PreconditionViolatedError(ValueError):
    def __init__(self, clause: str):
        super().__init__(f"precondition violated: {clause}")
        self.clause = clause


class ReservedIdError(ValueError):
    pass


def strand_name(base: str, i: int) -> str:
    """The name of the i-th constructed strand of ``base``.

    Bases that already carry a superscript are parenthesized first, so
    repeated construction stays collision-free: ``h -> h^(1) -> (h^(1))^(2)``.
    """
    if "^(" in base:
        return f"({base})^({i})"
    return f"{base}^({i})"


def _reject_reserved_ids(g: WeightedGraph) -> None:
    for v in g.vertices:
        if "^(" in v:
            raise ReservedIdError(f"input vertex id {v!r} uses the reserved '^(' marker")
    for e in g.edges:
        if "^(" in e.id:
            raise ReservedIdError(f"input edge id {e.id!r} uses the reserved '^(' marker")


class TransformTrace(NamedTuple):
    """Intermediate data of the two-stage compilation of ``source``."""

    source: WeightedGraph
    stage1_graph: WeightedGraph
    stage2_graph: Graph
    Z: tuple[str, ...]
    gv_map: tuple[tuple[str, str], ...]  # (range vertex, its weighted edge)

    @property
    def gv(self) -> dict[str, str]:
        return dict(self.gv_map)

    def to_records(self) -> dict:
        return {
            "Z": list(self.Z),
            "gv": {v: e for v, e in self.gv_map},
        }


def make_ranges_sinks(g: WeightedGraph) -> WeightedGraph:
    """Stage 1: reverse all edges emitted inside Z into weight-1 strands.

    Every edge e with source in Z is replaced by edges e^(1) .. e^(w(e))
    from r(e) to s(e) of weight 1; other edges are copied unchanged.  Z is
    the search that decided (LPA) (:func:`~wlpa.lpa._decide_lpa`), and only
    a failing graph gets its :func:`check_lpa` report.  The stage-1
    postconditions are re-verified at runtime; their failure would
    indicate a bug, not bad input.
    """
    zone, satisfied = _decide_lpa(g)
    if not satisfied:
        raise LpaViolatedError(check_lpa(g))
    _reject_reserved_ids(g)
    out_edges: list[EdgeRecord] = []
    for e in g.edges:
        if e.source in zone:
            for i in range(1, e.weight + 1):
                out_edges.append(EdgeRecord(strand_name(e.id, i), e.range, e.source, 1))
        else:
            out_edges.append(e)
    result = WeightedGraph(g.vertices, out_edges)
    try:
        _sunk_preconditions(result)
    except PreconditionViolatedError as exc:
        raise RuntimeError(f"stage-1 postcondition failed: {exc.clause}") from exc
    return result


def _sunk_preconditions(g: WeightedGraph) -> dict[str, str]:
    """Check the stage-2 preconditions; return the range -> weighted edge map.

    One pass over the weighted edges (weight > 1), in graph order, lists
    the ids each vertex emits and receives.  The first fault is the one a
    walk of the vertices in graph order meets first, at a vertex emitting
    two weighted edges before one receiving two, and the two ids named are
    the vertex's first two in graph order.  Only then is each weighted
    edge's range, in graph order, checked to be a sink.
    """
    emits: dict[str, list[str]] = {}
    receives: dict[str, list[str]] = {}
    for e in g.edges:
        if e.weight > 1:
            emits.setdefault(e.source, []).append(e.id)
            receives.setdefault(e.range, []).append(e.id)
    index = g._vertex_index
    faults = [(index[v], 0, v, ids) for v, ids in emits.items() if len(ids) > 1]
    faults += [(index[v], 1, v, ids) for v, ids in receives.items() if len(ids) > 1]
    if faults:
        _, received, v, ids = min(faults)  # (vertex index, kind) is unique
        verb = "receives" if received else "emits"
        raise PreconditionViolatedError(
            f"vertex {v!r} {verb} two distinct weighted edges ({ids[0]!r}, {ids[1]!r})"
        )
    out = g._out
    for v, (eid,) in receives.items():  # one weighted edge per range, in graph order
        if out[v]:
            raise PreconditionViolatedError(
                f"range {v!r} of weighted edge {eid!r} is not a sink"
            )
    return {v: eid for v, (eid,) in receives.items()}


def _stage2_cases(g: WeightedGraph, gv: dict[str, str]):
    """The stage-2 cases of each vertex and edge of ``g``, in graph order.

    Returns ``(vertices, edges)``: ``vertices`` holds ``(case, k, i)`` for
    the k-th vertex of ``g`` with case M (kept) or N (strand copy ``i`` of
    a vertex in r(E1w)), ``edges`` holds ``(case, k, i)`` for the k-th edge
    with case A (unchanged copy), B (fan strand ``i`` into a split range),
    C (first strand of a weighted edge) or D (reversed higher strand
    ``i``).  Only :func:`unweight_sunk` names the pieces.
    """
    vertices: list[tuple[str, int, int]] = []
    for k, v in enumerate(g.vertices):
        if v in gv:
            w = g.edge(gv[v]).weight
            vertices.extend(("N", k, i) for i in range(1, w + 1))
        else:
            vertices.append(("M", k, 0))
    edges: list[tuple[str, int, int]] = []
    for k, e in enumerate(g.edges):
        if e.weight > 1:
            edges.append(("C", k, 1))
            edges.extend(("D", k, i) for i in range(2, e.weight + 1))
        elif e.range in gv:
            w = g.edge(gv[e.range]).weight
            edges.extend(("B", k, i) for i in range(1, w + 1))
        else:
            edges.append(("A", k, 1))
    return vertices, edges


def unweight_sunk(g: WeightedGraph) -> Graph:
    """Stage 2: split weighted-edge ranges into strand copies and rewire.

    Requires that the ranges of the weighted edges are sinks and that no
    vertex emits or receives two distinct weighted edges.  Vertices in
    r(E1w) are replaced in place by copies v^(1) .. v^(w(g^v)); each edge
    produces its fan (B), first strand (C), reversed higher strands (D) or
    an unchanged copy (A), each piece named here and nowhere else.
    """
    vertex_cases, edge_cases = _stage2_cases(g, _sunk_preconditions(g))
    names = g.vertices
    vertices = [names[k] if case == "M" else strand_name(names[k], i)
                for case, k, i in vertex_cases]
    edges = []
    for case, k, i in edge_cases:
        e = g.edges[k]
        if case == "A":
            edges.append(EdgeRecord(e.id, e.source, e.range))
        elif case == "D":
            edges.append(EdgeRecord(strand_name(e.id, i), strand_name(e.range, i), e.source))
        else:  # B and C run from the source into the i-th copy of the range
            edges.append(EdgeRecord(strand_name(e.id, i), e.source, strand_name(e.range, i)))
    return Graph(vertices, edges)


def to_unweighted(g: WeightedGraph) -> tuple[Graph, TransformTrace]:
    """Full compilation of an LPA-satisfying weighted graph.

    Returns the unweighted graph together with the trace (stage graphs, Z
    and the g^v map of the stage-1 output).  Z is searched again for the
    trace, since :func:`make_ranges_sinks` returns only its graph.
    """
    stage1 = make_ranges_sinks(g)  # decides (LPA) and rejects reserved ids
    stage2 = unweight_sunk(stage1)
    gv_pairs = tuple((e.range, e.id) for e in weighted_edges(stage1))
    zone = tree(g, [e.range for e in weighted_edges(g)])
    return stage2, TransformTrace(g, stage1, stage2, zone, gv_pairs)


class FamilyMap(NamedTuple):
    """A generator-by-generator map, as a table over the letter ids of ``domain``.

    ``images[t]`` is the support in ``target`` of the image of letter t.
    """

    direction: str  # "forward" | "backward"
    domain: Algebra
    target: Algebra
    images: tuple[dict, ...]


def family_maps(trace: TransformTrace, field=RATIONALS) -> tuple[FamilyMap, FamilyMap]:
    """The mutually inverse generator assignments of the compilation ``trace``.

    The forward map sends the generators of the algebra of the source g to
    elements of the algebra of the stage-2 graph g~; the backward map goes
    the other way.  Both algebras are built here, over ``field``, and every
    letter is read by position from their layouts: vertex k is letter k and
    an edge's strands sit at its base.  Stage 1 is read off the stage-1
    graph h, walking g's edges in step with h's: h kept e, or e's w
    reversed strands stand in its place, the i-th swapping e_i and e_i^*.
    Then one pass over the stage-2 case table that built g~, with g^v read
    off h as in :func:`unweight_sunk`, gives each piece the position in h of
    its vertex or edge.  No name is made or looked up, and the trace's Z and
    g^v map are output only.  A forward image is a sum of single target
    letters with coefficient 1, so it needs no reduction.  A backward image
    is a word of at most three source letters: one letter (cases M, A, C and
    D) is a nod-word and its own support, and a longer word (cases N and B)
    is one :func:`~wlpa.algebra._compose` over the letters' one-word
    supports, reduced into the field where it is made.  Nothing is
    normalized, so the memos of both algebras stay empty.  A star image is
    the involute of its edge's, taken on the support.  The trace is read as
    :func:`to_unweighted` returned it, without deciding (LPA) or running
    stage 1 again; :func:`verify_families` checks the maps whatever trace
    they were built from.
    """
    g, h = trace.source, trace.stage1_graph
    src, tgt = Algebra(g, field=field), Algebra(trace.stage2_graph, field=field)

    # stage 1: strands[k] holds the (edge, star) ids in ``src`` of the
    # strands of h's k-th edge; into[v] those of the weighted edge into v
    strands: list[list[tuple[int, int]]] = []
    into: dict[int, list[tuple[int, int]]] = {}
    for e, b in zip(g.edges, src._edge_base):
        pairs = [(a, a + e.weight) for a in range(b, b + e.weight)]
        if h.edges[len(strands)].id == e.id:  # h kept e
            strands.append(pairs)
            if e.weight > 1:
                into[src._rng_id[b]] = pairs
        else:  # e^(i) reverses e_i, so it swaps the pair
            strands.extend([(star, edge)] for edge, star in pairs)

    # supports indexed by letter id: each stage-2 piece adds its target
    # letter to the forward image of its source letter and fixes its own
    # backward image, one product of at most three source letters
    letters = [{(t,): 1} for t in range(len(src._src_id))]
    reduce = field.reduce

    def composed(word):  # forward coefficients are 1, so only these are reduced
        return {w: r for w, c in _compose([(word, 1)], letters, src).items() if (r := reduce(c))}

    forward: list[dict] = [{} for _ in src._src_id]
    backward: list[dict] = [{} for _ in tgt._src_id]
    vertex_cases, edge_cases = _stage2_cases(h, _sunk_preconditions(h))
    for t, (case, s, i) in enumerate(vertex_cases):
        forward[s][t,] = 1
        if case == "M":
            backward[t] = {(s,): 1}
        else:  # (g^v_i)* g^v_i
            backward[t] = composed(into[s][i - 1][::-1])
    for t, (case, k, i) in zip(tgt._edge_base, edge_cases):  # t is e_1, t + 1 e_1^*
        edge, star = strands[k][0 if case == "B" else i - 1]
        forward[edge][tgt._star_of[t] if case == "D" else t,] = 1
        if case == "B":  # e_1 (g_i)* g_i, for g the weighted edge into r(e)
            backward[t] = composed((edge,) + into[src._rng_id[edge]][i - 1][::-1])
        else:  # a letter is a nod-word: e_1 (A, C) or e_i^* (D)
            backward[t] = {(star if case == "D" else edge,): 1}
        backward[tgt._star_of[t]] = _involute(backward[t], src._star_of)

    # the maps are *-homomorphisms: each forward star image is the involute
    # of its edge's, as each backward one is above
    for edge, star in chain.from_iterable(strands):
        forward[star] = _involute(forward[edge], tgt._star_of)
    return (FamilyMap("forward", src, tgt, tuple(forward)),
            FamilyMap("backward", tgt, src, tuple(backward)))


class FamilyVerification(NamedTuple):
    ok: bool
    counts: dict
    failures: tuple[str, ...]

    def to_records(self) -> dict:
        return {
            "ok": self.ok,
            "counts": dict(self.counts),
            "failures": list(self.failures),
        }


def verify_families(fwd: FamilyMap, bwd: FamilyMap) -> FamilyVerification:
    """Mechanically verify that the two family maps are mutually inverse.

    ``fwd`` maps the algebra of a graph g into the algebra of a graph g~
    and ``bwd`` maps back: ``bwd.domain`` must be the very algebra
    ``fwd.target`` and ``bwd.target`` the very ``fwd.domain``, over one
    field, or :class:`MixedContextError` is raised, as for elements of
    different algebras.  g and g~ are read from those algebras.  Checks
    that the forward images satisfy every defining relation of g inside
    the algebra of g~, that the backward images satisfy the relations of
    g~ inside the algebra of g, and that both round trips fix every
    generator.  Checking the round trips on generators suffices because
    the generators generate.

    ``fwd.direction`` must be "forward" and ``bwd.direction`` "backward",
    or :class:`MixedContextError` is raised: swapped maps would check the
    relations of g~ as forward ones.

    Each map is read as it is kept, a table over the letter ids of its
    domain.  The relations are checked by
    :func:`~wlpa.algebra._relation_failures`, on the domain algebra: each
    instance is a sum of letter-id pairs and a right-hand letter, (i) and
    (ii) read off the domain's letter tables and (iii) and (iv) off its
    rule table, one instance per rule, and is evaluated with one product
    per pair.  Each round trip is one
    :func:`~wlpa.algebra._compose` of the items of the letter's image, n - 1
    products for a word of n letters.  Either holds at once when its value
    is exactly the right-hand side (for a round trip the letter with
    coefficient 1), and otherwise when every coefficient of the difference
    reduces to zero.  Nothing is normalized.  A label is rendered, and a
    generator built, only for a failure.  Counts and failure labels are
    those of evaluating every item of :func:`relation_instances`.
    """
    src, tgt = fwd.domain, fwd.target
    if bwd.domain is not tgt or bwd.target is not src or src.field != tgt.field:
        raise MixedContextError("family maps are not between the same two algebras")
    if (fwd.direction, bwd.direction) != ("forward", "backward"):
        raise MixedContextError(
            f"expected a forward and a backward map, got {fwd.direction} and {bwd.direction}")

    checked_fwd, failed_fwd = _relation_failures(src, fwd.images, tgt)
    checked_bwd, failed_bwd = _relation_failures(tgt, bwd.images, src)
    failures = [f"forward {label}" for label in failed_fwd]
    failures += [f"backward {label}" for label in failed_bwd]
    counts = {
        "forward_relations": checked_fwd,
        "backward_relations": checked_bwd,
        "roundtrip_source": len(fwd.images),
        "roundtrip_target": len(bwd.images),
    }

    reduce = src.field.reduce
    for side, there, back in (("source", fwd, bwd), ("target", bwd, fwd)):
        for t, image in enumerate(there.images):
            value, letter = _compose(image.items(), back.images, back.target), {(t,): 1}
            if value != letter and _remainder_survives(value, letter, reduce):
                token = there.domain._generators()[t].token()
                failures.append(_label(("roundtrip {} {}", side, token)))

    return FamilyVerification(
        ok=not failures, counts=counts, failures=tuple(failures)
    )
