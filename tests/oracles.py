"""Independent oracles the test-suite checks the package against.

Everything here recomputes results from the raw graph structure without
going through the package's rewriting engine, so agreement between the two
sides is meaningful.
"""

from __future__ import annotations

import math
import re
from collections import deque
from itertools import product
from typing import Optional, Union

from wlpa import (
    RATIONALS,
    Algebra,
    AlgebraElement,
    AlgebraError,
    BadWeightError,
    DanglingEndpointError,
    DuplicateIdError,
    EdgeRecord,
    FamilyMap,
    Generator,
    Graph,
    GraphError,
    GraphPath,
    GraphSyntaxError,
    LpaReport,
    LpaViolation,
    PreconditionViolatedError,
    SpecialEdgeChoice,
    WeightedGraph,
    Word,
    cyclic_components,
    reaches,
    shortest_cycle,
    strand_name,
    weighted_edges,
)
from wlpa.algebra import _compose, _involute, _lower, _relation_failures
from wlpa.exprs import MAX_NESTING, ExpressionError
from wlpa.fields import FieldError
from wlpa.graphs import breadth_first, parse_natural, path_to
from wlpa.lpa import _keylemma_word_from_cycle


# -- graph primitives ---------------------------------------------------------


def out_edges(g: WeightedGraph, v: str) -> tuple[EdgeRecord, ...]:
    """The edges emitted by the vertex ``v`` of ``g``, in graph order."""
    g._require_vertex(v)
    return tuple(g._out[v])


def is_sink(g: WeightedGraph, v: str) -> bool:
    """True iff the vertex ``v`` of ``g`` emits no edge."""
    return not out_edges(g, v)


def vertex_weight(g: WeightedGraph, v: str) -> int:
    """Maximum weight among the edges emitted by ``v``; 0 for a sink."""
    return max((e.weight for e in out_edges(g, v)), default=0)


def in_edges(g: WeightedGraph, v: str) -> tuple[EdgeRecord, ...]:
    """The edges received by the vertex ``v`` of ``g``, in graph order."""
    return tuple(e for e in g.edges if e.range == v)


def path_source(g: WeightedGraph, p: GraphPath) -> str:
    """The first vertex of the path ``p`` of ``g``."""
    return p.vertex if p.vertex is not None else g.edge(p.edges[0]).source


def path_range(g: WeightedGraph, p: GraphPath) -> str:
    """The last vertex of the path ``p`` of ``g``."""
    return p.vertex if p.vertex is not None else g.edge(p.edges[-1]).range


EdgeLike = Union[str, EdgeRecord]


def _edge_record(g: WeightedGraph, e: EdgeLike) -> EdgeRecord:
    return g.edge(e.id if isinstance(e, EdgeRecord) else e)


def in_line(g: WeightedGraph, e: EdgeLike, f: EdgeLike) -> bool:
    """True iff e = f, or r(e) reaches s(f), or r(f) reaches s(e)."""
    er = _edge_record(g, e)
    fr = _edge_record(g, f)
    if er.id == fr.id:
        return True
    return reaches(g, er.range, fr.source) or reaches(g, fr.range, er.source)


# -- reachability and cycles --------------------------------------------------


def transitive_closure(g: WeightedGraph) -> set[tuple[str, str]]:
    """All reachable ordered pairs, via iterated relation squaring."""
    pairs = {(v, v) for v in g.vertices}
    pairs |= {(e.source, e.range) for e in g.edges}
    while True:
        extra = {
            (a, d)
            for (a, b) in pairs
            for (c, d) in pairs
            if b == c and (a, d) not in pairs
        }
        if not extra:
            return pairs
        pairs |= extra


def brute_force_cycles(g: WeightedGraph, v: str) -> set[tuple[str, ...]]:
    """All cycles based at v, by filtering every edge sequence up to |E^0|."""
    out: set[tuple[str, ...]] = set()
    ids = [e.id for e in g.edges]
    for length in range(1, len(g.vertices) + 1):
        for seq in product(ids, repeat=length):
            records = [g.edge(x) for x in seq]
            if records[0].source != v or records[-1].range != v:
                continue
            if any(a.range != b.source for a, b in zip(records, records[1:])):
                continue
            sources = [r.source for r in records]
            if len(set(sources)) != len(sources):
                continue
            out.add(seq)
    return out


def brute_force_lpa4_sites(g: WeightedGraph) -> list[tuple[str, str, int]]:
    """``(e, base, length)`` for each LPA4 site, as ``check_lpa`` must list them.

    For a weighted edge e, a vertex of T(r(e)) is cyclic when one of its
    out-edges other than e leads back to it without e; two cyclic vertices
    share a site when each reaches the other without e.  Reachability is
    the transitive closure, with and without e.  The base of a site is its
    first vertex in graph order, and ``length`` is the length of the
    shortest brute-force cycle through the base that avoids e.  Sites are
    listed per weighted edge in graph order, then by base.
    """
    closure = transitive_closure(g)
    sites = []
    for e in g.edges:
        if e.weight == 1:
            continue
        without = transitive_closure(
            WeightedGraph(g.vertices, [f for f in g.edges if f.id != e.id])
        )
        cyclic = [
            v for v in g.vertices
            if (e.range, v) in closure
            and any(f.id != e.id and f.source == v and (f.range, v) in without
                    for f in g.edges)
        ]
        for i, v in enumerate(cyclic):
            if any((u, v) in without and (v, u) in without for u in cyclic[:i]):
                continue
            length = min(len(c) for c in brute_force_cycles(g, v) if e.id not in c)
            sites.append((e.id, v, length))
    return sites


def reference_check_lpa(g: WeightedGraph) -> LpaReport:
    """The (LPA) report as ``check_lpa`` must give it, one condition at a time.

    No linear decision first: every graph goes through the four scans.  Each
    weighted edge gets its own search, its range tree in graph order and
    its own strongly-connected-components pass over T(r(e)) - e, and every
    pair of weighted edges is tested, so this costs
    Theta(k*(V+E) + k*V + k^2) for k weighted edges.
    """
    violations: list[LpaViolation] = []
    heavy = weighted_edges(g)
    searches = [breadth_first(g, [e.range]) for e in heavy]
    trees = [[v for v in g.vertices if v in reached] for reached in searches]

    for v in g.vertices:
        emitted = [e.id for e in out_edges(g, v) if e.weight > 1]
        if len(emitted) > 1:
            violations.append(
                LpaViolation(kind="LPA1", vertex=v, edges=(emitted[0], emitted[1]))
            )

    for v in g.vertices:
        out = out_edges(g, v)
        if len(out) < 2:
            continue
        # v is in the zone iff some search reached it; the first one is the witness
        for e, reached in zip(heavy, searches):
            if v in reached:
                violations.append(
                    LpaViolation(
                        kind="LPA2",
                        weighted_edge=e.id,
                        path=path_to(reached, v),
                        vertex=v,
                        edges=(out[0].id, out[1].id),
                    )
                )
                break

    for i, e in enumerate(heavy):
        for j in range(i + 1, len(heavy)):
            f = heavy[j]
            if f.source in searches[i] or e.source in searches[j]:
                continue  # e and f are in line
            common = next((v for v in trees[i] if v in searches[j]), None)
            if common is not None:
                violations.append(
                    LpaViolation(kind="LPA3", edges=(e.id, f.id), vertex=common)
                )

    for e, reached in zip(heavy, searches):
        # a cycle avoiding e lies in T(r(e)) - e; one site per component
        for component in cyclic_components(g, reached, avoid=e.id):
            base = component[0]
            violations.append(
                LpaViolation(
                    kind="LPA4",
                    weighted_edge=e.id,
                    path=path_to(reached, base),
                    cycle=shortest_cycle(g, base, component, avoid=e.id),
                )
            )

    return LpaReport(satisfied=not violations, violations=tuple(violations))


def reference_witness(g: WeightedGraph,
                      choice: Optional[SpecialEdgeChoice] = None) -> Word:
    """The word ``witness_nodpath`` must give for a graph failing (LPA).

    Read off the whole report: the first LPA4 violation of
    :func:`reference_check_lpa` made into a word, or else the nod-word
    search in the algebra of ``choice``.
    """
    report = reference_check_lpa(g)
    assert not report.satisfied, "a graph satisfying (LPA) has no witness"
    for violation in report.violations:
        if violation.kind == "LPA4":
            return _keylemma_word_from_cycle(g, violation)
    return _search_shape_word(Algebra(g, choice))


def _search_shape_word(algebra: Algebra) -> Optional[Word]:
    """The word ``search_shape_word`` must give, over the automaton of ``algebra``.

    A breadth-first search for a nod-word e.2 ... e.2* over a weighted e,
    through ``algebra._succ``, in increasing length up to the fixed length
    bound 2*|vertices|*max weight + 2.  Extension legality only depends on
    the last letter, so the frontier is deduplicated per letter; any
    automaton path lifts back to a valid nod-word.  Returns the first
    witness found, scanning weighted edges in graph order, or None.
    """
    g = algebra.graph
    bound = 2 * len(g.vertices) * max(e.weight for e in g.edges) + 2

    id_of, succ, normal = algebra._id_of, algebra._succ, algebra._is_normal
    for e in weighted_edges(g):
        start, last = id_of["edge", e.id, 2], id_of["star", e.id, 2]
        # parent links for path reconstruction, keyed by letter id
        parent: dict[int, Optional[int]] = {start: None}
        found = start if normal(start, last) else None
        queue = deque([(start, 1)])  # (letter id, length of its word)
        while queue and found is None:
            cur, length = queue.popleft()
            if length + 1 >= bound:
                continue
            for nxt in succ[cur]:
                if nxt in parent:
                    continue
                parent[nxt] = cur
                if normal(nxt, last):
                    found = nxt
                    break
                queue.append((nxt, length + 1))
        if found is not None:
            chain = [last, found]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            keys = list(id_of)
            return tuple(Generator(*keys[t]) for t in reversed(chain))
    return None


def violation_holds(g: WeightedGraph, violation: LpaViolation) -> bool:
    """Replay a witness from raw graph primitives."""
    try:
        if violation.kind == "LPA1":
            a, b = (g.edge(x) for x in violation.edges)
            return (
                a.id != b.id
                and a.weight > 1
                and b.weight > 1
                and a.source == violation.vertex
                and b.source == violation.vertex
            )
        if violation.kind == "LPA2":
            e = g.edge(violation.weighted_edge)
            validate_path(g, violation.path)
            a, b = (g.edge(x) for x in violation.edges)
            return (
                e.weight > 1
                and path_source(g, violation.path) == e.range
                and path_range(g, violation.path) == violation.vertex
                and a.id != b.id
                and a.source == violation.vertex
                and b.source == violation.vertex
            )
        if violation.kind == "LPA3":
            e, f = (g.edge(x) for x in violation.edges)
            return (
                e.weight > 1
                and f.weight > 1
                and not in_line(g, e, f)
                and reaches(g, e.range, violation.vertex)
                and reaches(g, f.range, violation.vertex)
            )
        if violation.kind == "LPA4":
            e = g.edge(violation.weighted_edge)
            validate_path(g, violation.path)
            cycle = violation.cycle
            validate_path(g, cycle)
            base = path_range(g, violation.path)
            records = [g.edge(x) for x in cycle.edges]
            sources = [rec.source for rec in records]
            return (
                e.weight > 1
                and path_source(g, violation.path) == e.range
                and len(cycle.edges) > 0
                and records[0].source == base
                and records[-1].range == base
                and len(set(sources)) == len(sources)
                and e.id not in cycle.edges
            )
    except ValueError:
        return False
    return False


def validate_path(g: WeightedGraph, p: GraphPath) -> None:
    """Raise unless consecutive edges of ``p`` compose inside ``g``."""
    if p.vertex is not None:
        g._require_vertex(p.vertex)
        return
    records = [g.edge(eid) for eid in p.edges]
    for a, b in zip(records, records[1:]):
        if a.range != b.source:
            raise GraphError(f"edges {a.id!r} and {b.id!r} do not compose")


# -- graph text and graph checks ----------------------------------------------

_GRAPH_ID_RE = re.compile(r"[A-Za-z0-9_^()]+\Z")


def reference_graph_tables(vertices, edges):
    """The lookup tables ``WeightedGraph(vertices, edges)`` must build, or its error.

    The checks run as one loop in input order: each vertex id and
    duplicate, then per edge its id, a duplicate, its source, its range and
    its weight, which must be an int and no bool; the first fault in that
    order is the error raised.
    Returns ``(vertex_index, edge_by_id, out, in)``.
    """
    ids: set[str] = set()
    for v in vertices:
        if not _GRAPH_ID_RE.match(v):
            raise GraphError(f"bad vertex id {v!r}")
        if v in ids:
            raise DuplicateIdError(f"duplicate id {v!r}")
        ids.add(v)
    index = {v: i for i, v in enumerate(vertices)}
    by_id: dict = {}
    out: dict = {v: [] for v in vertices}
    into: dict = {v: [] for v in vertices}
    for e in edges:
        if not _GRAPH_ID_RE.match(e.id):
            raise GraphError(f"bad edge id {e.id!r}")
        if e.id in ids:
            raise DuplicateIdError(f"duplicate id {e.id!r}")
        ids.add(e.id)
        if e.source not in index:
            raise DanglingEndpointError(f"edge {e.id!r}: unknown source {e.source!r}")
        if e.range not in index:
            raise DanglingEndpointError(f"edge {e.id!r}: unknown range {e.range!r}")
        if isinstance(e.weight, int) and type(e.weight) is not int:  # a bool is no weight
            raise BadWeightError(f"edge {e.id!r}: bad weight {e.weight!r}")
        if not isinstance(e.weight, int) or e.weight < 1:
            raise BadWeightError(f"edge {e.id!r}: weight {e.weight!r} < 1")
        by_id[e.id] = e
        out[e.source].append(e)
        into[e.range].append(e)
    return index, by_id, out, into


def reference_read_graph_text(text: str, expect_weight_one: bool = False):
    """``(vertices, edges)`` of a graph text, read one line at a time.

    Lines are the pieces of ``str.splitlines``; a line is blank, a
    ``#`` comment or a directive.  Tokens are the ``\\S+`` runs, which
    split at exactly the characters ``str.split`` splits at, and each
    error names its line and its token's own column.  Ids and weights are
    not checked against each other here: that is
    :func:`reference_graph_tables`.
    """
    vertices: list[str] = []
    edges: list[EdgeRecord] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        found = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw)]
        if not found or found[0][0].startswith("#"):
            continue
        words = [w for w, _ in found]
        if words[0] == "vertex":
            if len(words) != 2:
                raise GraphSyntaxError(lineno, 1, "expected: vertex <id>")
            ids = found[1:]
        elif words[0] == "edge":
            if len(words) not in (4, 5):
                raise GraphSyntaxError(lineno, 1, "expected: edge <id> <source> <range> [<weight>]")
            ids = found[1:4]
        else:
            raise GraphSyntaxError(lineno, found[0][1], f"unknown directive {words[0]!r}")
        for word, column in ids:
            if not _GRAPH_ID_RE.match(word):
                raise GraphSyntaxError(lineno, column, f"bad id {word!r}")
        if words[0] == "vertex":
            vertices.append(words[1])
            continue
        weight = 1
        if len(words) == 5:
            try:
                weight = parse_natural(words[4])
            except ValueError:
                raise GraphSyntaxError(lineno, found[4][1], f"bad weight {words[4]!r}") from None
        if expect_weight_one and weight != 1:
            raise BadWeightError(f"line {lineno}: edge {words[1]!r} has weight {weight} "
                                 "in an unweighted graph")
        edges.append(EdgeRecord(words[1], words[2], words[3], weight))
    return vertices, edges


# -- special edges and stage-2 preconditions ----------------------------------


def reference_default_special_edges(g: WeightedGraph) -> SpecialEdgeChoice:
    """For each non-sink vertex the first emitted edge of maximal weight, by public lookups."""
    pairs = []
    for v in g.vertices:
        out = out_edges(g, v)
        if not out:
            continue
        wv = vertex_weight(g, v)
        chosen = next(e for e in out if e.weight == wv)
        pairs.append((v, chosen.id))
    return SpecialEdgeChoice(tuple(pairs))


def reference_validate_choice(g: WeightedGraph, choice: SpecialEdgeChoice) -> None:
    """Check a special-edge choice vertex by vertex, each clause by its own lookups."""
    mapping = choice.mapping
    for v in g.vertices:
        if is_sink(g, v):
            if v in mapping:
                raise AlgebraError(f"special edge fixed for sink {v!r}")
            continue
        if v not in mapping:
            raise AlgebraError(f"no special edge fixed for non-sink {v!r}")
        e = g.edge(mapping[v])
        if e.source != v:
            raise AlgebraError(f"special edge {e.id!r} is not emitted by {v!r}")
        if e.weight != vertex_weight(g, v):
            raise AlgebraError(
                f"special edge {e.id!r} has weight {e.weight}, "
                f"not the maximal weight {vertex_weight(g, v)} at {v!r}"
            )


def reference_sunk_preconditions(g: WeightedGraph) -> dict[str, str]:
    """The stage-2 preconditions, vertex by vertex, then range by range; the range -> edge map."""
    gv: dict[str, str] = {}
    for v in g.vertices:
        emitted = [e for e in out_edges(g, v) if e.weight > 1]
        if len(emitted) > 1:
            raise PreconditionViolatedError(
                f"vertex {v!r} emits two distinct weighted edges "
                f"({emitted[0].id!r}, {emitted[1].id!r})"
            )
        received = [e for e in in_edges(g, v) if e.weight > 1]
        if len(received) > 1:
            raise PreconditionViolatedError(
                f"vertex {v!r} receives two distinct weighted edges "
                f"({received[0].id!r}, {received[1].id!r})"
            )
        if received:
            gv[v] = received[0].id
    for e in weighted_edges(g):
        if not is_sink(g, e.range):
            raise PreconditionViolatedError(
                f"range {e.range!r} of weighted edge {e.id!r} is not a sink"
            )
    return gv


# -- stage 2 and its family maps ---------------------------------------------


def _reference_stage2_pieces(g: WeightedGraph, gv: dict[str, str]):
    """``(name, case, v, i)`` per stage-2 vertex and ``(record, case, e, i)`` per edge.

    Each piece is named where its case is decided: M keeps ``v``, N is
    strand copy ``i`` of ``v`` in r(E1w); A copies ``e``, B fans strand
    ``i`` into a split range, C is the first strand of a weighted edge and
    D its reversed strand ``i``.
    """
    vertices = []
    for v in g.vertices:
        if v in gv:
            w = g.edge(gv[v]).weight
            vertices.extend((strand_name(v, i), "N", v, i) for i in range(1, w + 1))
        else:
            vertices.append((v, "M", v, 0))
    edges = []
    for e in g.edges:
        if e.weight > 1:
            edges.append((EdgeRecord(strand_name(e.id, 1), e.source, strand_name(e.range, 1)),
                          "C", e.id, 1))
            for i in range(2, e.weight + 1):
                edges.append((EdgeRecord(strand_name(e.id, i), strand_name(e.range, i), e.source),
                              "D", e.id, i))
        elif e.range in gv:
            w = g.edge(gv[e.range]).weight
            for i in range(1, w + 1):
                edges.append((EdgeRecord(strand_name(e.id, i), e.source, strand_name(e.range, i)),
                              "B", e.id, i))
        else:
            edges.append((EdgeRecord(e.id, e.source, e.range), "A", e.id, 1))
    return vertices, edges


def reference_unweight_sunk(g: WeightedGraph) -> Graph:
    """Stage 2 from the named pieces of :func:`_reference_stage2_pieces`."""
    vertices, edges = _reference_stage2_pieces(g, reference_sunk_preconditions(g))
    return Graph([name for name, *_ in vertices], [record for record, *_ in edges])


def reference_family_maps(trace, field=RATIONALS) -> tuple[FamilyMap, FamilyMap]:
    """The family maps of ``trace``, each stage-2 letter looked up by its name.

    The pieces are named again by :func:`_reference_stage2_pieces`; each
    backward image is reduced in a pass of its own after the last piece,
    and each star image is the involute of its edge's, set in a loop of its
    own.
    """
    g, h, g_tilde = trace.source, trace.stage1_graph, trace.stage2_graph
    gv = trace.gv
    src, tgt = Algebra(g, field=field), Algebra(g_tilde, field=field)
    src_id, tgt_id = src._id_of, tgt._id_of
    zone = set(trace.Z)
    relabel = {}
    for e in g.edges:
        for i in range(1, e.weight + 1):
            pair = (src_id["edge", e.id, i], src_id["star", e.id, i])
            if e.source in zone:
                relabel[strand_name(e.id, i), 1] = pair[::-1]
            else:
                relabel[e.id, i] = pair
    letters = [{(t,): 1} for t in range(len(src_id))]
    forward = [{} for _ in src_id]
    backward = [{} for _ in tgt_id]
    vertex_cases, edge_cases = _reference_stage2_pieces(h, gv)
    for name, case, v, i in vertex_cases:
        t, s = tgt_id["vertex", name, 0], src_id["vertex", v, 0]
        forward[s][t,] = 1
        if case == "M":
            backward[t] = {(s,): 1}
        else:
            backward[t] = _compose([(relabel[gv[v], i][::-1], 1)], letters, src)
    for record, case, eid, i in edge_cases:
        t = tgt_id["edge", record.id, 1]
        edge, star = relabel[eid, 1 if case == "B" else i]
        forward[edge][tgt._star_of[t] if case == "D" else t,] = 1
        if case == "B":
            word = (edge,) + relabel[gv[h.edge(eid).range], i][::-1]
            backward[t] = _compose([(word, 1)], letters, src)
        else:
            backward[t] = {(star if case == "D" else edge,): 1}
    for edge, star in relabel.values():
        forward[star] = _involute(forward[edge], tgt._star_of)
    reduce = field.reduce
    backward = [{w: r for w, c in image.items() if (r := reduce(c))} for image in backward]
    for t in tgt._nonvertex_ids[::2]:
        backward[tgt._star_of[t]] = _involute(backward[t], src._star_of)
    return (FamilyMap("forward", src, tgt, tuple(forward)),
            FamilyMap("backward", tgt, src, tuple(backward)))


def family_map_from(direction: str, domain: Algebra, target: Algebra,
                    images: dict[Generator, AlgebraElement]) -> FamilyMap:
    """The :class:`FamilyMap` with the given image of each generator of ``domain``.

    Raises as :func:`_lowered` does.
    """
    return FamilyMap(direction, domain, target, tuple(_lowered(images, domain, target)))


def images_by_generator(fmap: FamilyMap) -> dict[Generator, AlgebraElement]:
    """A new dict of the images of ``fmap`` by generator: editing it leaves the map as it is."""
    return {gen: AlgebraElement(fmap.target, image)
            for gen, image in zip(fmap.domain._generators(), fmap.images)}


# -- classical unweighted normal form -----------------------------------------


def classical_unweighted_count(g: WeightedGraph, choice, max_len: int) -> int:
    """Count the classical p q* monomials of an unweighted graph.

    Monomials are pairs of paths (p, q) with r(p) = r(q) and |p| + |q| in
    1..max_len, excluding pairs where p and q both end with the special
    edge of their common source, plus one monomial per vertex.
    """
    special = choice.mapping
    paths: dict[int, list[tuple[str, ...]]] = {0: []}
    by_len: list[list[tuple[tuple[str, ...], str, str]]] = [
        [((), v, v) for v in g.vertices]
    ]
    for length in range(1, max_len + 1):
        layer = []
        for seq, src, rng in by_len[length - 1]:
            for e in out_edges(g, rng):
                layer.append((seq + (e.id,), src, e.range))
        by_len.append(layer)

    count = len(g.vertices)
    for lp in range(0, max_len + 1):
        for lq in range(0, max_len + 1 - lp):
            if lp + lq == 0:
                continue
            for p_seq, _, p_rng in by_len[lp]:
                for q_seq, _, q_rng in by_len[lq]:
                    if p_rng != q_rng:
                        continue
                    if (
                        p_seq
                        and q_seq
                        and p_seq[-1] == q_seq[-1]
                        and special.get(g.edge(p_seq[-1]).source) == p_seq[-1]
                    ):
                        continue
                    count += 1
    return count


# -- letters and words by generator --------------------------------------------


def generator_endpoints(algebra: Algebra, gen: Generator) -> tuple[str, str]:
    """The source and range vertices of the letter ``gen`` of ``algebra``."""
    i, = algebra._intern_word((gen,))
    vertices = algebra.graph.vertices
    return vertices[algebra._src_id[i]], vertices[algebra._rng_id[i]]


def word_degree(algebra: Algebra, word) -> tuple[int, ...]:
    """The degree of a word of generators of ``algebra``."""
    return algebra._ids_degree(algebra._intern_word(word))


# -- length-2 factors -----------------------------------------------------------


class AllLetters:
    """Every letter of the presentation, vertex letters first, built from the
    graph alone in the package's canonical letter order.

    ``reducible(a, b)`` is the dense "pair is forbidden or non-composable"
    predicate: a pair with a vertex letter always rewrites (absorption or
    0), a pair with r(a) != s(b) is 0, and the forbidden factors are
    ``e_1^* f_1`` and ``s_i s_j^*`` for a special edge s.
    """

    def __init__(self, g: WeightedGraph, special: dict[str, str]):
        self.letters: list[tuple[str, str, int]] = []  # (kind, name, index)
        self.src: list[str] = []
        self.rng: list[str] = []
        for v in g.vertices:
            self._add(("vertex", v, 0), v, v)
        for e in g.edges:
            for i in range(1, e.weight + 1):
                self._add(("edge", e.id, i), e.source, e.range)
            for i in range(1, e.weight + 1):
                self._add(("star", e.id, i), e.range, e.source)
        # the special edge of each vertex; a key that is no vertex is ignored
        self.special_edges = {special[v] for v in g.vertices if v in special}

    def _add(self, letter, src, rng):
        self.letters.append(letter)
        self.src.append(src)
        self.rng.append(rng)

    def composable(self, a: int, b: int) -> bool:
        return self.rng[a] == self.src[b]

    def reducible(self, a: int, b: int) -> bool:
        kind_a, name_a, i = self.letters[a]
        kind_b, name_b, j = self.letters[b]
        if "vertex" in (kind_a, kind_b) or not self.composable(a, b):
            return True
        if (kind_a, kind_b) == ("star", "edge"):
            return i == 1 and j == 1
        return (kind_a, kind_b) == ("edge", "star") and name_a == name_b \
            and name_a in self.special_edges


def gk_dimension(g: WeightedGraph, choice: SpecialEdgeChoice) -> float:
    """The Gelfand-Kirillov dimension of the algebra of ``g`` under ``choice``.

    The nod-words are a basis, and a rewrite never makes a word longer, so
    the dimension is the growth degree of the number of nod-words of
    length <= n.  Those are the walks of the automaton whose states are
    the letters and whose transitions are the pairs that
    :meth:`AllLetters.reducible` leaves standing.  They grow exponentially,
    and the dimension is infinite, iff some strongly connected component
    has more internal transitions than letters, that is two distinct
    cycles.  Otherwise each cyclic component is one cycle, and the count
    grows like n^d, for d the largest number of cyclic components on one
    path of the condensation.  The components come from one pass of
    Tarjan's algorithm (SIAM J. Comput. 1(2), 1972), written here apart
    from the package's, and they come out sinks first, so each one's d is
    known from those it leads to.
    """
    letters = AllLetters(g, choice.mapping)
    n = len(letters.letters)
    succ = [[b for b in range(n) if not letters.reducible(a, b)] for a in range(n)]
    index: list[Optional[int]] = [None] * n
    low = [0] * n
    component: list[Optional[int]] = [None] * n
    depth: list[int] = []  # per component, the most cyclic components on a path from it
    stack: list[int] = []
    visited = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            a, after = work[-1]
            for b in after:
                if index[b] is None:
                    index[b] = low[b] = visited
                    visited += 1
                    stack.append(b)
                    work.append((b, iter(succ[b])))
                    break
                if component[b] is None:  # b is on the stack
                    low[a] = min(low[a], index[b])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[a])
                if low[a] == index[a]:
                    members = stack[stack.index(a):]
                    del stack[len(stack) - len(members):]
                    for b in members:
                        component[b] = len(depth)
                    targets = [component[c] for b in members for c in succ[b]]
                    inner = targets.count(len(depth))
                    if inner > len(members):
                        return math.inf
                    below = [depth[t] for t in targets if t != len(depth)]
                    depth.append(max(below, default=0) + (inner > 0))
    return max(depth, default=0)


# -- reference rewriting -------------------------------------------------------


def reference_rule(algebra, a: int, b: int):
    """The rewrite of the letter-id pair (a, b): a term list (empty for 0), or None if normal.

    This is the reference for the pair rewrite that ``Algebra._product``
    applies at a junction.  A pair that does not compose is 0 and a
    composable pair holding a vertex letter is the other letter, both by
    endpoints; any other pair is rewritten by its stored rule ``(others,
    rhs)``, read as the relation ``a b = rhs - sum of x y over others``:
    the term ``(1, (rhs,))`` unless rhs is None, then ``(-1, (x, y))`` per
    other pair.
    """
    if algebra._rng_id[a] != algebra._src_id[b]:
        return []
    if a < algebra._nv:
        return [(1, (b,))]
    if b < algebra._nv:
        return [(1, (a,))]
    rule = algebra._rules.get((a, b))
    if rule is None:
        return None
    others, rhs = rule
    return ([] if rhs is None else [(1, (rhs,))]) + [(-1, pair) for pair in others]


def reference_normal_form(algebra, pairs) -> dict:
    """Sum ``k * nf(w)`` over ``(number k, letter-id word w)`` pairs, as {word: number}.

    Each word is rewritten at its leftmost redex until none is left, by
    :func:`reference_rule` over the package's rule table: no memo and no
    ``_product``, so it checks the junction rewriter and both of its folds
    from outside.  A worklist of ``(coefficient, word)`` replaces recursion;
    the sum is not reduced into the field.
    """
    out: dict[tuple[int, ...], object] = {}
    work = [(k, tuple(w)) for k, w in pairs]
    while work:
        k, w = work.pop()
        for i in range(len(w) - 1):
            act = reference_rule(algebra, w[i], w[i + 1])
            if act is not None:
                break
        else:
            out[w] = out.get(w, 0) + k
            continue
        work += [(k * c, w[:i] + repl + w[i + 2:]) for c, repl in act]  # [] for 0
    return {w: c for w, c in out.items() if c}


# -- reference expression parser -----------------------------------------------

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+(\^\([0-9]+\))*")
_SUPERSCRIPTS_RE = re.compile(r"(\^\([0-9]+\))+")
_STRAND_RE = re.compile(r"\.([0-9]+)(\*)?")  # strand suffix .<digits>, optional star
_DENOMINATOR_RE = re.compile(r"/([0-9]+)")
_SPACE_RE = re.compile(r"\s*")


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


class _Tokenizer:
    """``(kind, text)`` tokens, read one position at a time."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str]] = []
        self._run()

    def _run(self):
        text, tokens = self.text, self.tokens
        closes = _matching_parentheses(text)
        decided: dict[int, Optional[int]] = {}
        skip_space, atom = _SPACE_RE.match, _ATOM_RE.match
        pos = skip_space(text).end()
        while pos < len(text):
            ch = text[pos]
            if ch in "+-*":
                tokens.append((ch, ch))
                pos += 1
            else:
                if ch == "(":
                    ident_end = _scan_identifier(text, pos, closes, decided)
                else:
                    m = atom(text, pos)
                    ident_end = m.end() if m else None
                if ident_end is not None:
                    name = text[pos:ident_end]
                    pos = ident_end
                    m = _STRAND_RE.match(text, pos)
                    if m:
                        pos = m.end()
                        kind = "star" if m.group(2) else "edge"
                        tokens.append((kind, f"{name}.{m.group(1)}"))
                    elif name.isdigit():
                        # a bare number is a scalar; allow a/b
                        m2 = _DENOMINATOR_RE.match(text, pos)
                        if m2:
                            pos = m2.end()
                            tokens.append(("scalar", f"{name}/{m2.group(1)}"))
                        else:
                            tokens.append(("scalar", name))
                    else:
                        tokens.append(("name", name))
                elif ch in "()":
                    tokens.append((ch, ch))
                    pos += 1
                else:
                    raise ExpressionError(f"unexpected character {ch!r} at position {pos}")
            pos = skip_space(text, pos).end()


class _Parser:
    """Recursive descent with one ``peek``/``take`` call per token."""

    def __init__(self, algebra, text: str):
        self.algebra = algebra
        self.tokens = tokens = _Tokenizer(text).tokens
        self.i = 0
        id_of = algebra._id_of
        for k, (kind, name) in enumerate(tokens):
            # a digit run that no '*' follows names the vertex of that name, if any
            if (kind == "scalar" and ("vertex", name, 0) in id_of
                    and tokens[k + 1:k + 2] != [("*", "*")]):
                tokens[k] = ("name", name)

    def peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input near {self.peek()[1]!r}")
        return value

    def expr(self):
        pairs, value = [], None
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] == "-":
            self.take()
            sign = -1
        while True:
            term = self.term(sign)
            if isinstance(term, AlgebraElement):
                value = term if value is None else value + term
            else:
                pairs.append(term)
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                break
            sign = 1 if self.take()[0] == "+" else -1
        total = self.algebra._normal_form(pairs)
        return total if value is None else total + value

    def term(self, sign: int):
        scalar = sign
        tok = self.peek()
        if tok is not None and tok[0] == "scalar":
            self.take()
            try:
                scalar = self.algebra.field.parse(tok[1])
            except FieldError as exc:
                raise ExpressionError(str(exc)) from None
            if sign < 0:
                scalar = -scalar
            nxt = self.peek()
            if nxt is not None and nxt[0] == "*":
                self.take()
            elif nxt is None or nxt[0] not in _FACTOR_STARTS:
                raise ExpressionError("scalar prefix must be followed by '*'")
        alg = self.algebra
        word: list[int] = []
        value = None
        while True:
            factor = self.factor()
            if isinstance(factor, int):
                word.append(factor)
            else:
                if word:
                    factor = alg._lift(alg._nf_word(tuple(word))) * factor
                    word = []
                value = factor if value is None else value * factor
            tok = self.peek()
            if tok is None or tok[0] not in _FACTOR_STARTS:
                break
        if value is None:
            return scalar, tuple(word)
        if word:
            value = value * alg._lift(alg._nf_word(tuple(word)))
        return value.scaled(scalar)

    def factor(self):
        kind, text = self.take()
        if kind == "(":
            value = self.expr()
            closing = self.take()
            if closing[0] != ")":
                raise ExpressionError("expected ')'")
            return value
        if kind == "name":
            vertex = self.algebra._id_of.get(("vertex", text, 0))
            if vertex is None:
                raise ExpressionError(f"unknown vertex {text!r}")
            return vertex
        if kind in ("edge", "star"):
            name, _, digits = text.rpartition(".")
            try:
                index = parse_natural(digits)
            except ValueError:  # an index too long for int()
                raise ExpressionError(f"unknown generator {text!r}") from None
            letter = self.algebra._id_of.get((kind, name, index))
            if letter is None:
                gen = Generator(kind, name, index)
                raise ExpressionError(f"unknown generator {gen.token()!r}")
            return letter
        raise ExpressionError(f"unexpected token {text!r}")


_FACTOR_STARTS = ("name", "edge", "star", "(")


def reference_parse_element(algebra, text: str):
    """``parse_element`` as a tokenizer of ``(kind, text)`` pairs and a parser
    that peeks and takes them one at a time: the reading the one-scan parser
    must agree with, value for value and message for message."""
    if not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(algebra, text).parse()


# -- GF(2) linear algebra ------------------------------------------------------


class BitEchelon:
    """Row echelon over GF(2) with rows as Python integers."""

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def add(self, row: int) -> bool:
        """Insert a row; True iff the rank increased."""
        while row:
            lead = row.bit_length() - 1
            pivot = self.pivots.get(lead)
            if pivot is None:
                self.pivots[lead] = row
                return True
            row ^= pivot
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


# -- truncated relation-quotient dimension -------------------------------------


class _FreeLetters:
    """Non-vertex letters of the presentation, built from the graph alone."""

    def __init__(self, g: WeightedGraph):
        self.g = g
        self.src: list[str] = []
        self.rng: list[str] = []
        self.deg: list[tuple[int, int]] = []  # (component, sign)
        self.edge_id: dict[tuple[str, int], int] = {}
        self.star_id: dict[tuple[str, int], int] = {}
        for e in g.edges:
            for i in range(1, e.weight + 1):
                self.edge_id[(e.id, i)] = len(self.src)
                self.src.append(e.source)
                self.rng.append(e.range)
                self.deg.append((i - 1, 1))
            for i in range(1, e.weight + 1):
                self.star_id[(e.id, i)] = len(self.src)
                self.src.append(e.range)
                self.rng.append(e.source)
                self.deg.append((i - 1, -1))
        self.n = len(self.src)
        self.grading = max((e.weight for e in g.edges), default=0)

    def word_degree(self, word: tuple[int, ...]) -> tuple[int, ...]:
        deg = [0] * self.grading
        for letter in word:
            pos, sign = self.deg[letter]
            deg[pos] += sign
        return tuple(deg)


def truncated_quotient_dimension(g: WeightedGraph, max_len: int) -> int:
    """Dimension over GF(2) of the span of all words of length <= max_len
    inside the free algebra modulo the defining relations, truncated at
    word length max_len + 2.

    Words with vertex letters are identified with their vertex-absorbed
    forms up front (those identifications are themselves consequences of
    relations (i)-(ii) inside the truncation), so the matrix only carries
    composable vertex-free words plus one class per vertex.  Relation
    instances (iii)-(iv) are imposed in every composable context; the rows
    split into independent blocks by (source, range, degree) and each
    block is reduced separately.
    """
    M = max_len + 2
    letters = _FreeLetters(g)

    # all d-path words of length 1..M, plus by-endpoint context tables
    by_range: dict[str, list[list[tuple[int, ...]]]] = {
        v: [[] for _ in range(M + 1)] for v in g.vertices
    }
    by_source: dict[str, list[list[tuple[int, ...]]]] = {
        v: [[] for _ in range(M + 1)] for v in g.vertices
    }
    for v in g.vertices:
        by_range[v][0].append(())
        by_source[v][0].append(())
    all_words: list[tuple[int, ...]] = []
    layer = [(i,) for i in range(letters.n)]
    for length in range(1, M + 1):
        for w in layer:
            all_words.append(w)
            by_range[letters.rng[w[-1]]][length].append(w)
            by_source[letters.src[w[0]]][length].append(w)
        if length == M:
            break
        nxt = []
        for w in layer:
            tail = letters.rng[w[-1]]
            for b in range(letters.n):
                if letters.src[b] == tail:
                    nxt.append(w + (b,))
        layer = nxt

    # sector = (source vertex, range vertex, degree); members sorted by
    # (length, word) so longer words occupy higher bit positions
    sectors: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
    for v in g.vertices:
        sectors.setdefault((v, v, (0,) * letters.grading), []).append((0, ()))
    for w in all_words:
        key = (letters.src[w[0]], letters.rng[w[-1]], letters.word_degree(w))
        sectors.setdefault(key, []).append((len(w), w))

    word_index: dict[tuple, tuple[tuple, int]] = {}
    cut: dict[tuple, int] = {}
    for key, members in sectors.items():
        members.sort()
        cut[key] = sum(1 for length, _ in members if length <= max_len)
        for idx, (_, w) in enumerate(members):
            word_index[(key,) + (w,)] = (key, idx)

    needed = {key for key, c in cut.items() if c > 0}

    # relation instances (iii) and (iv) as vertex-free term lists:
    # (source vertex, range vertex, [pair words], instance degree, vertex term)
    instances = []
    for v in g.vertices:
        out = out_edges(g, v)
        if not out:
            continue
        wv = vertex_weight(g, v)
        zero = (0,) * letters.grading
        for e in out:
            for f in out:
                pairs = [
                    (letters.star_id[(e.id, i)], letters.edge_id[(f.id, i)])
                    for i in range(1, wv + 1)
                    if i <= e.weight and i <= f.weight
                ]
                instances.append((e.range, f.range, pairs, zero, e.id == f.id))
        for i in range(1, wv + 1):
            for j in range(1, wv + 1):
                pairs = [
                    (letters.edge_id[(e.id, i)], letters.star_id[(e.id, j)])
                    for e in out
                    if e.weight >= max(i, j)
                ]
                instances.append(
                    (v, v, pairs, letters.word_degree(pairs[0]), i == j)
                )

    degree_of = {w: letters.word_degree(w) for w in all_words}
    degree_of[()] = (0,) * letters.grading

    echelons: dict[tuple, BitEchelon] = {key: BitEchelon() for key in needed}
    budget = M - 2
    for src_v, rng_v, pairs, inst_deg, has_vertex in instances:
        for lu in range(budget + 1):
            for u in by_range[src_v][lu]:
                u_src = letters.src[u[0]] if u else src_v
                deg_u = degree_of[u]
                for lt in range(budget - lu + 1):
                    for t in by_source[rng_v][lt]:
                        t_rng = letters.rng[t[-1]] if t else rng_v
                        deg_t = degree_of[t]
                        deg = tuple(
                            a + b + c for a, b, c in zip(deg_u, inst_deg, deg_t)
                        )
                        key = (u_src, t_rng, deg)
                        ech = echelons.get(key)
                        if ech is None:
                            continue
                        mask = 0
                        for a, b in pairs:
                            _, idx = word_index[(key, u + (a, b) + t)]
                            mask ^= 1 << idx
                        if has_vertex:
                            _, idx = word_index[(key, u + t)]
                            mask ^= 1 << idx
                        if mask:
                            ech.add(mask)

    dim = 0
    for key in needed:
        boundary = cut[key]
        inside = sum(1 for lead in echelons[key].pivots if lead < boundary)
        dim += boundary - inside
    return dim


def engine_span_dimension_gf2(g: WeightedGraph, max_len: int) -> int:
    """Dimension over GF(2) of span{normalize(w) : |w| <= max_len}."""
    from wlpa import Algebra, Generator, PrimeField

    algebra = Algebra(g, field=PrimeField(2))
    alphabet = [Generator.vertex(v) for v in g.vertices]
    alphabet += list(algebra.nonvertex_generators())
    nod_index: dict[tuple, int] = {}
    echelon = BitEchelon()
    for length in range(1, max_len + 1):
        for combo in product(alphabet, repeat=length):
            element = algebra.normalize([(1, combo)])
            mask = 0
            for _, word in element.terms():
                idx = nod_index.setdefault(word, len(nod_index))
                mask ^= 1 << idx
            if mask:
                echelon.add(mask)
    return echelon.rank


# -- defining relations ---------------------------------------------------------


def reference_relation_instances(g: WeightedGraph):
    """Yield ``(label, terms)`` for every defining-relation instance, eagerly.

    The enumeration ``relation_instances`` must reproduce item for item:
    (i) for each ordered pair of vertices, then (ii) per edge strand, then
    (iii) and (iv) per emitting vertex, with f-string labels and terms
    ``(integer coefficient, [Generator, ...])`` read off the graph.
    """
    V, E, S = Generator.vertex, Generator.edge, Generator.star
    for u in g.vertices:
        for v in g.vertices:
            terms = [(1, [V(u), V(v)])]
            if u == v:
                terms.append((-1, [V(u)]))
            yield f"(i) {u} {v}", terms
    for e in g.edges:
        s, r = V(e.source), V(e.range)
        for i in range(1, e.weight + 1):
            a, b = E(e.id, i), S(e.id, i)
            yield f"(ii) source {e.id}.{i}", [(1, [s, a]), (-1, [a])]
            yield f"(ii) range {e.id}.{i}", [(1, [a, r]), (-1, [a])]
            yield f"(ii) star-range {e.id}.{i}", [(1, [r, b]), (-1, [b])]
            yield f"(ii) star-source {e.id}.{i}", [(1, [b, s]), (-1, [b])]
    for v in g.vertices:
        out = out_edges(g, v)
        if not out:
            continue
        for e in out:
            for f in out:
                terms = [(1, [S(e.id, i), E(f.id, i)])
                         for i in range(1, min(e.weight, f.weight) + 1)]
                if e.id == f.id:
                    terms.append((-1, [V(e.range)]))
                yield f"(iii) {v} {e.id} {f.id}", terms
        wv = vertex_weight(g, v)
        for i in range(1, wv + 1):
            for j in range(1, wv + 1):
                terms = [(1, [E(e.id, i), S(e.id, j)]) for e in out if e.weight >= max(i, j)]
                if i == j:
                    terms.append((-1, [V(v)]))
                yield f"(iv) {v} {i} {j}", terms


def relation_failures(g: WeightedGraph, mapping: dict[Generator, AlgebraElement],
                      target: Algebra) -> tuple[int, list[str]]:
    """Check every instance of ``wlpa.relation_instances`` under ``mapping``.

    Returns the number of instances and the labels of those whose value in
    ``target`` is not zero, in ``relation_instances`` order.  The map is
    lowered once (:func:`_lowered`, which raises on a bad key or image),
    and the package's ``_relation_failures`` evaluates the instances of
    ``Algebra(g)``.
    """
    domain = Algebra(g)
    return _relation_failures(domain, _lowered(mapping, domain, target), target)


def _lowered(mapping: dict[Generator, AlgebraElement], domain: Algebra, target: Algebra) -> list:
    """``mapping`` as a table over the letter ids of ``domain`` (``_lower``).

    A key that is no letter of ``domain`` or a letter with no image raises
    :class:`UnknownGeneratorError`, an image outside ``target``
    :class:`MixedContextError`.
    """
    for gen in mapping:
        domain._intern_word((gen,))
    return _lower(mapping, domain._generators(), target)


# -- family verification ------------------------------------------------------


def dense_family_verification(g: WeightedGraph, g_tilde: WeightedGraph, fwd, bwd):
    """``(ok, counts, failures)`` as ``verify_families`` must report them.

    Evaluates every item of :func:`reference_relation_instances` of both
    graphs, one product per ordered pair of vertices included, and every
    round trip, with plain element ``*``, ``+`` and ``scaled``; neither
    ``evaluate_relation`` nor ``apply_generator_map`` is used.
    """
    fwd_images, bwd_images = images_by_generator(fwd), images_by_generator(bwd)
    tgt = next(iter(fwd_images.values())).algebra
    src = next(iter(bwd_images.values())).algebra

    def value(terms, mapping, target):
        total = target.zero()
        for coeff, word in terms:
            image = mapping[word[0]]
            for gen in word[1:]:
                image = image * mapping[gen]
            total = total + image.scaled(coeff)
        return total

    failures = []
    counts = {}
    for direction, graph, images, target in (("forward", g, fwd_images, tgt),
                                             ("backward", g_tilde, bwd_images, src)):
        counts[f"{direction}_relations"] = 0
        for label, terms in reference_relation_instances(graph):
            counts[f"{direction}_relations"] += 1
            if value(terms, images, target):
                failures.append(f"{direction} {label}")
    for side, there, back, home in (("source", fwd_images, bwd_images, src),
                                    ("target", bwd_images, fwd_images, tgt)):
        counts[f"roundtrip_{side}"] = 0
        for gen, image in there.items():
            counts[f"roundtrip_{side}"] += 1
            if value(image.terms(), back, home) != home.word((gen,)):
                failures.append(f"roundtrip {side} {gen.token()}")
    return not failures, counts, tuple(failures)
