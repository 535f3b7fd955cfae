"""Decide Condition (LPA) for weighted graphs and build failure witnesses.

A weighted graph satisfies Condition (LPA) when

* LPA1: every vertex emits at most one weighted edge,
* LPA2: every vertex in T(r(E1w)) emits at most one edge,
* LPA3: weighted edges that are not in line have disjoint range trees,
* LPA4: a cycle based inside T(r(e)) for weighted e contains e,

where E1w is the set of weighted edges and T the reachability tree.  When
the condition fails, :func:`witness_nodpath` produces a nod-word whose
first letter is ``e.2`` and whose last letter is ``e.2*`` for a weighted
edge ``e``; no such nod-word exists when the condition holds.

:func:`_decide_lpa` searches the zone Z = T(r(E1w)) once, breadth first
from the ranges of the weighted edges; the decision, the report, the
witness and stage 1 of the compilation all read that search.  The
verdict comes first, in one pass linear in Z (:func:`_satisfies_lpa`).
Under LPA1 and LPA2 every vertex of Z emits at most one edge, so Z is a
functional graph: T(r(e)) is the forward orbit of r(e), which ends in a
sink or in one cycle.  Then (LPA) holds iff the orbits of the weighted
edges that enter Z from outside are pairwise disjoint and end in sinks.
Only a graph that fails (LPA) goes on to the reporter, which names every
violation.  It runs one strongly-connected-components pass over the
search, and its zone pass searches each range tree once; then four
condition passes read them.  Past that, each weighted edge costs its
search, its own component and its share of the report, and only pairs of
range trees that reach a common terminal component are compared.

:func:`witness_nodpath` reads no report.  It finds the first LPA4 site in
the decision's search: one strongly-connected-components pass over the
zone, and the per-edge searches only when the zone carries a cycle.
Failing that, it searches nod-words of the required shape breadth first,
letter by letter, with the successor routine that also builds the
algebra's nod-word automaton (:func:`~wlpa.algebra._successors`); it
builds no algebra.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Iterator, NamedTuple, Optional

from .algebra import (
    Generator,
    SpecialEdgeChoice,
    Word,
    _letters,
    _successors,
    default_special_edges,
    validate_choice,
)
from .graphs import (
    EdgeRecord,
    GraphPath,
    WeightedGraph,
    breadth_first,
    cyclic_components,
    path_to,
    shortest_cycle,
    weighted_edges,
)


class LpaSatisfiedError(ValueError):
    """Raised when a witness is requested for a graph satisfying (LPA)."""


class WitnessSearchError(RuntimeError):
    """The witness search failed; this indicates an internal bug."""


class LpaViolation(NamedTuple):
    """One violated condition together with replayable witness data.

    Field usage by kind:

    * LPA1: ``vertex`` emits the two weighted ``edges``.
    * LPA2: ``vertex`` lies in T(r(``weighted_edge``)) via ``path`` and
      emits the two ``edges``.
    * LPA3: the two weighted ``edges`` are not in line but ``vertex`` lies
      in both range trees.
    * LPA4: ``cycle`` is based at the end of ``path`` from
      r(``weighted_edge``) and does not contain the weighted edge.  One
      such violation stands for a whole strongly connected component of
      T(r(e)) - e that carries a cycle: it is based at the component's first
      vertex in graph order, and its cycle is a shortest one through that
      vertex.
    """

    kind: str
    vertex: Optional[str] = None
    edges: tuple[str, ...] = ()
    weighted_edge: Optional[str] = None
    path: Optional[GraphPath] = None
    cycle: Optional[GraphPath] = None

    def to_record(self) -> dict:
        record: dict = {"kind": self.kind}
        if self.weighted_edge is not None:
            record["weighted_edge"] = self.weighted_edge
        if self.path is not None:
            record["path"] = list(self.path.edges)
        if self.vertex is not None:
            record["vertex"] = self.vertex
        if self.edges:
            record["edges"] = list(self.edges)
        if self.cycle is not None:
            record["cycle"] = list(self.cycle.edges)
        return record

    def describe(self) -> str:
        if self.kind == "LPA1":
            return (
                f"LPA1: vertex {self.vertex} emits weighted edges "
                f"{self.edges[0]} and {self.edges[1]}"
            )
        if self.kind == "LPA2":
            via = " ".join(self.path.edges) if self.path.edges else "(empty path)"
            return (
                f"LPA2: vertex {self.vertex}, reached from r({self.weighted_edge}) "
                f"via {via}, emits edges {self.edges[0]} and {self.edges[1]}"
            )
        if self.kind == "LPA3":
            return (
                f"LPA3: weighted edges {self.edges[0]} and {self.edges[1]} are "
                f"not in line but both range trees contain {self.vertex}"
            )
        via = " ".join(self.path.edges) if self.path.edges else "(empty path)"
        return (
            f"LPA4: cycle {' '.join(self.cycle.edges)} based in "
            f"T(r({self.weighted_edge})) via {via} avoids {self.weighted_edge}"
        )


class LpaReport(NamedTuple):
    violations: tuple[LpaViolation, ...] = ()

    @property
    def satisfied(self) -> bool:
        return not self.violations

    def to_records(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "violations": [v.to_record() for v in self.violations],
        }

    def describe(self) -> str:
        if self.satisfied:
            return "satisfied"
        return "\n".join(v.describe() for v in self.violations)


def check_lpa(g: WeightedGraph) -> LpaReport:
    """Evaluate the four conditions and report every violation found.

    A graph that :func:`_decide_lpa` decides to satisfy (LPA) is
    reported satisfied at once, in time linear in the graph.  Otherwise
    the reporter runs on the decision's search: one
    strongly-connected-components pass over it and the zone pass
    (:func:`_zone`), then the four condition passes, each in graph scan
    order:

    * LPA1 (:func:`_lpa1_sites`): one scan of the out-lists.
    * LPA2 (:func:`_lpa2_sites`): a branching zone vertex is reported with
      the path of its owner, the first search that reached it.
    * LPA3 (:func:`_lpa3_sites`): two range trees meet iff they reach a
      common terminal component, so only the pairs of weighted edges that
      share one are visited, in order.  The first common vertex is read off
      the range tree of the first edge, sorted in graph order once per edge.
    * LPA4 (:func:`_lpa4_sites`): one violation per strongly connected
      component of T(r(e)) - e that carries a cycle.

    Past the k searches, the cost is O(V+E) for LPA1, LPA2 and the zone
    pass; per weighted edge, its search, the sort of its range tree and
    the re-split of its own component; and per visited pair, the in-line
    test and the scan for a common vertex.  No cycles are enumerated, and
    no per-edge step runs over all vertices or all components.

    One witness is reported for each offending site.  All witnesses
    replay against the raw graph primitives (the tests' oracle
    ``violation_holds`` does so).
    """
    search, satisfied = _decide_lpa(g)
    if satisfied:
        return LpaReport()
    zone = _zone(g, cyclic_components(g, search))
    return LpaReport((*_lpa1_sites(g), *_lpa2_sites(g, zone), *_lpa3_sites(g, zone),
                      *_lpa4_sites(g, zone)))


class _Zone(NamedTuple):
    """The zone Z = T(r(E1w)) of a failing graph, as the condition passes read it."""

    heavy: tuple[EdgeRecord, ...]  # the weighted edges, in graph order
    searches: list[dict[str, Optional[EdgeRecord]]]  # T(r(e)) and its paths, per edge
    owner: dict[str, int]  # each zone vertex to the first search that reached it
    components: list[tuple[str, ...]]  # the zone's cyclic components
    component_of: dict[str, tuple[str, ...]]  # each vertex on a cycle to its component


def _zone(g: WeightedGraph, components: list[tuple[str, ...]]) -> _Zone:
    """The zone pass over the zone's cyclic ``components``: one
    breadth-first search per weighted edge and one owner sweep.

    The zone is closed under reachability, so its components are the
    graph's own, and each T(r(e)) is a union of them.  A zone vertex's
    owner is the first search, in weighted-edge order, that reached it.
    """
    heavy = weighted_edges(g)
    searches = [breadth_first(g, [e.range]) for e in heavy]
    # each vertex to its owner, which writes last as the sweep runs backwards
    owner: dict[str, int] = {}
    for i in reversed(range(len(searches))):
        owner.update(dict.fromkeys(searches[i], i))
    component_of = {v: c for c in components for v in c}
    return _Zone(heavy, searches, owner, components, component_of)


def _lpa1_sites(g: WeightedGraph) -> Iterator[LpaViolation]:
    """LPA1: each vertex that emits two or more weighted edges, with its first two."""
    for v in g.vertices:
        emitted = [e.id for e in g._out[v] if e.weight > 1]
        if len(emitted) > 1:
            yield LpaViolation(kind="LPA1", vertex=v, edges=(emitted[0], emitted[1]))


def _lpa2_sites(g: WeightedGraph, zone: _Zone) -> Iterator[LpaViolation]:
    """LPA2: each zone vertex that emits two or more edges, via its owner's path."""
    out = g._out
    for v in g.vertices:
        if len(out[v]) > 1 and v in zone.owner:
            i = zone.owner[v]
            yield LpaViolation(
                kind="LPA2",
                weighted_edge=zone.heavy[i].id,
                path=path_to(zone.searches[i], v),
                vertex=v,
                edges=(out[v][0].id, out[v][1].id),
            )


def _lpa3_sites(g: WeightedGraph, zone: _Zone) -> Iterator[LpaViolation]:
    """LPA3: each pair of weighted edges not in line whose range trees meet.

    A component is terminal when no edge leaves it; a sink is a terminal
    singleton.  Two range trees meet iff they reach a common terminal
    component.
    """
    out, searches, component_of = g._out, zone.searches, zone.component_of
    position = g._vertex_index.__getitem__
    # each vertex of a terminal component to the component's first vertex
    terminal = {v: v for v in zone.owner if not out[v]}
    for c in zone.components:
        if all(component_of.get(e.range) is c for v in c for e in out[v]):
            terminal.update(dict.fromkeys(c, c[0]))
    ends = [{terminal[v] for v in reached if v in terminal} for reached in searches]
    sharing: dict[str, list[int]] = {}
    for i, keys in enumerate(ends):
        for key in keys:
            sharing.setdefault(key, []).append(i)
    for i, e in enumerate(zone.heavy):
        tree = None  # T(r(e)) in graph order, sorted at the first pair to report
        later = {j for key in ends[i] for j in sharing[key][bisect_right(sharing[key], i):]}
        for j in sorted(later):
            f = zone.heavy[j]
            if f.source in searches[i] or e.source in searches[j]:
                continue  # e and f are in line
            if tree is None:
                tree = sorted(searches[i], key=position)
            common = next(v for v in tree if v in searches[j])
            yield LpaViolation(kind="LPA3", edges=(e.id, f.id), vertex=common)


def _lpa4_sites(g: WeightedGraph, zone: _Zone) -> Iterator[LpaViolation]:
    """LPA4: the sites of cycles avoiding a weighted edge, in report order.

    A cycle based in T(r(e)) stays inside it, so LPA4 fails for e exactly
    when T(r(e)) - e has a strongly connected component that carries a
    cycle.  Deleting e splits only e's own component, which exists when
    s(e) lies in T(r(e)); that one is split again without e, and the others
    are the zone's.  Each component gives one violation: its first vertex
    in graph order is the base, and a breadth-first search inside the
    component gives a shortest cycle through it.  The sites of each edge
    are found when the first of them is asked for.
    """
    position = g._vertex_index.__getitem__
    firsts = {c[0]: c for c in zone.components}
    for e, reached in zip(zone.heavy, zone.searches):
        found = [firsts[v] for v in reached if v in firsts]
        if e.source in reached:
            own = zone.component_of[e.source]
            found = [c for c in found if c is not own]
            found += cyclic_components(g, own, avoid=e.id)
        found.sort(key=lambda c: position(c[0]))
        for component in found:
            base = component[0]
            yield LpaViolation(
                kind="LPA4",
                weighted_edge=e.id,
                path=path_to(reached, base),
                cycle=shortest_cycle(g, base, component, avoid=e.id),
            )


def _decide_lpa(g: WeightedGraph) -> tuple[dict[str, Optional[EdgeRecord]], bool]:
    """The zone search and the (LPA) verdict read off it, as ``(search, satisfied)``.

    The search is one :func:`breadth_first` from the ranges of the weighted
    edges, so its vertices are the zone Z = T(r(E1w)).
    """
    search = breadth_first(g, [e.range for e in weighted_edges(g)])
    return search, _satisfies_lpa(g, search)


def _satisfies_lpa(g: WeightedGraph, zone: dict[str, Optional[EdgeRecord]]) -> bool:
    """Decide (LPA) in one pass over the ``zone`` Z = T(r(E1w)) as a functional graph.

    LPA1: the weighted edges have distinct sources.  LPA2: every vertex of
    Z emits at most one edge, so its successor is the range of that edge,
    or it is a sink, and T(r(e)) is the orbit of r(e).  Then (LPA) holds
    iff the orbits of the entries, the weighted edges whose source lies
    outside Z, are pairwise disjoint and each ends in a sink.

    Necessary: an entry f cannot lie on a cycle inside Z (LPA4), and
    r(e) never reaches s(f), so two entries are never in line (LPA3).
    Sufficient: a weighted e with s(e) in Z is the one edge s(e) emits.
    If s(e) is on no cycle, some r(f) reaches s(e) from strictly higher
    up its orbit, and going up this way ends at an entry; so every such
    s(e) lies on the orbit of an entry, which ends in a sink.  Within one
    orbit all sources are in line, and the remaining sources lie on
    cycles that no entry reaches, whose edges they emit (LPA4).  Orbits
    meet iff they share their sink or cycle, so no other trees meet (LPA3).
    """
    heavy = weighted_edges(g)
    if len({e.source for e in heavy}) < len(heavy):
        return False  # LPA1
    out = g._out
    if any(len(out[v]) > 1 for v in zone):
        return False  # LPA2
    seen: set[str] = set()
    for e in heavy:
        if e.source in zone:
            continue
        v: Optional[str] = e.range
        while v is not None:
            if v in seen:
                return False  # this orbit closes a cycle or meets another entry's
            seen.add(v)
            v = out[v][0].range if out[v] else None
    return True


def _keylemma_word_from_cycle(g: WeightedGraph, violation: LpaViolation) -> Word:
    """Build the witness nod-word from an LPA4 violation.

    The stored path may share vertices with the cycle; it is trimmed at the
    first cycle vertex and the cycle is rotated there, which makes the path
    edge-disjoint from the cycle.
    """
    e = g.edge(violation.weighted_edge)
    cycle_records = [g.edge(x) for x in violation.cycle.edges]
    cycle_sources = [rec.source for rec in cycle_records]
    on_cycle = set(cycle_sources)

    path_vertices = [e.range]
    for eid in violation.path.edges:
        path_vertices.append(g.edge(eid).range)
    cut = next(i for i, v in enumerate(path_vertices) if v in on_cycle)
    trimmed = violation.path.edges[:cut]
    base = path_vertices[cut]
    rot = cycle_sources.index(base)
    rotated = cycle_records[rot:] + cycle_records[:rot]

    letters = [Generator.edge(e.id, 2)]
    letters += [Generator.edge(x, 1) for x in trimmed]
    letters += [Generator.edge(rec.id, 1) for rec in rotated]
    letters += [Generator.star(x, 1) for x in reversed(trimmed)]
    letters.append(Generator.star(e.id, 2))
    return tuple(letters)


def search_shape_word(g: WeightedGraph,
                      choice: Optional[SpecialEdgeChoice] = None) -> Optional[Word]:
    """Breadth-first search for a nod-word e.2 ... e.2* over a weighted e.

    It builds no algebra: :func:`_shape_word` follows the successors of
    :func:`_letter_successors` under ``choice``.  Returns the first witness
    found, scanning weighted edges in graph order, or None.
    """
    if not weighted_edges(g):
        return None
    return _shape_word(g, *_letter_successors(g, choice))


def _letter_successors(g: WeightedGraph, choice: Optional[SpecialEdgeChoice]):
    """The letter ids of ``g`` and its :func:`_successors` routine, off one :func:`_letters`.

    The default special edges are used unless ``choice`` is given, which
    :func:`validate_choice` checks first.
    """
    if choice is None:
        choice = default_special_edges(g)
    else:
        validate_choice(g, choice)
    id_of, src, rng, _, degree, _, _, specials = _letters(g, choice)
    return id_of, _successors(src, rng, degree, specials)


def _shape_word(g: WeightedGraph, id_of, successors) -> Optional[Word]:
    """:func:`search_shape_word` over the letter ids ``id_of`` and the routine ``successors``.

    Words are explored in increasing length from each e.2.  Extension
    legality only depends on the last letter, so each letter is reached
    once and the search ends with no length bound; any path of successors
    lifts back to a valid nod-word.  A letter's successors are asked for
    once, when it is reached.
    """
    for e in weighted_edges(g):
        start, last = id_of["edge", e.id, 2], id_of["star", e.id, 2]
        # parent links for path reconstruction, keyed by letter id
        parent: dict[int, Optional[int]] = {start: None}
        after = successors(start)
        found = start if last in after else None
        queue = deque([(start, after)])  # (letter id, its successors)
        while queue and found is None:
            cur, after = queue.popleft()
            for nxt in after:
                if nxt in parent:
                    continue
                parent[nxt] = cur
                following = successors(nxt)
                if last in following:
                    found = nxt
                    break
                queue.append((nxt, following))
        if found is not None:
            chain = [last, found]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            keys = list(id_of)
            return tuple(Generator(*keys[t]) for t in reversed(chain))
    return None


def witness_nodpath(g: WeightedGraph, choice: Optional[SpecialEdgeChoice] = None) -> Word:
    """A nod-word e.2 ... e.2* certifying that Condition (LPA) fails.

    It decides with :func:`_decide_lpa` and builds no report and no
    algebra.  The first LPA4 violation :func:`check_lpa` would report is
    turned into a word directly from its witness path and cycle.  It is
    found in the decision's search: one strongly-connected-components pass
    over the zone, and the zone pass only if the zone carries a cycle,
    since each T(r(e)) - e lies inside it.  Without an LPA4 site, the
    breadth-first search of :func:`_shape_word` runs over nod-words of the
    required shape.  The returned word is re-checked, pair by pair, with
    the successors of :func:`_letter_successors` before being handed out.
    A given ``choice`` is checked by :func:`validate_choice`, also on a
    graph that satisfies (LPA), before :class:`LpaSatisfiedError`.
    """
    search, satisfied = _decide_lpa(g)
    if satisfied:
        if choice is not None:
            validate_choice(g, choice)
        raise LpaSatisfiedError("graph satisfies Condition (LPA); no witness exists")

    id_of, successors = _letter_successors(g, choice)
    components = cyclic_components(g, search)
    site = next(_lpa4_sites(g, _zone(g, components)), None) if components else None
    if site is not None:
        word = _keylemma_word_from_cycle(g, site)
    else:
        word = _shape_word(g, id_of, successors)
        if word is None:
            raise WitnessSearchError(
                "the nod-word search found no witness; this contradicts "
                "the failure of Condition (LPA) and indicates a bug"
            )
    ids = [id_of[gen.kind, gen.name, gen.index] for gen in word]
    if not all(b in successors(a) for a, b in zip(ids, ids[1:])):
        raise WitnessSearchError("constructed witness is not a nod-word")
    return word
