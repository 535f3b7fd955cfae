"""Finite directed graphs with positive integer edge weights.

Data model and graph primitives shared by the whole package: the line-based
text format with its parser and serializer, machine-readable records,
reachability, trees, the cyclic strongly connected components, shortest
cycles and enumeration of all cycles through a vertex.  Reachability,
trees and shortest paths all read one breadth-first search,
:func:`breadth_first`; :func:`shortest_cycle` runs its own, kept inside
one component.  No walk here recurses.  The (LPA) decision, its report,
the witness and stage 1 read one such search of the zone.

All types are immutable after construction and safe to share; every
operation here is a pure function.  Vertices and edges keep the order of
the input file, and every result listing them is emitted in that order.

A graph text is read with one ``findall`` of ``_LINE_RE``, one tuple
``(vertex, edge, source, range, weight, stray)`` per line.  The scan takes
only lines split by ``\\n`` or ``\\r\\n`` whose tokens are ASCII ids and
digits between spaces and tabs; the stray group holds the rest of the text
from the first line it cannot take, so it can only be the last tuple.  Such
a text, or an unweighted one with a weight other than 1, is read again by
:func:`_parse_lines`, the positional reader, which keeps the
``str.splitlines``/``str.split`` semantics and reports each error at its
line and at its token's own column.  The constructor builds its tables
once, in ``WeightedGraph._index``, then checks every id in one match over
their join and finds duplicates and dangling endpoints through those
tables; on any fault the locator, ``_raise_first_fault``, walks the input
in order, builds nothing and raises the first fault it meets.
"""

from __future__ import annotations

from operator import attrgetter
import re
from typing import Iterable, NamedTuple, Optional, Sequence

_ID = r"[A-Za-z0-9_^()]+"
_ID_RE = re.compile(_ID + r"\Z")
_IDS_RE = re.compile(rf"{_ID}(?:\n{_ID})*")
_LINE_RE = re.compile(
    rf"(?=[\s\S])[ \t]*(?:vertex[ \t]+({_ID})"
    rf"|edge[ \t]+({_ID})[ \t]+({_ID})[ \t]+({_ID})(?:[ \t]+([0-9]+))?"
    # a comment runs to the next character str.splitlines breaks at
    r"|#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*)?[ \t]*(?:\r?\n|\Z)"
    r"|([\s\S]+)"
)
_edge_ids = attrgetter("id")
_edge_weights = attrgetter("weight")


def parse_natural(text: str) -> int:
    """A number read from outside: ASCII digits within ``int()``'s limit, else ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a number in ASCII digits: {text!r}")
    return int(text)


class GraphError(ValueError):
    """Base class for graph construction and lookup errors."""


class GraphSyntaxError(GraphError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateIdError(GraphError):
    pass


class DanglingEndpointError(GraphError):
    pass


class BadWeightError(GraphError):
    pass


class UnknownVertexError(GraphError):
    pass


class UnknownEdgeError(GraphError):
    pass


class EdgeRecord(NamedTuple):
    """A directed edge with a positive integer weight."""

    id: str
    source: str
    range: str
    weight: int = 1


class WeightedGraph:
    """A finite directed graph together with a weight >= 1 per edge.

    Edges of weight 1 are called unweighted, edges of weight > 1 weighted.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[EdgeRecord]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[EdgeRecord, ...] = tuple(edges)
        try:
            clean = self._index()
        except (AttributeError, KeyError, TypeError):
            clean = False
        if not clean:
            self._raise_first_fault()

    def _index(self) -> bool:
        """Build the lookup tables, then run the bulk checks; False if one fails.

        Raises AttributeError, KeyError or TypeError on some faults instead.
        """
        vertices, edges = self.vertices, self.edges
        self._vertex_index = {v: i for i, v in enumerate(vertices)}  # first, for the locator
        edge_ids = list(map(_edge_ids, edges))
        self._edge_by_id = by_id = dict(zip(edge_ids, edges))
        self._out = out = {v: [] for v in vertices}
        for e in edges:  # KeyError at a dangling source
            out[e.source].append(e)
        ids = [*vertices, *edge_ids]
        joined = "\n".join(ids)
        if ids and (not _IDS_RE.fullmatch(joined) or joined.count("\n") != len(ids) - 1):
            return False  # a bad id, or one holding a newline
        weights = list(map(_edge_weights, edges))
        if weights and (set(map(type, weights)) != {int} or min(weights) < 1):
            return False
        return (len(self._vertex_index) == len(vertices) and len(by_id) == len(edges)
                and self._vertex_index.keys().isdisjoint(by_id)  # else a duplicate id
                and self._vertex_index.keys() >= {e.range for e in edges})  # else a dangling range

    def _raise_first_fault(self) -> None:
        """Check vertices, then edges, in input order; raise the first fault met.

        Builds no table; it reads the vertex index, which :meth:`_index` builds first.
        """
        ids: set[str] = set()
        for v in self.vertices:
            if not _ID_RE.match(v):
                raise GraphError(f"bad vertex id {v!r}")
            if v in ids:
                raise DuplicateIdError(f"duplicate id {v!r}")
            ids.add(v)
        for e in self.edges:
            if not _ID_RE.match(e.id):
                raise GraphError(f"bad edge id {e.id!r}")
            if e.id in ids:
                raise DuplicateIdError(f"duplicate id {e.id!r}")
            ids.add(e.id)
            if e.source not in self._vertex_index:
                raise DanglingEndpointError(f"edge {e.id!r}: unknown source {e.source!r}")
            if e.range not in self._vertex_index:
                raise DanglingEndpointError(f"edge {e.id!r}: unknown range {e.range!r}")
            if isinstance(e.weight, int) and type(e.weight) is not int:  # a bool
                raise BadWeightError(f"edge {e.id!r}: bad weight {e.weight!r}")
            if not isinstance(e.weight, int) or e.weight < 1:
                raise BadWeightError(f"edge {e.id!r}: weight {e.weight!r} < 1")

    # -- lookups -------------------------------------------------------

    def edge(self, edge_id: str) -> EdgeRecord:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {edge_id!r}") from None

    def _require_vertex(self, v: str) -> None:
        if v not in self._vertex_index:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.vertices == self.vertices
            and other.edges == self.edges
        )

    def __hash__(self):
        return hash((type(self).__name__, self.vertices, self.edges))

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )


class Graph(WeightedGraph):
    """An unweighted directed graph: every edge weight is fixed at 1."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[EdgeRecord]):
        super().__init__(vertices, edges)
        for e in self.edges:
            if e.weight != 1:
                raise BadWeightError(f"edge {e.id!r}: weight must be 1")


class _PathFields(NamedTuple):
    vertex: Optional[str] = None
    edges: tuple[str, ...] = ()


class GraphPath(_PathFields):
    """A path: either a single base vertex (length 0) or an edge sequence."""

    __slots__ = ()

    def __new__(cls, vertex: Optional[str] = None, edges: tuple[str, ...] = ()):
        if (vertex is None) == (not edges):
            raise GraphError("path is either a base vertex or a nonempty edge list")
        return super().__new__(cls, vertex, edges)

    @classmethod
    def _make(cls, fields) -> "GraphPath":
        # the tuple's own _make measures it with len, which counts edges here
        return cls(*fields)

    @classmethod
    def at(cls, vertex: str) -> "GraphPath":
        return cls(vertex=vertex)

    @classmethod
    def of(cls, edge_ids: Sequence[str]) -> "GraphPath":
        return cls(edges=tuple(edge_ids))

    def __len__(self) -> int:
        return len(self.edges)


# -- parsing and serialization ----------------------------------------------


def _scan_lines(text: str, expect_weight_one: bool):
    """Vertices and edges of ``text`` from one scan, or None if it needs :func:`_parse_lines`."""
    tokens = _LINE_RE.findall(text)
    if tokens and tokens[-1][5]:
        return None
    vertices: list[str] = []
    edges: list[EdgeRecord] = []
    try:
        for vid, eid, src, rng, weight, _ in tokens:
            if vid:
                vertices.append(vid)
            elif eid:
                edges.append(EdgeRecord(eid, src, rng, int(weight) if weight else 1))
    except ValueError:  # a weight past int()'s digit limit
        return None
    if expect_weight_one and any(e.weight != 1 for e in edges):
        return None
    return vertices, edges


def _parse_lines(text: str, expect_weight_one: bool):
    """The positional reader: line by line, each error at its line and its token's column."""
    vertices: list[str] = []
    edges: list[EdgeRecord] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()

        def column(k: int) -> int:
            start = 0  # past the tokens before parts[k], which may hold it too
            for part in parts[:k]:
                start = raw.find(part, start) + len(part)
            return raw.find(parts[k], start) + 1

        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphSyntaxError(lineno, 1, "expected: vertex <id>")
            vid = parts[1]
            if not _ID_RE.match(vid):
                raise GraphSyntaxError(lineno, column(1), f"bad id {vid!r}")
            vertices.append(vid)
        elif parts[0] == "edge":
            if len(parts) not in (4, 5):
                raise GraphSyntaxError(
                    lineno, 1, "expected: edge <id> <source> <range> [<weight>]"
                )
            eid, src, rng = parts[1], parts[2], parts[3]
            for k in (1, 2, 3):
                if not _ID_RE.match(parts[k]):
                    raise GraphSyntaxError(lineno, column(k), f"bad id {parts[k]!r}")
            if len(parts) == 5:
                try:
                    weight = parse_natural(parts[4])
                except ValueError:
                    raise GraphSyntaxError(lineno, column(4),
                                           f"bad weight {parts[4]!r}") from None
            else:
                weight = 1
            if expect_weight_one and weight != 1:
                raise BadWeightError(
                    f"line {lineno}: edge {eid!r} has weight {weight} in an "
                    "unweighted graph"
                )
            edges.append(EdgeRecord(eid, src, rng, weight))
        else:
            raise GraphSyntaxError(
                lineno, column(0), f"unknown directive {parts[0]!r}"
            )
    return vertices, edges


def parse_weighted_graph(text: str) -> WeightedGraph:
    """Parse the line-based graph format.

    Blank lines and lines starting with ``#`` are ignored.  Edge weights
    default to 1 when the weight column is omitted.
    """
    vertices, edges = _scan_lines(text, False) or _parse_lines(text, False)
    return WeightedGraph(vertices, edges)


def parse_graph(text: str) -> Graph:
    """Parse an unweighted graph; any explicit weight must be 1."""
    vertices, edges = _scan_lines(text, True) or _parse_lines(text, True)
    return Graph(vertices, edges)


def serialize_weighted_graph(g: WeightedGraph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.id} {e.source} {e.range} {e.weight}" for e in g.edges]
    return "\n".join(lines) + "\n"


def serialize_graph(g: Graph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.id} {e.source} {e.range}" for e in g.edges]
    return "\n".join(lines) + "\n"


def graph_to_records(g: WeightedGraph) -> dict:
    """Machine-readable form mirroring the text format fields."""
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "source": e.source, "range": e.range, "weight": e.weight}
            for e in g.edges
        ],
    }


def weighted_graph_from_records(records: dict) -> WeightedGraph:
    """Inverse of :func:`graph_to_records`; a weight is read as the text parser reads it.

    A fault is reported in input order: before a bad weight is reported,
    the graph of the edges read so far and this edge at weight 1 is built,
    so an earlier fault, or this edge's own id or endpoint fault, is raised
    first.
    """
    edges = []
    for e in records["edges"]:
        eid, source, range_ = e["id"], e["source"], e["range"]
        try:
            weight = parse_natural(str(e.get("weight", 1)))
        except ValueError:
            WeightedGraph(records["vertices"], [*edges, EdgeRecord(eid, source, range_)])
            raise BadWeightError(f"edge {eid!r}: bad weight {e['weight']!r}") from None
        edges.append(EdgeRecord(eid, source, range_, weight))
    return WeightedGraph(records["vertices"], edges)


# -- graph-theoretic primitives ----------------------------------------------


def weighted_edges(g: WeightedGraph) -> tuple[EdgeRecord, ...]:
    """The edges of weight > 1, in graph order."""
    return tuple(e for e in g.edges if e.weight > 1)


def breadth_first(g: WeightedGraph, roots: Iterable[str]) -> dict[str, Optional[EdgeRecord]]:
    """Breadth-first search from ``roots``: the one graph walk of the package.

    Maps each reached vertex, in discovery order, to the edge that first
    reached it, and each root to None.  Out-edges are explored in graph
    order, so :func:`path_to` reads back a shortest path, the first one
    found.  From the ranges of the weighted edges it searches the zone of
    (LPA) once per command (:func:`~wlpa.lpa._decide_lpa`), for
    ``check_lpa``, ``witness_nodpath`` and ``make_ranges_sinks``;
    ``to_unweighted`` searches it again, by :func:`tree`, for its trace.
    """
    parents: dict[str, Optional[EdgeRecord]] = {}
    for v in roots:
        g._require_vertex(v)
        parents.setdefault(v, None)
    queue = list(parents)
    for w in queue:  # the loop also visits what it appends
        for e in g._out[w]:
            if e.range not in parents:
                parents[e.range] = e
                queue.append(e.range)
    return parents


def path_to(parents: dict[str, Optional[EdgeRecord]], v: str) -> GraphPath:
    """The path of a :func:`breadth_first` search from its root to ``v``."""
    edges = []
    e = parents[v]
    while e is not None:
        edges.append(e.id)
        e = parents[e.source]
    return GraphPath.of(edges[::-1]) if edges else GraphPath.at(v)


def reaches(g: WeightedGraph, u: str, v: str) -> bool:
    """True iff a path (possibly of length 0) leads from ``u`` to ``v``.

    A membership test on the :func:`breadth_first` search from ``u``.
    """
    g._require_vertex(u)
    g._require_vertex(v)
    return v in breadth_first(g, [u])


def tree(g: WeightedGraph, roots: Iterable[str]) -> tuple[str, ...]:
    """All vertices reachable from ``roots`` (including the roots).

    The vertices of the :func:`breadth_first` search, in graph order.
    """
    reached = breadth_first(g, roots)
    return tuple(v for v in g.vertices if v in reached)


def cyclic_components(g: WeightedGraph, within: Iterable[str],
                      avoid: Optional[str] = None) -> list[tuple[str, ...]]:
    """The strongly connected components of ``within`` that carry a cycle.

    ``avoid`` is an edge id whose edge is treated as deleted, and cycles
    must stay inside ``within``.  A component carries a cycle iff it has two
    or more vertices or a self-loop; the components come from one iterative
    pass of Tarjan's algorithm, so deep graphs need no recursion.  Each
    component lists its vertices in graph order, and the components are
    ordered by their first vertex.  :func:`~wlpa.lpa.check_lpa` and
    :func:`~wlpa.lpa.witness_nodpath` call it once on the zone search that
    decided a graph fails (LPA), then once on each weighted edge's own
    component that they reach, with that edge as ``avoid``.
    """
    inside = dict.fromkeys(within)
    for v in inside:
        g._require_vertex(v)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    looped: set[str] = set()
    out: list[tuple[str, ...]] = []
    for root in inside:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(g._out[root]))]
        while work:
            v, edges = work[-1]
            for e in edges:
                w = e.range
                if e.id == avoid or w not in inside:
                    continue
                if w == v:
                    looped.add(v)
                elif w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g._out[w])))
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    if len(component) > 1 or v in looped:
                        out.append(tuple(sorted(component, key=g._vertex_index.__getitem__)))
    out.sort(key=lambda component: g._vertex_index[component[0]])
    return out


def shortest_cycle(g: WeightedGraph, base: str, within: Iterable[str],
                   avoid: Optional[str] = None) -> Optional[GraphPath]:
    """A shortest cycle based at ``base`` inside ``within`` that avoids ``avoid``.

    A breadth-first search from ``base`` over the edges between vertices of
    ``within``, out-edges in graph order; the first edge found that closes
    at ``base`` ends it, so a self-loop at ``base`` wins.  Searching one
    strongly connected component costs O(V+E) of that component.  Returns
    None when no such cycle exists.
    """
    inside = set(within)
    g._require_vertex(base)
    parents: dict[str, Optional[EdgeRecord]] = {base: None}
    queue = [base]
    for w in queue:  # the loop also visits what it appends
        for e in g._out[w]:
            if e.id == avoid or e.range not in inside:
                continue
            if e.range == base:
                return GraphPath.of(path_to(parents, w).edges + (e.id,))
            if e.range not in parents:
                parents[e.range] = e
                queue.append(e.range)
    return None


def cycles_through(g: WeightedGraph, v: str) -> list[GraphPath]:
    """All cycles based at ``v``: closed paths with pairwise distinct sources.

    Cycles are returned in depth-first order with edges explored in graph
    order, so the output is deterministic.  A cycle equal to another up to
    rotation but based elsewhere is a different object and is not returned
    here.  The walk keeps an explicit stack, so long cycles need no
    recursion, but the output can be exponential in the graph size: the
    package itself decides (LPA) with :func:`cyclic_components` and
    :func:`shortest_cycle` instead, and keeps this enumeration public for
    callers that want every cycle.
    """
    g._require_vertex(v)
    out: list[GraphPath] = []
    path: list[str] = []
    seen = {v}
    walk = [(v, iter(g._out[v]))]
    while walk:
        current, edges = walk[-1]
        for e in edges:
            if e.range == v:
                out.append(GraphPath.of(path + [e.id]))
            elif e.range not in seen:
                path.append(e.id)
                seen.add(e.range)
                walk.append((e.range, iter(g._out[e.range])))
                break
        else:
            walk.pop()
            if walk:
                path.pop()
                seen.discard(current)
    return out
