"""Seeded random and exhaustive graph generators for the test-suite."""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from random import Random

from hypothesis import strategies as st

from wlpa import EdgeRecord, SpecialEdgeChoice, WeightedGraph, check_lpa

from oracles import out_edges


def random_weighted_graph(rng: Random, max_vertices=5, max_edges=6, max_weight=3,
                          min_vertices=1) -> WeightedGraph:
    nv = rng.randint(min_vertices, max_vertices)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    ne = rng.randint(0, max_edges)
    edges = [
        EdgeRecord(
            f"e{k}",
            rng.choice(vertices),
            rng.choice(vertices),
            rng.randint(1, max_weight),
        )
        for k in range(1, ne + 1)
    ]
    return WeightedGraph(vertices, edges)


def random_unweighted_graph(rng: Random, max_vertices=6, max_edges=10) -> WeightedGraph:
    return random_weighted_graph(rng, max_vertices, max_edges, max_weight=1)


def random_lpa_satisfying_graph(rng: Random, max_vertices=6, max_edges=8,
                                max_weight=3) -> WeightedGraph:
    """A random graph satisfying Condition (LPA), by construction.

    Layout: optional sink-terminated chains fed by at most one weighted
    edge each from a free region, chain edges occasionally weighted, free
    region otherwise arbitrary and unweighted.  The result is re-checked;
    a check failure here would mean the generator or the checker is wrong.
    """
    nv = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    n_chains = rng.choice([0, 1, 1, 2]) if nv >= 3 else rng.choice([0, 1])

    chain_vertices: list[list[str]] = []
    free = list(vertices)
    for _ in range(n_chains):
        if len(free) <= 1:
            break
        size = rng.randint(1, min(3, len(free) - 1))
        chain = [free.pop() for _ in range(size)]
        chain_vertices.append(chain)

    edges: list[EdgeRecord] = []

    def eid() -> str:
        return f"e{len(edges) + 1}"

    budget = rng.randint(1, max_edges)
    head_sources = []
    for chain in chain_vertices:
        # at most one weighted entry per chain, from a fresh free source
        candidates = [v for v in free if v not in head_sources]
        if candidates and len(edges) < budget and rng.random() < 0.9:
            src = rng.choice(candidates)
            head_sources.append(src)
            edges.append(EdgeRecord(eid(), src, chain[0], rng.randint(2, max_weight)))
        for a, b in zip(chain, chain[1:]):
            if len(edges) >= budget:
                break
            weight = rng.randint(2, max_weight) if rng.random() < 0.25 else 1
            edges.append(EdgeRecord(eid(), a, b, weight))

    chain_all = [v for chain in chain_vertices for v in chain]
    while len(edges) < budget and free:
        src = rng.choice(free)
        dst = rng.choice(free + chain_all)
        edges.append(EdgeRecord(eid(), src, dst, 1))

    g = WeightedGraph(vertices, edges)
    report = check_lpa(g)
    if not report.satisfied:
        raise AssertionError(
            "constructive generator produced an (LPA)-violating graph:\n"
            + report.describe()
        )
    return g


def random_lpa_failing_graph(rng: Random, max_vertices=5, max_edges=6,
                             max_weight=3) -> WeightedGraph:
    """A random graph violating Condition (LPA), by rejection."""
    while True:
        g = random_weighted_graph(rng, max_vertices, max_edges, max_weight)
        if not check_lpa(g).satisfied:
            return g


@st.composite
def multigraphs(draw):
    """A hypothesis strategy: few vertices, so parallel edges, self-loops, sinks and ties are common."""
    vertices = [f"v{i}" for i in range(1, draw(st.integers(1, 5)) + 1)]
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from([1, 1, 2, 3])), max_size=8))
    return WeightedGraph(vertices, [EdgeRecord(f"e{k}", s, r, w)
                                    for k, (s, r, w) in enumerate(edges, 1)])


def weighted_ring(n: int, weights: dict[int, int]) -> WeightedGraph:
    """The directed n-cycle v0 -> v1 -> ... -> v0; edge i gets ``weights.get(i, 1)``.

    It satisfies Condition (LPA): every vertex emits one edge, and the only
    cycle contains every weighted edge.
    """
    vertices = [f"v{i}" for i in range(n)]
    edges = [EdgeRecord(f"e{i}", f"v{i}", f"v{(i + 1) % n}", weights.get(i, 1))
             for i in range(n)]
    return WeightedGraph(vertices, edges)


def chord_ladder(n: int) -> WeightedGraph:
    """A ring c0 -> c1 -> ... -> c0 of n vertices with a chord c_i -> c_(i+2)
    at every even i, entered from an outside vertex u by the weight-2 edge
    h into c0.

    It fails LPA2 at every chord vertex and LPA4 once: exponentially many
    ring cycles avoid h, all in one strongly connected component.
    """
    vertices = [f"c{i}" for i in range(n)] + ["u"]
    edges = [EdgeRecord(f"r{i}", f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
    edges += [EdgeRecord(f"k{i}", f"c{i}", f"c{(i + 2) % n}") for i in range(0, n, 2)]
    edges.append(EdgeRecord("h", "u", "c0", 2))
    return WeightedGraph(vertices, edges)


def weighted_fan(k: int) -> WeightedGraph:
    """k weight-2 edges h_i: s_i -> r_i whose ranges feed the trunk t0 -> t1.

    Range r_i enters the trunk at t_(i mod 2).  No source has an incoming
    edge, so no two weighted edges are in line, yet every pair of range
    trees meets at t1: (LPA) fails through LPA3 only, k(k-1)/2 times.
    """
    vertices = ["t0", "t1"]
    edges = [EdgeRecord("u", "t0", "t1", 1)]
    for i in range(k):
        vertices += [f"s{i}", f"r{i}"]
        edges += [EdgeRecord(f"h{i}", f"s{i}", f"r{i}", 2),
                  EdgeRecord(f"c{i}", f"r{i}", f"t{i % 2}", 1)]
    return WeightedGraph(vertices, edges)


def small_graphs(max_vertices: int, max_edges: int, max_weight: int):
    """All graphs up to the given size, deduplicated up to isomorphism.

    Vertex names are v1..vn and edges e1..ek in a canonical order, so the
    enumeration is deterministic.
    """
    seen = set()
    for nv in range(1, max_vertices + 1):
        vertices = [f"v{i}" for i in range(1, nv + 1)]
        configs = [
            (s, r, w)
            for s in range(nv)
            for r in range(nv)
            for w in range(1, max_weight + 1)
        ]
        for ne in range(0, max_edges + 1):
            for combo in combinations_with_replacement(configs, ne):
                key = min(
                    tuple(sorted((p[s], p[r], w) for s, r, w in combo))
                    for p in permutations(range(nv))
                )
                if (nv, key) in seen:
                    continue
                seen.add((nv, key))
                edges = [
                    EdgeRecord(f"e{k}", vertices[s], vertices[r], w)
                    for k, (s, r, w) in enumerate(sorted(combo), 1)
                ]
                yield WeightedGraph(vertices, edges)


def relabeled(rng: Random, g: WeightedGraph) -> WeightedGraph:
    """Rename vertices/edges bijectively and shuffle declaration order."""
    vmap = {v: f"w{k}" for k, v in enumerate(rng.sample(g.vertices, len(g.vertices)))}
    emap = {e.id: f"f{k}" for k, e in enumerate(rng.sample(g.edges, len(g.edges)))}
    vertices = rng.sample([vmap[v] for v in g.vertices], len(g.vertices))
    edges = rng.sample(
        [
            EdgeRecord(emap[e.id], vmap[e.source], vmap[e.range], e.weight)
            for e in g.edges
        ],
        len(g.edges),
    )
    return WeightedGraph(vertices, edges)


def _last_maximal_choice(g: WeightedGraph) -> SpecialEdgeChoice:
    """For each non-sink vertex the last emitted edge of maximal weight."""
    pairs = []
    for v in g.vertices:
        out = out_edges(g, v)
        if out:
            wv = max(e.weight for e in out)
            pairs.append((v, [e.id for e in out if e.weight == wv][-1]))
    return SpecialEdgeChoice(tuple(pairs))
