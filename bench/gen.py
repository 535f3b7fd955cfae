"""Seeded graph families for the benchmark workloads.

Every generator takes a ``random.Random`` and a vertex count and returns a
:class:`Case`: the graph as edge tuples, its serialized text, and the
Condition (LPA) verdict that holds by construction.  No generator calls the
package under test; the program only ever sees ``Case.text``.

The seed changes vertex and edge names, declaration order and the placement
of weighted edges, but each family fixes its vertex count, edge count and
multiset of weights per size, so the work a case costs varies little
between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random


@dataclass(frozen=True)
class Case:
    family: str
    size: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str, int], ...]  # (id, source, range, weight)
    satisfied: bool

    @property
    def text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e} {s} {r} {w}" for e, s, r, w in self.edges]
        return "\n".join(lines) + "\n"


def _finish(rng: Random, family: str, nv: int, edges, satisfied: bool) -> Case:
    """Give vertices and edges seeded names and a seeded declaration order."""
    vnames = [f"v{k}" for k in rng.sample(range(nv), nv)]
    enames = [f"e{k}" for k in rng.sample(range(len(edges)), len(edges))]
    vertices = rng.sample(vnames, nv)
    named = [(enames[k], vnames[s], vnames[r], w) for k, (s, r, w) in enumerate(edges)]
    rng.shuffle(named)
    return Case(family, nv, tuple(vertices), tuple(named), satisfied)


def _weights(rng: Random, k: int) -> list[int]:
    """k weights alternating 2 and 3, in seeded order."""
    out = [2 + (i % 2) for i in range(k)]
    rng.shuffle(out)
    return out


def sat_graph(rng: Random, n: int) -> Case:
    """Unweighted free region feeding sink chains through weighted entries.

    Chains have 4 vertices and end in a sink; each chain is entered by one
    weight-2 or weight-3 edge from its own free source, and half of the
    chains carry one weight-2 edge inside.  The free region gets 2 random
    unweighted edges per vertex plus one unweighted edge into a chain per
    chain.  Satisfies (LPA): the zone is the chains, whose vertices emit
    one edge each and hold no cycle, and two entries never share a tree.
    """
    n_chains = max(1, n // 10)
    free = list(range(n - 4 * n_chains))
    chains = [list(range(len(free) + 4 * j, len(free) + 4 * j + 4)) for j in range(n_chains)]
    edges = []
    inner = set(rng.sample(range(n_chains), n_chains // 2))
    for j, chain in enumerate(chains):
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            edges.append((a, b, 2 if j in inner and i == 1 else 1))
    for src, chain, w in zip(rng.sample(free, n_chains), chains, _weights(rng, n_chains)):
        edges.append((src, chain[0], w))
    for _ in range(2 * len(free)):
        edges.append((rng.choice(free), rng.choice(free), 1))
    chain_vertices = [v for chain in chains for v in chain]
    for _ in range(n_chains):
        edges.append((rng.choice(free), rng.choice(chain_vertices), 1))
    return _finish(rng, "sat", n, edges, True)


def weighted_ring(rng: Random, n: int) -> Case:
    """A directed n-cycle with 3 weighted edges on it; satisfies (LPA).

    The zone is the whole ring, every vertex emits one edge and the only
    cycle contains every weighted edge.
    """
    edges = [(i, (i + 1) % n, 1) for i in range(n)]
    for pos, w in zip(rng.sample(range(n), 3), _weights(rng, 3)):
        edges[pos] = (pos, (pos + 1) % n, w)
    return _finish(rng, "ring", n, edges, True)


def lpa3_fan(rng: Random, n: int) -> Case:
    """k = n // 10 weighted edges whose ranges feed one shared trunk.

    Sources have no incoming edge, so no two weighted edges are in line,
    yet every pair of range trees meets on the trunk: (LPA) fails through
    LPA3 only.  Ranges attach at evenly spaced trunk positions.
    """
    k = max(2, n // 10)
    m = n - 2 * k
    sources, ranges = range(k), range(k, 2 * k)
    trunk = list(range(2 * k, n))
    edges = [(a, b, 1) for a, b in zip(trunk, trunk[1:])]
    attach = [trunk[i * m // k] for i in range(k)]
    rng.shuffle(attach)
    for s, r, t, w in zip(sources, ranges, attach, _weights(rng, k)):
        edges.append((s, r, w))
        edges.append((r, t, 1))
    return _finish(rng, "lpa3-fan", n, edges, False)


def chord_ladder(rng: Random, n: int) -> Case:
    """A ring of n - 1 vertices with a chord at every other vertex.

    One outside vertex enters the ring by a weight-2 edge.  The chord
    vertices break LPA2, and the exponentially many ring cycles avoid the
    weighted edge, breaking LPA4.
    """
    m = n - 1
    edges = [(i, (i + 1) % m, 1) for i in range(m)]
    edges += [(i, (i + 2) % m, 1) for i in range(0, m, 2)]
    edges.append((m, rng.randrange(m), 2))
    return _finish(rng, "chord-ladder", n, edges, False)


def lpa12_graph(rng: Random, n: int) -> Case:
    """A sat-style graph with LPA1 and LPA2 gadgets added.

    Half the vertices form sink chains of 4 entered by weighted edges.  The
    LPA1 gadgets make one free vertex enter two chains; the LPA2 gadgets
    give a chain vertex a second edge into a later chain, which can also
    break LPA3.  Zone edges only go forward, so there is no zone cycle.
    """
    n_chains = max(2, (n // 2) // 4)
    n_free = n - 4 * n_chains
    free = list(range(n_free))
    chains = [list(range(n_free + 4 * j, n_free + 4 * j + 4)) for j in range(n_chains)]
    gadgets = max(1, n // 25)
    edges = []
    for chain in chains:
        edges += [(a, b, 1) for a, b in zip(chain, chain[1:])]
    sources = rng.sample(free, n_chains - gadgets)
    sources += rng.sample(sources, gadgets)
    for src, chain, w in zip(sources, chains, _weights(rng, n_chains)):
        edges.append((src, chain[0], w))
    for _ in range(gadgets):
        j = rng.randrange(n_chains - 1)
        later = [v for chain in chains[j + 1:] for v in chain]
        edges.append((rng.choice(chains[j][:3]), rng.choice(later), 1))
    for _ in range(2 * n_free):
        edges.append((rng.choice(free), rng.choice(free), 1))
    return _finish(rng, "lpa12", n, edges, False)


def unweighted_graph(rng: Random, n: int) -> Case:
    """A random unweighted graph with 2 edges per vertex; satisfies (LPA)."""
    edges = [(rng.randrange(n), rng.randrange(n), 1) for _ in range(2 * n)]
    return _finish(rng, "unweighted", n, edges, True)


FAMILIES = {
    "sat": sat_graph,
    "ring": weighted_ring,
    "lpa3-fan": lpa3_fan,
    "chord-ladder": chord_ladder,
    "lpa12": lpa12_graph,
    "unweighted": unweighted_graph,
}


def cases(seed: int, plan) -> list[Case]:
    """One case per (family, size) of ``plan``, each from its own stream."""
    return [
        FAMILIES[family](Random(f"{seed}/{family}/{size}"), size)
        for family, size in plan
    ]
