"""Independent references for the benchmark's output checks.

Everything here is computed from a generated :class:`gen.Case` and the
definitions in the paper (arXiv 1907.02817), never by calling the package
under test: reachability by breadth-first search, LPA4 by cycle detection
instead of cycle enumeration, the stage-2 size from the construction's
formula, and nod-words from the composition rule and the two forbidden
factors ``e_1^* f_1`` and ``e^v_i (e^v_j)^*``.
"""

from __future__ import annotations

from collections import deque


class Shape:
    """Adjacency of a case, with declaration order kept."""

    def __init__(self, case):
        self.vertices = case.vertices
        self.edges = {e: (s, r, w) for e, s, r, w in case.edges}
        self.out = {v: [] for v in case.vertices}
        for e, s, r, w in case.edges:
            self.out[s].append(e)

    def reach(self, roots) -> set:
        seen = set(roots)
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for e in self.out[v]:
                r = self.edges[e][1]
                if r not in seen:
                    seen.add(r)
                    queue.append(r)
        return seen

    def heavy(self) -> list:
        return [e for e, (s, r, w) in self.edges.items() if w > 1]

    def special(self) -> dict:
        """Default special edge per non-sink: first emitted of maximal weight."""
        out = {}
        for v, emitted in self.out.items():
            if emitted:
                top = max(self.edges[e][2] for e in emitted)
                out[v] = next(e for e in emitted if self.edges[e][2] == top)
        return out


def _has_cycle(shape: Shape, inside: set, skip_edge: str) -> bool:
    """Kahn's algorithm on the subgraph induced by ``inside`` minus one edge."""
    indeg = {v: 0 for v in inside}
    for e, (s, r, _) in shape.edges.items():
        if e != skip_edge and s in inside and r in inside:
            indeg[r] += 1
    queue = deque(v for v, d in indeg.items() if d == 0)
    removed = 0
    while queue:
        v = queue.popleft()
        removed += 1
        for e in shape.out[v]:
            r = shape.edges[e][1]
            if e != skip_edge and r in inside:
                indeg[r] -= 1
                if indeg[r] == 0:
                    queue.append(r)
    return removed < len(inside)


def lpa_kinds(case) -> set:
    """The (LPA) conditions the case violates, decided from the definitions.

    LPA4 holds for a weighted edge e iff the subgraph on T(r(e)) without e
    is acyclic: a cycle based in T(r(e)) stays inside T(r(e)).
    """
    g = Shape(case)
    heavy = g.heavy()
    kinds = set()
    if any(sum(1 for e in out if g.edges[e][2] > 1) > 1 for out in g.out.values()):
        kinds.add("LPA1")
    trees = {e: g.reach([g.edges[e][1]]) for e in heavy}
    zone = set().union(*trees.values())
    if any(len(g.out[v]) > 1 for v in zone):
        kinds.add("LPA2")
    for i, e in enumerate(heavy):
        for f in heavy[i + 1:]:
            in_line = g.edges[f][0] in trees[e] or g.edges[e][0] in trees[f]
            if not in_line and trees[e] & trees[f]:
                kinds.add("LPA3")
    if any(_has_cycle(g, trees[e], e) for e in heavy):
        kinds.add("LPA4")
    return kinds


def stage2_counts(case) -> tuple[int, int]:
    """Vertex and edge counts of the unweighted graph the compile must emit.

    Stage 1 turns every edge emitted in Z = T(r(weighted)) into w(e)
    reversed weight-1 strands; the weighted edges left are the entries W
    from outside Z.  Stage 2 splits each range of an entry e into w(e)
    copies: an entry becomes w(e) edges and an unweighted edge into a split
    vertex fans out over its copies.
    """
    g = Shape(case)
    zone = g.reach([g.edges[e][1] for e in g.heavy()])
    copies = {}
    for e, (s, r, w) in g.edges.items():
        if w > 1 and s not in zone:
            copies[r] = w
    n_vertices = len(g.vertices) - len(copies) + sum(copies.values())
    n_edges = 0
    for e, (s, r, w) in g.edges.items():
        if s in zone:
            n_edges += w * copies.get(s, 1)
        elif w > 1:
            n_edges += w
        else:
            n_edges += copies.get(r, 1)
    return n_vertices, n_edges


# -- nod-words ------------------------------------------------------------------


class Letters:
    """Edge and star letters of a case with their endpoints."""

    def __init__(self, case):
        self.shape = Shape(case)
        self.special = self.shape.special()
        self.ends = {}  # (kind, edge, index) -> (source, range)
        for e, (s, r, w) in self.shape.edges.items():
            for i in range(1, w + 1):
                self.ends[("edge", e, i)] = (s, r)
                self.ends[("star", e, i)] = (r, s)
        self.starting = {v: [] for v in case.vertices}
        for letter, (s, _) in self.ends.items():
            self.starting[s].append(letter)

    def allowed(self, a, b) -> bool:
        """b may follow a in a nod-word: they compose and form no forbidden factor."""
        if self.ends[a][1] != self.ends[b][0]:
            return False
        if a[0] == "star" and b[0] == "edge" and a[2] == 1 and b[2] == 1:
            return False
        if a[0] == "edge" and b[0] == "star" and a[1] == b[1]:
            return self.special.get(self.ends[a][0]) != a[1]
        return True

    def successors(self) -> dict:
        return {
            a: [b for b in self.starting[self.ends[a][1]] if self.allowed(a, b)]
            for a in self.ends
        }


def parse_token(token: str):
    """``e.2`` -> ("edge", "e", 2), ``e.2*`` -> ("star", "e", 2), else a vertex."""
    name, dot, rest = token.rpartition(".")
    if not dot:
        return ("vertex", token, 0)
    star = rest.endswith("*")
    return ("star" if star else "edge", name, int(rest.rstrip("*")))


def word_problem(letters: Letters, tokens) -> str | None:
    """Why ``tokens`` is not a nod-word of length >= 1, or None."""
    word = [parse_token(t) for t in tokens]
    if len(word) == 1 and word[0][0] == "vertex":
        return None if word[0][1] in letters.starting else "unknown vertex"
    for a in word:
        if a not in letters.ends:
            return f"not an edge letter: {a}"
    for a, b in zip(word, word[1:]):
        if not letters.allowed(a, b):
            return f"factor {a} {b} does not compose or is forbidden"
    return None


def witness_problem(letters: Letters, tokens) -> str | None:
    """Why ``tokens`` is not a nod-word ``e.2 ... e.2*`` over one weighted e."""
    if not tokens or len(tokens) < 2:
        return "witness shorter than two letters"
    first, last = parse_token(tokens[0]), parse_token(tokens[-1])
    if first[0] != "edge" or first[2] != 2 or last != ("star", first[1], 2):
        return f"witness is not shaped e.2 ... e.2*: {tokens[0]} ... {tokens[-1]}"
    return word_problem(letters, tokens)


def growth_table(letters: Letters, max_len: int) -> list[int]:
    """Number of nod-words of length <= n, for n = 0 .. max_len."""
    succ = letters.successors()
    counts = {a: 1 for a in letters.ends}
    total = len(letters.shape.vertices)
    table = [total]
    for _ in range(max_len):
        total += sum(counts.values())
        table.append(total)
        nxt = {}
        for a, c in counts.items():
            for b in succ[a]:
                nxt[b] = nxt.get(b, 0) + c
        counts = nxt
    return table


def zero_degree_table(letters: Letters, max_len: int) -> list[int]:
    """Number of nod-words of length <= n with degree zero, n = 0 .. max_len.

    The degree of ``e_i`` is +1 and of ``e_i^*`` is -1 in coordinate i.
    """
    succ = letters.successors()

    def shift(deg, letter):
        d = dict(deg)
        d[letter[2]] = d.get(letter[2], 0) + (1 if letter[0] == "edge" else -1)
        return frozenset((k, v) for k, v in d.items() if v)

    states = {}
    for a in letters.ends:
        key = (a, shift((), a))
        states[key] = states.get(key, 0) + 1
    total = len(letters.shape.vertices)
    table = [total]
    for length in range(1, max_len + 1):
        total += sum(c for (_, deg), c in states.items() if not deg)
        table.append(total)
        remaining = max_len - length
        nxt = {}
        for (a, deg), c in states.items():
            for b in succ[a]:
                deg2 = shift(deg, b)
                if sum(abs(v) for _, v in deg2) <= remaining:
                    nxt[(b, deg2)] = nxt.get((b, deg2), 0) + c
        states = nxt
    return table
