"""Exact arithmetic in weighted Leavitt path algebras via nod-word normal forms.

An :class:`Algebra` fixes a weighted graph, a choice of special edges and a
scalar field.  The generators are the vertices ``v``, the edge strands
``e_i`` and their stars ``e_i^*`` (``1 <= i <= w(e)``), with the source and
range conventions ``s(e_i) = s(e)``, ``r(e_i) = r(e)``, ``s(e_i^*) = r(e)``,
``r(e_i^*) = s(e)`` and ``s(v) = r(v) = v``.

Elements are kept as finitely supported combinations of nod-words: d-paths
(words whose consecutive letters compose) containing no forbidden length-2
factor.  The forbidden factors are ``e^v_i (e^v_j)^*`` for the special edge
``e^v`` of a vertex and ``e_1^* f_1`` for arbitrary edges.  Normalization
rewrites with the defining relations oriented so that exactly these factors
are eliminated:

* non-composable adjacent letters give 0, and a vertex letter next to a
  letter it composes with is absorbed: ``v v -> v``, ``s(a) a -> a``,
  ``a r(a) -> a``,
* ``e_1^* f_1 -> d_ef r(e) - sum_{i >= 2} e_i^* f_i``   (same-source e, f),
* ``s_i s_j^* -> d_ij v - sum_{g != s} g_i g_j^*``       (s special at v),

where strand indices beyond an edge's weight are dropped.  Each step
strictly decreases (word length, number of index-1 star letters, number of
special factors) lexicographically, so rewriting terminates.  Only
:meth:`Algebra._product` rewrites a pair; normal forms fold it over a
word's letters from either side, and comparing the two folds exercises
confluence.

Endpoint tests decide the first kind of step; only pairs of non-vertex
letters meeting at a shared vertex have a stored rule: the (iii) or (iv)
relation it orients, ``(others, rhs)``, whose leading pair equals the
vertex letter ``rhs`` (None for 0) minus the sum of the letter pairs
``others``, so no coefficient is stored.  The table has at most sum_v
in(v) out(v) entries for in(v)/out(v) non-vertex letters ending/starting
at v, not one per pair of letters.  It is the one description of relations
(iii) and (iv): the relation checks read each rule as one instance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Optional

from .fields import RATIONALS, ModInt, PrimeField, Rationals
from .graphs import WeightedGraph, _edge_weights


class AlgebraError(ValueError):
    pass


class UnknownGeneratorError(AlgebraError):
    pass


class MixedContextError(AlgebraError):
    pass


class BudgetExceededError(AlgebraError):
    def __init__(self, budget: int):
        super().__init__(f"enumeration exceeded the budget of {budget} words")
        self.budget = budget


class _Sentinel:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


NOT_HOMOGENEOUS = _Sentinel("NOT_HOMOGENEOUS")
ZERO_ELEMENT = _Sentinel("ZERO_ELEMENT")


class Generator(NamedTuple):
    """A single letter: a vertex, an edge strand or a starred edge strand.

    It is its own ``(kind, name, index)`` key, so it equals that plain tuple.
    """

    kind: str  # "vertex" | "edge" | "star"
    name: str
    index: int = 0

    @classmethod
    def vertex(cls, v: str) -> "Generator":
        return cls("vertex", v)

    @classmethod
    def edge(cls, e: str, i: int) -> "Generator":
        return cls("edge", e, i)

    @classmethod
    def star(cls, e: str, i: int) -> "Generator":
        return cls("star", e, i)

    def token(self) -> str:
        if self.kind == "vertex":
            return self.name
        star = "*" if self.kind == "star" else ""
        return f"{self.name}.{self.index}{star}"

    def __repr__(self):
        return f"Generator({self.token()!r})"


Word = tuple[Generator, ...]


class SpecialEdgeChoice(NamedTuple):
    """A fixed special edge per non-sink vertex, of maximal weight there."""

    pairs: tuple[tuple[str, str], ...]

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)


def default_special_edges(g: WeightedGraph) -> SpecialEdgeChoice:
    """For each non-sink vertex the first emitted edge of maximal weight.

    One pass over the out-lists ``g._out``, in vertex order: ``max``
    returns the first edge of maximal weight, in graph order.
    """
    return SpecialEdgeChoice(tuple((v, max(out, key=_edge_weights).id)
                                   for v, out in g._out.items() if out))


def validate_choice(g: WeightedGraph, choice: SpecialEdgeChoice) -> None:
    """Raise :class:`AlgebraError` unless ``choice`` fixes a special edge exactly at the non-sinks.

    One pass over the out-lists ``g._out``, in vertex order; keys of
    ``choice`` that are no vertex are ignored, as by :func:`_letters`, its
    one reader past this check, once, per vertex.  At each vertex the checks
    run in this order: a sink has no special edge; a non-sink has one; it
    is an edge of ``g`` (else :class:`UnknownEdgeError`), emitted by the
    vertex and of the vertex's maximal weight.
    """
    mapping = choice.mapping
    for v, out in g._out.items():
        if not out:
            if v in mapping:
                raise AlgebraError(f"special edge fixed for sink {v!r}")
            continue
        if v not in mapping:
            raise AlgebraError(f"no special edge fixed for non-sink {v!r}")
        e = g.edge(mapping[v])
        if e.source != v:
            raise AlgebraError(f"special edge {e.id!r} is not emitted by {v!r}")
        # an edge emitted by v is in out, so a lone one has the maximal weight
        if len(out) > 1 and e.weight != (wv := max(map(_edge_weights, out))):
            raise AlgebraError(
                f"special edge {e.id!r} has weight {e.weight}, "
                f"not the maximal weight {wv} at {v!r}"
            )


def _add_term(acc: dict, word: tuple[int, ...], coeff) -> None:
    prev = acc.get(word)  # not 0 + coeff: that builds a second Fraction
    total = coeff if prev is None else prev + coeff
    if total:
        acc[word] = total
    elif prev is not None:
        del acc[word]


def _letters(graph: WeightedGraph, choice: SpecialEdgeChoice):
    """The letters of ``graph`` in canonical order: their tables by letter id, and their layout.

    Canonical order: vertices in graph order, then per edge in graph order
    its strands ``e_i = b + i - 1`` and stars ``e_i^* = b + w + i - 1``
    (1 <= i <= w) from its base b.  Only this pass decides where a letter
    sits; every other table reads ids off what it returns: ``(id_of, src,
    rng, star_of, degree, out, bases, specials)``, the id of each letter's
    ``(kind, name, index)`` key (index 0 for a vertex) in id order; per
    letter its source and range vertex ids, its involute and its degree
    ``(i - 1, +-1)`` (None for a vertex); per vertex id its out-list of
    ``(edge id, weight, base, range id)``; per edge its base, both in
    graph order; and per vertex id the ``(w, b)`` of its special edge, or
    ``(0, 0)``: the one reading of the checked ``choice``, so a key that is
    no vertex is ignored.
    """
    id_of = {("vertex", v, 0): i for i, v in enumerate(graph.vertices)}
    nv = len(id_of)
    src, rng, star_of, degree = list(range(nv)), list(range(nv)), list(range(nv)), [None] * nv
    out: list[list[tuple[str, int, int, int]]] = [[] for _ in range(nv)]
    bases, special, specials = [], choice.mapping, [(0, 0)] * nv
    index = graph._vertex_index  # vertex k is letter k
    for e in graph.edges:
        w, s, r, b = e.weight, index[e.source], index[e.range], len(src)
        out[s].append((e.id, w, b, r))
        bases.append(b)
        if special.get(e.source) == e.id:
            specials[s] = (w, b)
        # e_i runs s -> r and its star, w ids later, r -> s
        for kind, start, end, shift, sign in (("edge", s, r, w, 1), ("star", r, s, -w, -1)):
            for i in range(1, w + 1):
                t = id_of[kind, e.id, i] = len(src)
                src.append(start)
                rng.append(end)
                star_of.append(t + shift)
                degree.append((i - 1, sign))
    return id_of, tuple(src), tuple(rng), tuple(star_of), tuple(degree), out, tuple(bases), specials


def _successors(src, rng, degree, specials):
    """The nod-word successors of a letter, as a function of its id.

    ``src``, ``rng``, ``degree`` and ``specials`` are the tables of
    :func:`_letters`, the one reading of the choice, per vertex.  A
    non-vertex letter a may be followed by the non-vertex letters b with
    s(b) = r(a), in id order, except for the leading pairs of the rules of
    :meth:`Algebra._build_pair_table`: after ``e_1^*``, every ``f_1`` that
    r(a) emits (a (iii) rule), and after a strand ``s_i`` of the special
    edge s at s(a), every ``s_j^*`` (a (iv) rule).  This one routine decides
    which letter may follow which, for the automaton :attr:`Algebra._succ`
    and for the witness search of :func:`~wlpa.lpa.witness_nodpath`.
    """
    starting: list[list[int]] = [[] for _ in specials]
    for b in range(len(specials), len(src)):
        starting[src[b]].append(b)

    def successors(a: int) -> tuple[int, ...]:
        after = starting[rng[a]]
        if degree[a] == (0, -1):  # e_1^* is followed by no f_1
            return tuple(b for b in after if degree[b] != (0, 1))
        w, base = specials[src[a]]  # the special edge s at s(a), (0, 0) at none
        if base <= a < base + w:  # a is some s_i, so no s_j^* follows
            return tuple(b for b in after if not base + w <= b < base + 2 * w)
        return tuple(after)

    return successors


class Algebra:
    """The weighted Leavitt path algebra of a graph over an exact field.

    ``__init__`` builds the special-edge choice (the default one unless
    given, checked by :func:`validate_choice` either way), the letter
    tables (one pass of :func:`_letters`, the one reading of the choice,
    per vertex, so a key that is no vertex is ignored) and, off them, the
    vertex-local rules of the non-vertex pairs (vertex letters are absorbed
    by endpoint tests): each rule is the relation it orients, ``(others,
    rhs)``, only :meth:`_product` rewrites with it, the relation checks read
    it as one (iii) or (iv) instance, and every other reader asks
    :meth:`_is_normal`.  These tables never change.  The nod-word automaton,
    :attr:`_succ`, reads no rule: :func:`_successors` gives it from the
    letter tables.  It is built on the first walk: only
    :meth:`nodword_counts` (behind :meth:`growth`,
    :meth:`zero_component_count`, the CLI tables and the basis budget) and
    :meth:`enumerate_nodwords` walk it.  The count store keeps the counts
    walked, so a request up to the length walked so far walks nothing.  The store and the
    normal-form memos (``_memo_left``, ``_memo_right``) of :meth:`_nf_word`
    only ever grow, so an instance must not be shared between threads
    without a lock.  Only words from outside reach the memos, one entry
    per whole word missed, through :meth:`normalize` (so every
    ``parse_element`` term); products, the relation checks,
    :func:`identity_map` and ``family_maps`` leave them as they are.  A
    letter is an id: ``_id_of`` maps its ``(kind, name, index)`` key to it,
    and a :class:`Generator`, a tuple of those fields, is its own key, so a
    word is interned with one lookup per letter.  Generators are made only
    for output, from the table :meth:`_generators` fills.
    """

    def __init__(self, graph: WeightedGraph, choice: Optional[SpecialEdgeChoice] = None,
                 field=RATIONALS):
        self.graph = graph
        self.choice = choice if choice is not None else default_special_edges(graph)
        validate_choice(graph, self.choice)
        self.field = field

        (self._id_of, self._src_id, self._rng_id, self._star_of, self._letter_degree,
         self._out_letters, self._edge_base, self._specials) = _letters(graph, self.choice)
        self._generator_table: Optional[tuple[Generator, ...]] = None  # filled on first use
        self._nv = len(graph.vertices)
        self._nonvertex_ids = tuple(range(self._nv, len(self._id_of)))
        self.grading_length = max((e.weight for e in graph.edges), default=0)
        self._build_pair_table()
        self._succ_table: Optional[dict[int, tuple[int, ...]]] = None  # built on the first walk
        self._memo_left: dict[tuple[int, ...], dict] = {}
        self._memo_right: dict[tuple[int, ...], dict] = {}
        # The count store of nodword_counts: the nod-words of each length
        # walked so far and the last layer, by last letter (None before the
        # first step, empty once no longer word exists); and the degree-zero
        # counts of the longest walk, with the bound it was pruned to.
        self._counts = [self._nv]
        self._layer: Optional[dict[int, int]] = None
        self._zero_counts: list[int] = []
        self._zero_bound = -1

    # -- rule table ----------------------------------------------------

    def _build_pair_table(self):
        """Store each (iii) and (iv) instance as the rule orienting it, keyed by its leading pair.

        A rule is ``(others, rhs)``: its leading pair ``(a, b)`` rewrites to
        the vertex letter ``rhs`` (None for 0) minus the sum of the letter
        pairs in ``others``, which are the relation's other pairs in its
        order.  The keys are the ``e_1^* f_1`` of each pair of edges
        emitted by a vertex and the ``e_i e_j^*`` of each special edge.
        :meth:`_is_normal` decides every other pair by comparing endpoint
        ids: a pair (a, b) with r(a) != s(b) is 0, and a composable pair
        with a vertex letter is the other letter.  Every key meets at one
        vertex v, so there are at most in(v) * out(v) keys per v, where
        in(v) and out(v) count the non-vertex letters ending and starting
        at v.  The ids are read off the out-lists of :func:`_letters`, and
        the special edge's ``(w, b)`` off ``_specials``, per vertex.  No other
        code enumerates the (iii) and (iv) instances, and their order is the
        insertion order: vertex by vertex, (iii) with e outer and f inner,
        then (iv) with i outer and j inner.
        """
        rules: dict[tuple[int, int], tuple[list, Optional[int]]] = {}
        for vid, (out, (ws, bs)) in enumerate(zip(self._out_letters, self._specials)):
            # an edge of weight w at base b: e_i = b + i - 1, e_i^* = b + w + i - 1
            for _, we, be, r in out:
                for _, wf, bf, _ in out:
                    # e_1^* f_1 = d_ef r(e) - sum of e_i^* f_i for i >= 2, s(e) = s(f) = v
                    others = []
                    for i in range(1, min(we, wf)):
                        others.append((be + we + i, bf + i))
                    rules[be + we, bf] = (others, r if be == bf else None)
            for i in range(ws):  # ws = 0 at a sink
                for j in range(ws):
                    # e^v_(i+1) (e^v_(j+1))^* = d_ij v - the pairs of other edges of weight > i, j
                    k = max(i, j)
                    others = []
                    for _, wo, bo, _ in out:
                        if bo != bs and wo > k:
                            others.append((bo + i, bo + wo + j))
                    rules[bs + i, bs + ws + j] = (others, vid if i == j else None)
        self._rules = rules

    @property
    def _succ(self) -> dict[int, tuple[int, ...]]:
        """The nod-word automaton: the allowed successors of each non-vertex letter, in id order.

        Built on the first read, by :meth:`_step` or :meth:`enumerate_nodwords`,
        with :func:`_successors`, which the witness search follows too, and
        kept in ``_succ_table``, which ``__init__`` sets to None.  It is no
        ``functools.cached_property``: on CPython 3.11 a key added to the
        instance dict after ``__init__`` makes every other attribute read of
        the algebra slower.
        """
        succ = self._succ_table
        if succ is None:
            successors = _successors(self._src_id, self._rng_id, self._letter_degree,
                                     self._specials)
            succ = self._succ_table = {a: successors(a) for a in self._nonvertex_ids}
        return succ

    @_succ.setter
    def _succ(self, succ: dict[int, tuple[int, ...]]) -> None:
        self._succ_table = succ

    def _is_normal(self, a: int, b: int) -> bool:
        """True iff the pair (a, b) is a nod-word: composable, no vertex letter and no rule."""
        return (self._rng_id[a] == self._src_id[b] and a >= self._nv and b >= self._nv
                and (a, b) not in self._rules)

    # -- word plumbing ---------------------------------------------------

    def _intern_word(self, word: Iterable[Generator]) -> tuple[int, ...]:
        try:
            ids = tuple(map(self._id_of.__getitem__, word))
        except KeyError as exc:  # its key is the first unknown generator
            raise UnknownGeneratorError(f"unknown generator {exc.args[0].token()!r}") from None
        if not ids:
            raise AlgebraError("words must be nonempty")
        return ids

    def _generators(self) -> tuple[Generator, ...]:
        """The :class:`Generator` of each letter id, built on the first call."""
        table = self._generator_table
        if table is None:
            table = self._generator_table = tuple(Generator(*key) for key in self._id_of)
        return table

    def _word_length(self, ids: tuple[int, ...]) -> int:
        # Single vertex letters are length-0 paths.
        if len(ids) == 1 and ids[0] < self._nv:
            return 0
        return len(ids)

    def render_word(self, word: Word) -> str:
        return " ".join(g.token() for g in word)

    # -- normalization ---------------------------------------------------

    def _nf_word(self, w: tuple[int, ...], right: bool = False) -> dict:
        """Normal form of a single word as {word: integer coefficient}, memoized per word.

        A fold of :meth:`_product` over the letters of ``w`` (nod-words):
        ``((l1 l2) l3) ...``, or ``l1 (l2 (l3 ...))`` with ``right``.  Rules
        read with coefficients +1 and -1, so word normal forms live over the
        integers whatever the field; :meth:`_combine` scales them by plain
        numbers and :meth:`_lift` reduces the sums into the field.
        """
        memo = self._memo_right if right else self._memo_left
        acc = memo.get(w)
        if acc is None:
            letters = [{(t,): 1} for t in (w[::-1] if right else w)]
            acc = letters[0]
            for letter in letters[1:]:
                acc = self._product(letter, acc) if right else self._product(acc, letter)
            memo[w] = acc
        return acc

    def _scalar(self, x):
        """``x`` as the plain number that stands for it in an element's support."""
        if isinstance(x, bool):
            raise AlgebraError("boolean is not a scalar")
        if isinstance(x, str):
            return self._scalar(self.field.parse(x))
        if isinstance(x, int) or (isinstance(self.field, Rationals) and isinstance(x, Fraction)):
            return self.field.reduce(x)
        if isinstance(self.field, PrimeField) and isinstance(x, ModInt):
            if x.modulus != self.field.p:
                raise MixedContextError("scalar from a different prime field")
            return x.value
        raise AlgebraError(f"cannot coerce {x!r} into {self.field.name}")

    def _combine(self, pairs, right: bool = False) -> dict:
        """Sum ``k * nf(w)`` over ``(plain number k, word ids w)`` pairs, not yet reduced.

        ``nf`` is :meth:`_nf_word`, folded from the right with ``right``.
        Only words from outside come this way (:meth:`normalize`); products
        of elements call :meth:`_product` directly.
        """
        acc: dict[tuple[int, ...], object] = {}
        nf_word = self._nf_word
        for k, ids in pairs:
            for w, c in nf_word(ids, right).items():
                _add_term(acc, w, k * c)
        return acc

    def _product(self, left: dict, right: dict) -> dict:
        """Sum ``ca * cb * nf(wa + wb)`` over two supports of nod-words, not yet reduced.

        This is the one routine that rewrites a pair: :meth:`_nf_word`
        folds it over single letters, and it grows no memo.  Rules have
        length-2 left sides and ``wa``, ``wb`` are nod-words, so ``head +
        tail`` (first ``wa + wb``) can hold a redex only at their junction
        ``(a, b)``.  It is 0 if a and b do not compose.  By ``u v = d_uv
        u`` and ``s(e) e = e = e r(e)``, a nod-word holding a vertex letter
        is that one letter, and it meets a word only at its endpoint: ``v w
        = w`` and ``w v = w``.  Otherwise the junction is a nod-word if the
        pair has no rule, and a rule ``(others, rhs)`` is the relation
        ``a b = rhs - sum of x y over others``:

        * each other pair ``x y`` (``e_i^* f_i`` with i >= 2, or ``g_i
          g_j^*`` with g not special) is normal, and a rule ``(p, x)``
          comes with a rule ``(p, a)``, a rule ``(y, q)`` with ``(b, q)``
          (e.g. ``(e_k, e_i^*)`` is a rule only for e special, and so is
          ``(e_k, e_1^*)``), so ``head[:-1] + x y + tail[1:]`` is a
          nod-word, with coefficient ``-k``;
        * an ``rhs`` of None ends the word; a vertex ``rhs`` is the word
          when the pair was all of it, and is absorbed otherwise.  Rules
          keep endpoints, so ``head[:-1]`` and ``tail[1:]`` meet at that
          vertex and their junction is rewritten next; they hold no vertex
          letter, so only the table decides it.
        """
        rules, src_id, rng_id, nv = self._rules, self._src_id, self._rng_id, self._nv
        acc: dict[tuple[int, ...], object] = {}
        for wa, ca in left.items():
            end = rng_id[wa[-1]]
            for wb, cb in right.items():
                if end != src_id[wb[0]]:
                    continue
                # head and tail meet; k is the coefficient of head + tail
                k, head, tail = ca * cb, wa, wb
                if wa[0] < nv:  # v w = w
                    head = ()
                elif wb[0] < nv:  # w v = w
                    tail = ()
                # rewrite while the junction has a rule (a rule is a nonempty tuple)
                while head and tail and (rule := rules.get((head[-1], tail[0]))):
                    others, rhs = rule
                    head, tail = head[:-1], tail[1:]
                    for pair in others:
                        _add_term(acc, head + pair + tail, -k)
                    if rhs is None:
                        head = tail = ()  # the pair is 0
                    elif not (head or tail):
                        head = (rhs,)  # the pair was the whole word
                if head or tail:
                    _add_term(acc, head + tail, k)
        return acc

    def _lift(self, acc: dict) -> "AlgebraElement":
        """The element with the coefficients of ``acc`` reduced by the field, zeros dropped."""
        reduce = self.field.reduce
        return AlgebraElement(self, {w: r for w, c in acc.items() if (r := reduce(c))})

    def normalize(self, terms, strategy: str = "left") -> "AlgebraElement":
        """Normal form of a formal scalar combination of words.

        ``terms`` is an iterable of ``(scalar, word)`` pairs where a word is
        a nonempty tuple of :class:`Generator`, checked even under a zero
        scalar.  ``strategy`` picks the direction in which :meth:`_nf_word`
        folds each word's letters ("left" or "right"); the results must agree.
        """
        if strategy not in ("left", "right"):
            raise AlgebraError(f"unknown strategy {strategy!r}")
        pairs = [(scalar, self._intern_word(word)) for scalar, word in terms]
        return self._normal_form(pairs, strategy == "right")

    def _normal_form(self, pairs, right: bool = False) -> "AlgebraElement":
        """:meth:`normalize` after interning: :meth:`_scalar`, :meth:`_combine`, :meth:`_lift`."""
        scaled = [(c, ids) for k, ids in pairs if (c := self._scalar(k))]
        return self._lift(self._combine(scaled, right))

    # -- element constructors -------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def word(self, word: Iterable[Generator], coeff=1) -> "AlgebraElement":
        return self.normalize([(coeff, tuple(word))])

    def vertex(self, v: str) -> "AlgebraElement":
        return self.word((Generator.vertex(v),))

    def edge(self, e: str, i: int) -> "AlgebraElement":
        return self.word((Generator.edge(e, i),))

    def star(self, e: str, i: int) -> "AlgebraElement":
        return self.word((Generator.star(e, i),))

    # -- nod-word predicates and enumeration ------------------------------

    def is_nodword(self, word: Iterable[Generator]) -> bool:
        """True iff the word is a d-path with no forbidden length-2 factor."""
        ids = self._intern_word(word)
        return all(map(self._is_normal, ids, ids[1:]))

    def nonvertex_generators(self) -> tuple[Generator, ...]:
        return self._generators()[self._nv:]

    def _ids_degree(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        deg = [0] * self.grading_length
        for i in ids:
            d = self._letter_degree[i]
            if d is not None:
                deg[d[0]] += d[1]
        return tuple(deg)

    def nodword_counts(self, max_len: int, zero_degree: bool = False):
        """Yield the number of nod-words of each length 0, 1, ..., max_len.

        The counts come from the count store, which only ever grows.  The
        words of a length are counted by their last letter, so exponentially
        growing graphs need no exponential frontier, and a length past the
        store is counted from its last layer, one step of the nod-word
        automaton.  The walk stops at the first length with no word:
        nod-words are closed under prefixes, so the counts not yielded are
        zero, and the store remembers that nothing longer exists.  With
        ``zero_degree`` only the words of degree zero are counted, by
        :meth:`_zero_walk`, whose layers are pruned by its bound; a request
        up to the longest bound walked so far is a read of its counts, and a
        longer one walks again.  Vertex letters have length 0 and degree
        zero.  Generators consumed in turns share the store.  A negative
        ``max_len`` raises :class:`AlgebraError` on the first ``next``.
        """
        if max_len < 0:
            raise AlgebraError("max_len must be >= 0")
        if zero_degree:
            if max_len <= self._zero_bound:
                yield from self._zero_counts[:max_len + 1]
            else:
                yield from self._zero_walk(max_len)
            return
        counts = self._counts
        for length in range(max_len + 1):
            if length == len(counts) and not self._count_next():
                return  # no word of this length, so none longer
            yield counts[length]

    def _count_next(self) -> bool:
        """Count the nod-words one letter longer than the store; False if there are none."""
        layer = self._layer
        if layer is None:
            layer = dict.fromkeys(self._nonvertex_ids, 1)
        elif layer:
            layer = self._step(layer)
        self._layer = layer
        if layer:
            self._counts.append(sum(layer.values()))
        return bool(layer)

    def _step(self, counts: dict[int, int]) -> dict[int, int]:
        """The words one letter longer than those ``counts`` holds, counted by last letter."""
        succ = self._succ
        step: dict[int, int] = {}
        for a, c in counts.items():
            for b in succ[a]:
                step[b] = step.get(b, 0) + c
        return step

    def _zero_walk(self, max_len: int):
        """Yield the degree-zero counts of lengths 0..max_len, and store them when done.

        The counts are grouped by the degree of the word so far, and a
        degree too far from zero to return by ``max_len`` is dropped.  So
        every count up to ``max_len`` is exact, but an empty layer means only
        that no degree-zero word up to this bound is longer.
        """
        counts = [self._nv]
        yield self._nv
        zero = (0,) * self.grading_length
        # {degree so far: {last letter: number of words}}, no group empty;
        # the degree of a group's words leaves out their last letter
        layer = {zero: dict.fromkeys(self._nonvertex_ids, 1)}
        for length in range(1, max_len + 1):
            remaining = max_len - length
            grouped: dict[tuple[int, ...], dict[int, int]] = {}
            for deg, by_letter in layer.items():
                for b, c in by_letter.items():
                    pos, sign = self._letter_degree[b]
                    deg2 = list(deg)
                    deg2[pos] += sign
                    if sum(map(abs, deg2)) > remaining:
                        continue
                    group = grouped.setdefault(tuple(deg2), {})
                    group[b] = group.get(b, 0) + c
            if not grouped:
                break  # no degree-zero word up to max_len is this long
            counts.append(sum(grouped.get(zero, {}).values()))
            yield counts[-1]
            if length < max_len:
                layer = {deg: step for deg, by_letter in grouped.items()
                         if (step := self._step(by_letter))}
        if max_len > self._zero_bound:
            self._zero_counts, self._zero_bound = counts, max_len

    def enumerate_nodwords(self, max_len: int, source: Optional[str] = None,
                           range_: Optional[str] = None, budget: Optional[int] = None) -> list[Word]:
        """All nod-words of length <= max_len in length-then-lex order.

        Single vertex letters count as length 0.  The optional filters keep
        only words with the given source vertex and range vertex.
        ``budget`` caps the number of words explored, which is
        ``growth(max_len)`` whatever the filters keep: the running total of
        :meth:`nodword_counts` raises :class:`BudgetExceededError` once it
        passes the budget, before any word is built; a negative budget raises
        :class:`AlgebraError` before anything is counted.  An unknown ``source``
        or ``range_`` vertex raises :class:`UnknownVertexError`.  The words
        are grown from a frontier of their own, since the count store holds
        only numbers; with no filter, no word is tested.
        """
        if max_len < 0:
            raise AlgebraError("max_len must be >= 0")
        if budget is not None and budget < 0:
            raise AlgebraError("budget must be >= 0")
        for v in (source, range_):
            if v is not None:
                self.graph._require_vertex(v)
        totals = accumulate(self.nodword_counts(max_len))  # words of length <= 0, 1, ...
        if budget is not None and any(total > budget for total in totals):
            raise BudgetExceededError(budget)

        def keep(ids: tuple[int, ...]) -> bool:
            return ((source is None or self.graph.vertices[self._src_id[ids[0]]] == source)
                    and (range_ is None or self.graph.vertices[self._rng_id[ids[-1]]] == range_))

        unfiltered = source is None and range_ is None
        gens = self._generators()
        letter = gens.__getitem__
        out = [(gens[v],) for v in range(self._nv) if unfiltered or keep((v,))]
        layer = [(i,) for i in self._nonvertex_ids]
        for length in range(1, max_len + 1):
            if not layer:
                break  # no nod-word of this length, so none longer
            kept = layer if unfiltered else [ids for ids in layer if keep(ids)]
            out.extend(tuple(map(letter, ids)) for ids in kept)
            if length < max_len:
                succ = self._succ
                layer = [ids + (b,) for ids in layer for b in succ[ids[-1]]]
        return out

    def growth(self, n: int) -> int:
        """Number of nod-words of length <= n: the sum of :meth:`nodword_counts`.

        Nod-words form a basis, so this is the dimension of the span of
        products of at most ``n`` generators, and its rate of growth in
        ``n`` is the Gelfand-Kirillov dimension.  It reads the count store,
        so asking for ``growth(0)``, ..., ``growth(n)`` walks the automaton
        once, to n, and asking again walks no further.
        """
        return sum(self.nodword_counts(n))

    def zero_component_count(self, max_len: int) -> int:
        """Number of degree-zero nod-words of length <= max_len: see :meth:`nodword_counts`.

        A bound up to the longest one walked so far reads the stored counts;
        a longer one walks again, pruned to the new bound.
        """
        return sum(self.nodword_counts(max_len, zero_degree=True))

    def __repr__(self):
        return f"Algebra({self.graph!r}, field={self.field.name})"


def _involute(support: dict, star_of) -> dict:
    """The involute of a support: each word reversed, each letter swapped by ``star_of``."""
    return {tuple(star_of[i] for i in reversed(w)): c for w, c in support.items()}


class AlgebraElement:
    """A finitely supported combination of nod-words over a fixed algebra.

    ``_support`` maps word ids to nonzero plain numbers in the canonical
    form of the field's ``reduce``; field scalars are built only on the way
    out, by :meth:`terms`.  Every support word is a nod-word: normal forms,
    sums, scalings, products and involutes keep it so (the forbidden pairs
    are closed under the involution), and :meth:`Algebra._product` relies
    on it to rewrite a product only where its two words meet.
    """

    __slots__ = ("_algebra", "_support")

    def __init__(self, algebra: Algebra, support: dict):
        self._algebra = algebra
        self._support = support

    @property
    def algebra(self) -> Algebra:
        return self._algebra

    def is_zero(self) -> bool:
        return not self._support

    def __bool__(self):
        return bool(self._support)

    def _check_context(self, other: "AlgebraElement") -> None:
        if self._algebra is not other._algebra:
            raise MixedContextError("elements belong to different algebras")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._algebra is other._algebra and self._support == other._support

    def __add__(self, other):
        self._check_context(other)
        out = dict(self._support)
        for w, c in other._support.items():
            _add_term(out, w, c)
        return self._algebra._lift(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._algebra._lift({w: -c for w, c in self._support.items()})

    def scaled(self, scalar) -> "AlgebraElement":
        c = self._algebra._scalar(scalar)
        return self._algebra._lift({w: c * k for w, k in self._support.items()})

    def __mul__(self, other):
        """Product with an element (one :meth:`Algebra._product` of the supports) or a scalar."""
        if isinstance(other, AlgebraElement):
            self._check_context(other)
            alg = self._algebra
            return alg._lift(alg._product(self._support, other._support))
        return self.scaled(other)

    def __rmul__(self, other):
        # scalar * element
        return self.scaled(other)

    # -- structure maps --------------------------------------------------

    def involute(self) -> "AlgebraElement":
        """Reverse words and swap e_i with e_i^*; scalars are fixed."""
        return AlgebraElement(self._algebra, _involute(self._support, self._algebra._star_of))

    def degree(self):
        """Common degree of the support words, or a sentinel.

        Returns ``ZERO_ELEMENT`` for the zero element and
        ``NOT_HOMOGENEOUS`` when support words have different degrees.
        """
        if not self._support:
            return ZERO_ELEMENT
        degrees = {self._algebra._ids_degree(w) for w in self._support}
        if len(degrees) > 1:
            return NOT_HOMOGENEOUS
        return degrees.pop()

    def is_idempotent(self) -> bool:
        return (self * self) == self

    def min_support_length(self):
        if not self._support:
            return ZERO_ELEMENT
        return min(self._algebra._word_length(w) for w in self._support)

    # -- inspection -------------------------------------------------------

    def terms(self) -> list[tuple[object, Word]]:
        """(field scalar, word) pairs in length-then-lex order."""
        alg = self._algebra
        items = sorted(self._support.items(), key=lambda kv: (alg._word_length(kv[0]), kv[0]))
        gens = alg._generators()
        return [(alg.field.from_int(c), tuple(gens[i] for i in w)) for w, c in items]

    def support_words(self) -> list[Word]:
        return [w for _, w in self.terms()]

    def render(self) -> str:
        if not self._support:
            return "0"
        alg = self._algebra
        pieces = []
        for c, word in self.terms():
            text = alg.field.render(c)
            negative = text.startswith("-")
            magnitude = text[1:] if negative else text
            word_text = alg.render_word(word)
            term = word_text if magnitude == "1" else f"{magnitude} {word_text}"
            pieces.append((negative, term))
        first_neg, first_term = pieces[0]
        parts = [("-" if first_neg else "") + first_term]
        for negative, term in pieces[1:]:
            parts.append(("- " if negative else "+ ") + term)
        return " ".join(parts)

    def to_records(self) -> list[dict]:
        render = self._algebra.field.render
        return [{"coeff": render(c), "word": [g.token() for g in word]}
                for c, word in self.terms()]

    def __repr__(self):
        return f"<{self.render()}>"


# -- defining relations -------------------------------------------------------


def relation_instances(g: WeightedGraph):
    """Yield every instance of the defining relations as formal terms.

    Each item is ``(label, terms)`` with ``terms`` a list of
    ``(integer coefficient, [Generator, ...])``; the instance holds in the
    algebra iff the sum of the terms is zero.  Strand indices beyond an
    edge's weight are dropped, matching the convention that those strands
    are zero.  Relation (i) comes first, one instance per ordered pair of
    vertices (u-major, both in graph order), then (ii), (iii) and (iv).

    The instances are those :func:`_relation_failures` evaluates over
    ``Algebra(g)``, rendered here as records ``(key, pairs, rhs)``, each
    standing for ``sum of x y over its letter-id pairs (x, y) = rhs``, rhs
    one letter id or None for 0: those of :func:`_vertex_relation` and
    :func:`_strand_relations`, then one per rule of ``Algebra(g)``, its
    pairs the lead and ``others`` and its key :func:`_rule_key` of the
    lead.  Its terms are each pair with coefficient 1, then the rhs letter
    with -1; its label is :func:`_label` of its key.
    """
    algebra = Algebra(g)
    gens, n = algebra._generators(), len(g.vertices)
    vertex_pairs = (_vertex_relation(g, i, j) for i in range(n) for j in range(n))
    # sorted by letter id, a rule's pairs are in instance order: the (iii)
    # pairs e_i^* f_i rise with i, and the (iv) pairs g_i g_j^* with the
    # base of g, which rises along the out-list
    rules = ((_rule_key(algebra, lead), sorted([lead, *others]), rhs)
             for lead, (others, rhs) in algebra._rules.items())
    for key, pairs, rhs in chain(vertex_pairs, _strand_relations(algebra), rules):
        terms = [(1, [gens[x], gens[y]]) for x, y in pairs]
        if rhs is not None:
            terms.append((-1, [gens[rhs]]))
        yield _label(key), terms


def _label(key: tuple) -> str:
    """The label of a relation instance or round trip from its key ``(format, *fields)``."""
    return key[0].format(*key[1:])


def _vertex_relation(g: WeightedGraph, i: int, j: int):
    """The record of relation (i) for the ordered pair of vertex ids (i, j): ``u v = d_uv u``."""
    names = g.vertices
    return ("(i) {} {}", names[i], names[j]), ((i, j),), (i if i == j else None)


def _strand_relations(algebra: Algebra):
    """The records of relation (ii), four per strand, in :func:`relation_instances` order.

    The strands of an edge of weight w at base b are ``e_i = b + i - 1``
    and ``e_i^* = b + w + i - 1``, and its endpoints are those of e_1.  A
    record's key is rendered only on demand.
    """
    src, rng = algebra._src_id, algebra._rng_id
    for e, base in zip(algebra.graph.edges, algebra._edge_base):
        w, s, r = e.weight, src[base], rng[base]
        for a in range(base, base + w):
            b, i = a + w, a - base + 1
            yield ("(ii) source {}.{}", e.id, i), ((s, a),), a
            yield ("(ii) range {}.{}", e.id, i), ((a, r),), a
            yield ("(ii) star-range {}.{}", e.id, i), ((r, b),), b
            yield ("(ii) star-source {}.{}", e.id, i), ((b, s),), b


def _rule_key(algebra: Algebra, lead: tuple[int, int]) -> tuple:
    """The key of the instance of the rule of ``lead``, which names no special edge.

    A (iii) lead ``e_1^* f_1`` gives ``(iii) v e f`` with v = s(f), and a
    (iv) lead ``s_i s_j^*`` gives ``(iv) v i j`` with v = s(s).
    """
    (a, b), gens, names = lead, algebra._generators(), algebra.graph.vertices
    if gens[a].kind == "star":
        return "(iii) {} {} {}", names[algebra._src_id[b]], gens[a].name, gens[b].name
    return "(iv) {} {} {}", names[algebra._src_id[a]], gens[a].index, gens[b].index


def _relation_failures(domain: Algebra, images, target: Algebra):
    """Check every instance of :func:`relation_instances` under a map lowered over ``domain``.

    ``images`` holds the support of the image of each letter id of
    ``domain`` (see :func:`_lower`).  Returns the number of instances and
    the labels of those whose value in ``target`` is not zero, in
    :func:`relation_instances` order.

    Relation (i) is decided without a product per ordered pair of
    vertices.  The image of ``u v`` is a sum of products ``a b`` of support
    words of the images of u and v, and ``a b = 0`` when r(a) != s(b).  So
    ``u v`` is evaluated, by one ``target._product``, only for v = u and
    for the v whose image has a word starting where a word of u's image
    ends (found by bucketing the images by source vertex), in a loop over
    those v that builds no record; every other pair gives 0 = 0 and is
    counted as holding without being built.

    Each (ii) record of :func:`_strand_relations` is one
    ``target._product``, and each rule of ``domain._rules`` one (iii) or
    (iv) instance with one product per pair: the lead's new dict is the
    accumulator and the products of ``others`` are added to it.  An
    instance holds at once if its sum is the image of its rhs letter (the
    empty support for 0) as it stands; only otherwise does
    :func:`_remainder_survives` subtract the image and reduce.  Only a
    failing instance has a label rendered, a rule's from :func:`_rule_key`.
    """
    g, n = domain.graph, domain._nv
    ends = [{target._rng_id[w[-1]] for w in images[i]} for i in range(n)]
    starting_at: dict[int, list[int]] = {}
    for j in range(n):
        for s in {target._src_id[w[0]] for w in images[j]}:
            starting_at.setdefault(s, []).append(j)
    meeting = [sorted({i}.union(*(starting_at.get(r, ()) for r in ends[i]))) for i in range(n)]
    product, reduce = target._product, target.field.reduce
    empty: dict = {}
    count = n * n  # the pairs of (i) off ``meeting`` hold without being built
    failures = []
    for i in range(n):
        image = images[i]
        for j in meeting[i]:
            acc, rhs = product(image, images[j]), (image if j == i else empty)
            if acc != rhs and _remainder_survives(acc, rhs, reduce):
                failures.append(_label(_vertex_relation(g, i, j)[0]))
    for key, ((x, y),), rhs in _strand_relations(domain):
        count += 1
        acc, image = product(images[x], images[y]), images[rhs]
        if acc != image and _remainder_survives(acc, image, reduce):
            failures.append(_label(key))
    for lead, (others, rhs) in domain._rules.items():
        count += 1
        x, y = lead
        acc = product(images[x], images[y])
        for x, y in others:  # a coefficient may cancel to 0: it is reduced below
            for w, c in product(images[x], images[y]).items():
                acc[w] = acc.get(w, 0) + c
        image = images[rhs] if rhs is not None else empty
        if acc != image and _remainder_survives(acc, image, reduce):
            failures.append(_label(_rule_key(domain, lead)))
    return count, failures


def _remainder_survives(acc: dict, image: dict, reduce) -> bool:
    """True iff some coefficient of ``acc - image`` is not 0 in the field; ``acc`` becomes it."""
    for w, c in image.items():
        acc[w] = acc.get(w, 0) - c
    return any(map(reduce, acc.values()))


def _lower(mapping: dict[Generator, AlgebraElement], letters: Iterable[Generator],
           target: Algebra) -> list[dict]:
    """The support of the image of each of ``letters`` under ``mapping``, in order.

    This is a map lowered to letter ids: :func:`_compose` reads the image
    of letter ``t`` as entry ``t``.  Raises :class:`UnknownGeneratorError`
    for a letter with no image and :class:`MixedContextError` for an image
    that is not an element of ``target``.
    """
    images = []
    for gen in letters:
        try:
            image = mapping[gen]
        except KeyError:
            raise UnknownGeneratorError(f"no image fixed for generator {gen.token()!r}") from None
        if image.algebra is not target:
            raise MixedContextError("elements belong to different algebras")
        images.append(image._support)
    return images


def _compose(items, images, target: Algebra) -> dict:
    """Sum ``k * images[t_1] ... images[t_n]`` over ``(letter-id word, plain number k)`` items.

    The items are in the order of a support's ``items()``, which a caller
    passes as it stands.  ``images`` is a map lowered by :func:`_lower`,
    indexed by letter id (a list, or a dict over the letters the words
    hold): element supports, so nod-words.  A word of n letters costs n - 1
    products, each of a partial product and the next image, by one
    ``target._product``, which rewrites only at the junctions, over the
    integer rule coefficients; the sum is not yet reduced into the field.
    This is exact: ints and Fractions mix exactly, and Z -> F_p is a ring
    map.  A coefficient that cancels stays in the sum as 0 until then.
    """
    acc: dict[tuple[int, ...], object] = {}
    for word, k in items:
        product = images[word[0]]
        for t in word[1:]:
            product = target._product(product, images[t])
        for w, c in product.items():
            acc[w] = acc.get(w, 0) + k * c
    return acc


def apply_generator_map(element: AlgebraElement,
                        mapping: dict[Generator, AlgebraElement],
                        target: Algebra) -> AlgebraElement:
    """Image of ``element`` under a map fixed on generators.

    Each letter of each support word is replaced by its image in ``target``
    and the images are multiplied in order.  Only the element's letters
    need an image; other keys of ``mapping`` are ignored.  Those letters
    are lowered (:func:`_lower`, in order of first appearance) into a
    table indexed by letter id, and the value is one :func:`_compose` of
    the element's support, reduced into the field at the end: the value of
    :func:`evaluate_relation` on the element's terms.
    """
    if element.algebra.field != target.field:
        raise MixedContextError("source and target algebras use different fields")
    support = element._support
    ids = dict.fromkeys(t for w in support for t in w)
    gens = element.algebra._generators()
    images = dict(zip(ids, _lower(mapping, [gens[t] for t in ids], target)))
    return target._lift(_compose(support.items(), images, target))


def evaluate_relation(terms, mapping: dict[Generator, AlgebraElement],
                      target: Algebra) -> AlgebraElement:
    """Value of ``terms`` under a generator assignment.

    ``terms`` are the (coefficient, word) pairs of a relation instance or
    of an element (:meth:`AlgebraElement.terms`).  Only the letters the
    words touch are lowered, numbered by first appearance; the value is one
    :func:`_compose`, reduced into the field at the end.
    """
    local: dict[Generator, int] = {}
    items = [(tuple(local.setdefault(gen, len(local)) for gen in gens), target._scalar(coeff))
             for coeff, gens in terms]
    if not all(word for word, _ in items):
        raise AlgebraError("words must be nonempty")
    return target._lift(_compose(items, _lower(mapping, local, target), target))


def identity_map(algebra: Algebra) -> dict[Generator, AlgebraElement]:
    """Each generator mapped to itself: a letter is a nod-word, so nothing is normalized."""
    gens = algebra._generators()
    return {gens[t]: AlgebraElement(algebra, {(t,): 1})
            for t in chain(algebra._nonvertex_ids, range(algebra._nv))}
