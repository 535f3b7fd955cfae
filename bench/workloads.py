"""The benchmark's workloads: fixed op lists over seeded graph families.

An op is one call into the package, timed, plus a check of its output
against :mod:`reference`, untimed.  A workload builds its cases and ops from
the seed (benchmark-side work, outside every timer), then :func:`setup`
does the work a user pays before the first op: parsing the graph texts
and, for ``arith``, building the algebras the session keeps.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

import wlpa
from wlpa import cli

import gen
import reference

# ``witness`` builds the dense rewrite table of the input graph inside the
# CLI, whose size grows with the square of the letter count; above this
# vertex count only ``check-lpa`` runs, as the workload intends.
WITNESS_MAX_VERTICES = 150

GROWTH_LEN = 8
ZERO_DIM_LEN = 6
BASIS_LEN = 3
ORACLE_LEN = 4
EXPR_OPS_PER_ALGEBRA = 10
EXPR_PAIRS = 8


@dataclass
class Op:
    family: str
    size: int
    kind: str
    input: str  # what the op feeds the package, for determinism checks
    call: Callable  # (state) -> result; timed
    check: Callable  # (result) -> problem text or None; untimed


def run_cli(argv, text):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdin=io.StringIO(text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _machine_doc(result, want_code):
    code, out, err = result
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}: {err.strip()[:200]}"
    return json.loads(out), None


def setup(workload, cases):
    """Parsed graphs, or their algebras when the workload keeps algebras.

    ``setup_child.py`` repeats this in a fresh process to time it.
    """
    graphs = [wlpa.parse_weighted_graph(c.text) for c in cases]
    return [wlpa.Algebra(g) for g in graphs] if workload.algebras else graphs


# -- compile-verify ---------------------------------------------------------------


class CompileVerify:
    name = "compile-verify"
    algebras = False
    plan = [("sat", n) for n in (15, 30, 60, 120)] + [("ring", n) for n in (18, 36, 72, 144)]

    def build(self, seed):
        cases = gen.cases(seed, self.plan)
        return cases, [self._op(c) for c in cases]

    @staticmethod
    def _op(case):
        want = reference.stage2_counts(case)
        argv = ["transform", "--verify", "--format", "machine", "--input", "-"]

        def check(result):
            doc, problem = _machine_doc(result, 0)
            if problem:
                return problem
            if doc["satisfied"] is not True:
                return "reported (LPA) violated on a graph satisfying it"
            if not doc["verify"]["ok"]:
                return f"verify failed: {doc['verify']['failures'][:3]}"
            stage2 = doc["stage2"]
            got = (len(stage2["vertices"]), len(stage2["edges"]))
            if got != want:
                return f"stage-2 size {got}, expected {want}"
            if any(e["weight"] != 1 for e in stage2["edges"]):
                return "stage-2 graph has a weighted edge"
            return None

        return Op(case.family, case.size, "transform", case.text,
                  lambda state: run_cli(argv, case.text), check)


# -- lpa-decide -------------------------------------------------------------------


class LpaDecide:
    name = "lpa-decide"
    algebras = False
    plan = (
        [("lpa3-fan", n) for n in (30, 60, 120)]
        + [("chord-ladder", n) for n in (11, 15, 19, 23)]
        + [("lpa12", n) for n in (50, 100, 200, 400)]
        + [("ring", n) for n in (100, 200, 400, 1200)]
    )

    def build(self, seed):
        cases = gen.cases(seed, self.plan)
        ops = []
        for case in cases:
            ops.append(self._check_op(case))
            if case.size <= WITNESS_MAX_VERTICES:
                ops.append(self._witness_op(case))
        return cases, ops

    @staticmethod
    def _check_op(case):
        kinds = reference.lpa_kinds(case)
        argv = ["check-lpa", "--format", "machine", "--input", "-"]

        def check(result):
            doc, problem = _machine_doc(result, 0 if case.satisfied else 3)
            if problem:
                return problem
            if doc["satisfied"] is not case.satisfied:
                return f"verdict {doc['satisfied']}, expected {case.satisfied}"
            got = {v["kind"] for v in doc["violations"]}
            if got != kinds:
                return f"violated conditions {sorted(got)}, expected {sorted(kinds)}"
            return None

        return Op(case.family, case.size, "check-lpa", case.text,
                  lambda state: run_cli(argv, case.text), check)

    @staticmethod
    def _witness_op(case):
        letters = reference.Letters(case)
        argv = ["witness", "--format", "machine", "--input", "-"]

        def check(result):
            doc, problem = _machine_doc(result, 3 if case.satisfied else 0)
            if problem:
                return problem
            if case.satisfied:
                return None if doc["word"] is None else "witness for a satisfying graph"
            return reference.witness_problem(letters, doc["word"])

        return Op(case.family, case.size, "witness", case.text,
                  lambda state: run_cli(argv, case.text), check)


# -- arith ---------------------------------------------------------------------------


def _token(letter):
    kind, e, i = letter
    return f"{e}.{i}*" if kind == "star" else f"{e}.{i}"


def _walk(letters, rng, start, length):
    """A composable letter sequence that favours rewritable factors.

    After ``e_1^*`` it prefers an ``f_1`` and after ``e_i`` a star of the
    same edge, so words are rich in the factors ``e_1^* f_1`` and
    ``e_i e_j^*`` that normalization rewrites.  ``f`` is ``e`` or, when
    both are weighted, another edge: otherwise ``e_1^* f_1`` is 0 and
    the whole word with it.
    """
    weight = {e: w for e, (_, _, w) in letters.shape.edges.items()}
    word = [start]
    while len(word) < length:
        a = word[-1]
        options = letters.starting[letters.ends[a][1]]
        if not options:
            break
        rich = [
            b for b in options
            if (a[0] == "star" and a[2] == 1 and b[0] == "edge" and b[2] == 1
                and (b[1] == a[1] or min(weight[a[1]], weight[b[1]]) > 1))
            or (a[0] == "edge" and b[0] == "star" and b[1] == a[1])
        ]
        word.append(rng.choice(rich if rich and rng.random() < 0.6 else options))
    return word


_COEFFS = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]


def _expression(letters, rng, starts):
    """(text, terms) of a 3-term combination of walks from the given starts."""
    terms = [(rng.choice(_COEFFS), _walk(letters, rng, s, rng.randint(6, 9))) for s in starts]
    pieces = []
    for k, (c, word) in enumerate(terms):
        body = f"{abs(c)} * " + " ".join(_token(x) for x in word)
        if k == 0:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces), terms


def _generator(letter):
    kind, e, i = letter
    return wlpa.Generator(kind, e, i)


class Arith:
    name = "arith"
    algebras = True
    plan = [("sat", n) for n in (20, 40, 80, 160)] + [("unweighted", n) for n in (8, 16, 32)]

    def build(self, seed):
        cases = gen.cases(seed, self.plan)
        ops = []
        for k, case in enumerate(cases):
            letters = reference.Letters(case)
            rng = Random(f"{seed}/expr/{case.family}/{case.size}")
            for _ in range(EXPR_OPS_PER_ALGEBRA):
                ops.append(self._expr_op(k, case, letters, rng))
            ops += self._table_ops(k, case, letters)
        return cases, ops

    @staticmethod
    def _expr_op(k, case, letters, rng):
        """An op over EXPR_PAIRS pairs (a, b); b's words start where a's end."""
        pool = sorted(letters.ends)
        pairs = []
        for _ in range(EXPR_PAIRS):
            a_text, a_terms = _expression(letters, rng, [rng.choice(pool) for _ in range(3)])
            ends = [letters.ends[word[-1]][1] for _, word in a_terms]
            b_starts = [rng.choice(letters.starting[v] or pool) for v in ends]
            b_text, b_terms = _expression(letters, rng, b_starts)
            a_gen = [(c, tuple(_generator(x) for x in w)) for c, w in a_terms]
            b_gen = [(c, tuple(_generator(x) for x in w)) for c, w in b_terms]
            ab_gen = [(ca * cb, wa + wb) for ca, wa in a_gen for cb, wb in b_gen]
            pairs.append((a_text, b_text, a_gen, ab_gen))

        def call(state):
            alg = state[k]
            out = []
            for a_text, b_text, a_gen, _ in pairs:
                a = wlpa.parse_element(alg, a_text)
                b = wlpa.parse_element(alg, b_text)
                out.append((a, alg.normalize(a_gen, "left"), alg.normalize(a_gen, "right"), a * b))
            return alg, out

        def check(result):
            alg, out = result
            for (a_text, b_text, _, ab_gen), (a, left, right, product) in zip(pairs, out):
                if not (a == left == right):
                    return f"normal forms disagree for {a_text!r}"
                if product != alg.normalize(ab_gen, "right"):
                    return f"product differs from the right normal form of {a_text!r} times {b_text!r}"
                # Independent of the package: a normal form is a sum of nod-words.
                for element in (a, product):
                    for _, word in element.terms():
                        problem = reference.word_problem(letters, [g.token() for g in word])
                        if problem:
                            return f"normal form has a term that is not a nod-word: {problem}"
            return None

        text = " ; ".join(f"{a} ; {b}" for a, b, _, _ in pairs)
        return Op(case.family, case.size, "expr", text, call, check)

    @staticmethod
    def _table_ops(k, case, letters):
        growth = reference.growth_table(letters, GROWTH_LEN)
        zero_dim = reference.zero_degree_table(letters, ZERO_DIM_LEN)
        if case.family == "unweighted":
            growth[: ORACLE_LEN + 1] = oracle_growth(case, letters, ORACLE_LEN)

        def growth_call(state):
            return [state[k].growth(n) for n in range(GROWTH_LEN + 1)]

        def zero_call(state):
            return [state[k].zero_component_count(n) for n in range(ZERO_DIM_LEN + 1)]

        def basis_call(state):
            return state[k].enumerate_nodwords(BASIS_LEN)

        def table_check(want, label):
            return lambda got: None if got == want else f"{label} {got}, expected {want}"

        def basis_check(words):
            if len(words) != growth[BASIS_LEN]:
                return f"basis has {len(words)} words, expected {growth[BASIS_LEN]}"
            for w in words:
                problem = reference.word_problem(letters, [g.token() for g in w])
                if problem:
                    return problem
            return None

        return [
            Op(case.family, case.size, "growth", case.text, growth_call, table_check(growth, "growth")),
            Op(case.family, case.size, "zero-dim", case.text, zero_call, table_check(zero_dim, "zero-dim")),
            Op(case.family, case.size, "basis", case.text, basis_call, basis_check),
        ]


def oracle_growth(case, letters, max_len):
    """Growth of an unweighted case by the test-suite's classical p q* count."""
    import oracles

    g = wlpa.parse_weighted_graph(case.text)
    choice = wlpa.SpecialEdgeChoice(tuple(letters.special.items()))
    return [oracles.classical_unweighted_count(g, choice, n) for n in range(max_len + 1)]


WORKLOADS = {w.name: w for w in (CompileVerify(), LpaDecide(), Arith())}
