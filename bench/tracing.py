"""Per-layer tracing from outside the package.

The tracer replaces the public functions of each ``wlpa`` module with
wrappers that record a span (id, parent id, layer, start, end) around the
call.  A function is replaced in its defining module and in every ``wlpa``
module that imported it by name, so internal calls such as
``wlpa.unweighting.check_lpa`` are seen too; methods are replaced on their
class.  ``uninstall`` puts the originals back, so untraced passes run the
package exactly as shipped.

Self time of a layer is its spans' duration minus the time covered by
their child spans.  Counters record work at the same boundaries (calls,
violations by kind, stage-2 size, relation instances, enumerated words).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from wlpa import algebra, cli, exprs, graphs, lpa, unweighting


def _count_violations(counts, report):
    for v in report.violations:
        counts["lpa.violations." + v.kind] += 1


def _count_stage2(counts, g):
    counts["unweighting.stage2_vertices"] += len(g.vertices)
    counts["unweighting.stage2_edges"] += len(g.edges)


def _count_relations(counts, verification):
    c = verification.counts
    counts["unweighting.relations_checked"] += c["forward_relations"] + c["backward_relations"]


def _count_words(counts, words):
    counts["algebra.enumerate_words"] += len(words)


# (layer, owner, attribute, counter applied to the result)
TARGETS = [
    ("graphs.parse", graphs, "parse_weighted_graph", None),
    ("graphs.parse", graphs, "parse_graph", None),
    ("graphs.parse", graphs, "weighted_graph_from_records", None),
    ("graphs.serialize", graphs, "serialize_weighted_graph", None),
    ("graphs.serialize", graphs, "serialize_graph", None),
    ("graphs.serialize", graphs, "graph_to_records", None),
    ("graphs.tree", graphs, "tree", None),
    ("graphs.reaches", graphs, "reaches", None),
    ("graphs.cycles_through", graphs, "cycles_through", None),
    ("algebra.build", algebra.Algebra, "__init__", None),
    ("algebra.normalize", algebra.Algebra, "normalize", None),
    ("algebra.mul", algebra.AlgebraElement, "__mul__", None),
    ("algebra.evaluate_relation", algebra, "evaluate_relation", None),
    ("algebra.apply_map", algebra, "apply_generator_map", None),
    ("algebra.growth", algebra.Algebra, "growth", None),
    ("algebra.zero_dim", algebra.Algebra, "zero_component_count", None),
    ("algebra.enumerate", algebra.Algebra, "enumerate_nodwords", _count_words),
    ("lpa.check", lpa, "check_lpa", _count_violations),
    ("lpa.witness", lpa, "witness_nodpath", None),
    ("lpa.search", lpa, "search_shape_word", None),
    ("unweighting.to_unweighted", unweighting, "to_unweighted", None),
    ("unweighting.stage1", unweighting, "make_ranges_sinks", None),
    ("unweighting.stage2", unweighting, "unweight_sunk", _count_stage2),
    ("unweighting.family_maps", unweighting, "family_maps", None),
    ("unweighting.verify", unweighting, "verify_families", _count_relations),
    ("exprs.parse", exprs, "parse_element", None),
    ("cli.self", cli, "run", None),
]

LAYERS = sorted({layer for layer, *_ in TARGETS})
MAX_SPANS = 100_000


class Tracer:
    """Spans and counters of the traced calls, kept in memory.

    ``snapshot`` returns and resets the totals since the last snapshot, so
    the caller can attribute them to set-up or to one pass.  Raw spans are
    kept only while ``record`` is true, up to ``MAX_SPANS``.
    """

    def __init__(self):
        self.record = True
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._reset()
        self._originals = []

    def _reset(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def snapshot(self) -> dict:
        out = {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": dict(self.counts)}
        self._reset()
        return out

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if tracer.record:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((span_id, parent, layer, start, end))
                    else:
                        tracer.dropped += 1
            if counter is not None:
                counter(tracer.counts, result)
            return result

        return traced

    def _wrap_relations(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts["algebra.relation_instances"] += 1
                yield item

        return counted

    def install(self):
        if self._originals:
            return
        modules = [m for name, m in sys.modules.items() if name == "wlpa" or name.startswith("wlpa.")]
        plan = [(owner, attr, self._wrap(layer, getattr(owner, attr), counter))
                for layer, owner, attr, counter in TARGETS]
        plan.append((algebra, "relation_instances", self._wrap_relations(algebra.relation_instances)))
        for owner, attr, wrapper in plan:
            original = getattr(owner, attr)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._originals.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._originals):
            setattr(holder, attr, original)
        self._originals = []

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: [id, parent, layer, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
