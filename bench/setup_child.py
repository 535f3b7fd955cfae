"""One timed set-up, in a fresh process.

    python3 bench/setup_child.py [--algebras] < texts.json

Reads a JSON list of graph texts on standard input, imports ``wlpa``,
parses every text, builds an ``Algebra`` per graph when ``--algebras`` is
given, and prints ``ready``.  ``run.py`` times it from spawn to ``ready``
several times and reports the median as ``setup_s``, because an import
can only be timed once per process.  Only ``wlpa`` and the standard
library are imported here, so the benchmark's own modules add nothing.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wlpa  # noqa: E402

graphs = [wlpa.parse_weighted_graph(text) for text in json.load(sys.stdin)]
if "--algebras" in sys.argv[1:]:
    algebras = [wlpa.Algebra(g) for g in graphs]
print("ready", flush=True)
