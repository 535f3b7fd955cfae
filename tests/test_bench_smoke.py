"""The benchmark harness still runs against the package.

``bench/selfcheck.py`` drives every workload's smallest ops through the
public API and checks them against the harness's own references, so an API
change that breaks the benchmark fails here and not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_bench_tracer_installs_on_the_package():
    # The tracer looks up every name it wraps; a renamed or deleted one
    # raises AttributeError here instead of only in a traced benchmark run.
    script = (
        "import sys; sys.path[:0] = ['src', 'bench']\n"
        "import tracing\n"
        "from wlpa import graphs\n"
        "original = graphs.tree\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "assert graphs.tree is not original\n"
        "graphs.tree(graphs.parse_graph('vertex v\\n'), ['v'])\n"
        "assert tracer.calls['graphs.tree'] == 1\n"
        "tracer.uninstall()\n"
        "assert graphs.tree is original\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
