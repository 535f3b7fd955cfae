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
