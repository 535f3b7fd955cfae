"""Run one benchmark workload of ``wlpa`` and print its metrics.

    python3 bench/run.py --workload compile-verify --seed 1 --seconds 30 --trace 0

One process, one client, a closed loop: each op starts when the previous
one has returned.  The workload's fixed op list is run as a pass, again and
again until ``--seconds`` have gone by (at least three passes), and every
output is checked against an independent reference.  Every time is scaled
by the host's speed at that moment, measured by :func:`calibrate` right
before and right after the timed work.  With ``--trace 1`` the
passes alternate between untraced and traced, and the per-layer figures are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
repeat the figures for people: per-size rows, fitted scaling exponents,
every metric with its unit and the failure ratio.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15  # set-ups timed per run, spread evenly over the timed phase
MIN_PASSES = 3
OP_LIMIT_S = 30.0
RUN_DEADLINE_S = 150.0  # no op starts later than this after process start
OUT_DIR = Path(".bench_out")
# Seconds the calibration loop takes on the reference host; scaled times are
# seconds on a host of that speed.
CAL_REF_S = 0.004
CAL_ROUNDS = 11000

# A satisfying and a failing graph for the warm-up, which runs every
# subcommand once before timing so that first-call costs are paid outside
# the timed phase.  Between them they reach every traced layer, so no
# per-layer time is empty on any workload.
WARM_SAT = "vertex a\nvertex b\nvertex c\nedge e a b 2\nedge f b c 3\nedge g a a\n"
WARM_FAIL = "vertex a\nvertex b\nvertex c\nedge e a b 2\nedge f a c 2\n"


def calibrate():
    """Seconds that a fixed stretch of pure-Python work takes right now.

    A shared host runs the same code up to twice as fast at one moment as
    at the next, in stretches from a fraction of a second to minutes, so
    raw times of one run differ from the next run's by more than a change
    worth finding.  Each timed piece of work is scaled by CAL_REF_S over
    the mean of this loop's time just before and just after it.  Like
    ``wlpa``, the loop hashes tuples and fills sets, dicts and lists; it
    tracked the package's slowdowns more closely than a loop of int
    arithmetic on one small dict.  The garbage collector is off while it
    runs: a full collection of the run's large heap would otherwise land
    in it now and then and make one calibration many times too slow.
    """
    gc.disable()
    try:
        start = perf_counter()
        seen, groups = set(), {}
        for i in range(CAL_ROUNDS):
            key = (i % 1500, i & 7)
            if key in seen:
                groups[key].append(i)
            else:
                seen.add(key)
                groups[key] = [i]
        return perf_counter() - start
    finally:
        gc.enable()


def scale(seconds, before, after):
    """``seconds`` on the reference host, from the calibrations around it."""
    return seconds * CAL_REF_S * 2 / (before + after)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


def import_package():
    """Import ``wlpa`` from this checkout's ``src``; return an error text or None."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "tests"))
    try:
        import wlpa
    except ImportError as exc:
        return f"cannot import wlpa from {ROOT / 'src'}: {exc}"
    if Path(wlpa.__file__).resolve().parent != ROOT / "src" / "wlpa":
        return f"imported wlpa from {wlpa.__file__}, not from this checkout"
    return None


def warm_up(run_cli):
    for argv, text in [
        (["validate"], WARM_SAT),
        (["check-lpa"], WARM_SAT),
        (["transform", "--verify"], WARM_SAT),
        (["eval", "e.1* e.1 + 2 * e.2 e.2*"], WARM_SAT),
        (["growth", "3"], WARM_SAT),
        (["zero-dim", "3"], WARM_SAT),
        (["basis", "2"], WARM_SAT),
        (["witness"], WARM_FAIL),
    ]:
        try:
            code, _, err = run_cli(argv + ["--input", "-"], text)
        except Exception as exc:  # the timed ops will count it; keep going
            code, err = type(exc).__name__, str(exc)
        if code not in (0, 3):
            print(f"# warm-up: {' '.join(argv)} exited {code}: {err.strip()}")


def run_pass(ops, state, deadline):
    """Time every op once; return [(seconds, problem or None, wrong, wall)] in op order.

    ``seconds`` is the op's time scaled to the reference host and ``wall``
    the time as measured.  ``wrong`` marks an op whose call returned but
    whose output failed its check, as opposed to one that raised or ran out
    of time.
    """
    out = []
    before = calibrate()
    for op in ops:
        if perf_counter() > deadline:
            out.append((OP_LIMIT_S, "not started: run deadline passed", False, OP_LIMIT_S))
            continue
        result, problem = None, None
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        start = perf_counter()
        try:
            result = op.call(state)
        except Exception as exc:  # an escaping exception is a failed op, not a crash
            problem = f"{type(exc).__name__}: {str(exc)[:200]}"
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        after = calibrate()
        seconds = scale(elapsed, before, after)
        before = after
        wrong = False
        if problem is None:
            try:
                problem = op.check(result)
            except Exception as exc:
                problem = f"output check raised {type(exc).__name__}: {exc}"
            wrong = problem is not None
        out.append((seconds, problem, wrong, elapsed))
    return out


def fit_slope(points_by_group):
    """Least-squares slope of log time on log size, one intercept per group."""
    sxy = sxx = 0.0
    for points in points_by_group.values():
        xs = [math.log(n) for n, _ in points]
        ys = [math.log(t) for _, t in points]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    return sxy / sxx if sxx else 0.0


def tail_percentile(samples):
    """(p, value): the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        k = math.ceil(n * p / 100) - 1
        if n - 1 - k >= 10:
            return p, ordered[k]
    return None, None


def time_setup(argv, payload):
    """Scaled time of one fresh-process set-up, from spawn until ready."""
    before = calibrate()
    start = perf_counter()
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            child.stdin.write(payload)
            child.stdin.close()
            ready = child.stdout.readline().strip() == b"ready"
            elapsed = perf_counter() - start
            child.stdout.read()
            err = child.stderr.read()
        except (BrokenPipeError, OpTimeout) as exc:
            child.kill()
            ready, err = False, str(exc).encode()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if not ready or child.returncode != 0:
        raise RuntimeError(f"set-up process failed: {err.decode(errors='replace').strip()[-500:]}")
    return scale(elapsed, before, calibrate())


def summarize(ops, passes):
    """Per-op medians over the passes, grouped by (family, kind, size).

    For latency a failed op counts as taking the whole op time limit, so a
    failure can only raise a median; ``total`` adds up the measured times.
    """
    def median_of(i, latency):
        return statistics.median(
            OP_LIMIT_S if latency and r[i][1] else r[i][0] for r in passes
        )

    elapsed = [median_of(i, False) for i in range(len(ops))]
    latency = [median_of(i, True) for i in range(len(ops))]
    groups = defaultdict(list)
    for i, op in enumerate(ops):
        groups[(op.family, op.kind, op.size)].append(i)
    rows, points, top = [], defaultdict(list), {}
    for (family, kind, size), idx in sorted(groups.items()):
        median = statistics.median(latency[i] for i in idx)
        failed = sum(1 for r in passes for i in idx if r[i][1])
        rows.append((family, kind, size, median, len(idx) * len(passes), failed))
        if not failed:
            points[(family, kind)].append((size, median))
        top[family] = max(top.get(family, 0), size)
    large = [i for i, op in enumerate(ops) if op.size == top[op.family]]
    return {
        "rows": rows,
        "fitted": {g: pts for g, pts in points.items() if len(pts) >= 2},
        "total": sum(elapsed),
        "large": statistics.median(latency[i] for i in large),
        "large_samples": [OP_LIMIT_S if r[i][1] else r[i][0] for r in passes for i in large],
    }


def report_end_to_end(args, ops, passes, setup_times):
    s = summarize(ops, passes)
    attempted = sum(len(r) for r in passes)
    failures = [(op, r[1]) for results in passes for op, r in zip(ops, results) if r[1]]
    print(f"# workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, {len(passes)} passes")
    print("# pass totals, scaled (s): " + " ".join(f"{sum(r[0] for r in results):.4f}" for results in passes))
    print("# pass totals, wall (s):   " + " ".join(f"{sum(r[3] for r in results):.4f}" for results in passes))
    print("# family        op          size   median_s     n  failed")
    for family, kind, size, median, n, nfail in s["rows"]:
        print(f"  {family:<13} {kind:<10} {size:>5}  {median:>9.5f}  {n:>4}  {nfail:>6}")
    for group, points in sorted(s["fitted"].items()):
        print(f"# scaling {group[0]}/{group[1]}: exponent {fit_slope({group: points}):.3f}"
              f" over sizes {[n for n, _ in points]}")
    p, tail = tail_percentile(s["large_samples"])
    tail_text = f"p{p} {tail:.5f} s" if p else "no percentile has 10 samples beyond it"
    print(f"# large ops: {len(s['large_samples'])} samples, {tail_text}")
    print(f"# set-ups: {len(setup_times)} fresh processes, "
          f"{min(setup_times):.4f} .. {max(setup_times):.4f} s")
    for op, problem in failures[:5]:
        print(f"# FAILED {op.family}/{op.kind}/{op.size}: {problem}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "total_s": (s["total"], "s"),
        "large_op_s": (s["large"], "s"),
        "scaling_exp": (fit_slope(s["fitted"]), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report_layers(args, ops, plain, traced, snapshots, tracer):
    """Per-layer figures of one set-up plus one pass (median over traced passes)."""
    setup, per_pass = snapshots[0], snapshots[1:]
    nops = len(ops)

    def figure(section, key):
        return setup[section].get(key, 0) + statistics.median(s[section].get(key, 0) for s in per_pass)

    def per_op(key):
        return statistics.median(s["calls"].get(key, 0) for s in per_pass) / nops

    from tracing import LAYERS

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (figure("self_s", layer), "s")
        metrics[f"{layer}_calls"] = (figure("calls", layer), "count")
    for key in ("algebra.build", "lpa.check", "unweighting.stage1"):
        metrics[f"{key}_calls_per_op"] = (per_op(key), "calls/op")
    for key in ("algebra.relation_instances", "algebra.enumerate_words",
                "unweighting.relations_checked", "unweighting.stage2_vertices",
                "unweighting.stage2_edges", "lpa.violations.LPA1", "lpa.violations.LPA2",
                "lpa.violations.LPA3", "lpa.violations.LPA4"):
        metrics[key] = (figure("counts", key), "count")
    # The first pass runs on a cold interpreter; it is left out when another
    # untraced pass exists.
    overhead = summarize(ops, traced)["total"] - summarize(ops, plain[1:] or plain)["total"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (statistics.median(sum(s["calls"].values()) for s in per_pass), "count")
    print(f"# workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes")
    print(f"# per-layer figures: one set-up and warm-up plus one pass of {nops} ops")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    path = OUT_DIR / f"spans-{args.workload}.jsonl"
    tracer.write_spans(path)
    print(f"# {len(tracer.spans)} spans of set-up, warm-up and the first traced pass written to {path}"
          + (f" ({tracer.dropped} more not kept)" if tracer.dropped else ""))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, run_cli, setup

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cases, ops = workload.build(args.seed)
    deadline = START + RUN_DEADLINE_S
    signal.signal(signal.SIGALRM, _alarm)

    tracer = None
    setup_times = []
    setup_argv = [sys.executable, str(HERE / "setup_child.py")] + (["--algebras"] if workload.algebras else [])
    payload = json.dumps([c.text for c in cases]).encode()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if not tracer:
            setup_times.append(time_setup(setup_argv, payload))
        state = setup(workload, cases)
        warm_up(run_cli)

        snapshots = [tracer.snapshot()] if tracer else []
        plain, traced = [], []
        phase_start = perf_counter()
        while True:
            trace_this = tracer is not None and len(plain) > len(traced)
            if tracer:
                tracer.install() if trace_this else tracer.uninstall()
            results = run_pass(ops, state, deadline)
            if trace_this:
                snapshots.append(tracer.snapshot())
                tracer.record = False
                traced.append(results)
            else:
                plain.append(results)
            # Set-ups are timed between passes, spread over the run, so that
            # their median does not hang on one moment of a busy host.
            if not tracer:
                due = SETUP_REPS * min(1.0, (perf_counter() - phase_start) / args.seconds)
                while len(setup_times) < due and perf_counter() < deadline:
                    setup_times.append(time_setup(setup_argv, payload))
            # Past the deadline ops are not started, so the traced run can
            # still finish its one traced pass quickly.
            done = len(plain) + len(traced)
            if perf_counter() > deadline and done >= (2 if tracer else 1):
                break
            if perf_counter() - phase_start >= args.seconds and done >= (2 if tracer else MIN_PASSES):
                break
        while not tracer and len(setup_times) < SETUP_REPS and perf_counter() < deadline:
            setup_times.append(time_setup(setup_argv, payload))
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if tracer:
        tracer.uninstall()

    all_passes = plain + traced
    outcomes = [r for results in all_passes for r in results]
    if tracer:
        metrics = report_layers(args, ops, plain, traced, snapshots, tracer)
    else:
        metrics = report_end_to_end(args, ops, plain, setup_times)
    print(json.dumps({
        "correct": not any(wrong for _, _, wrong, _ in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for _, problem, _, _ in outcomes if problem),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
