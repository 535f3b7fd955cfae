"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Checks, on the smallest case of every family:

* the generators and op lists are deterministic for a fixed seed and
  change with the seed;
* each generator's verdict agrees with the reference (LPA) decision, and
  the reference nod-word count agrees with the test-suite's classical
  oracle on unweighted graphs;
* with the honest references every op passes;
* with a deliberately wrong reference some op fails its check, which shows
  that the checks can fail.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import signal
import sys

import run

SEEDS = (1, 2, 3)


def small_ops(workload, seed):
    cases, ops = workload.build(seed)
    smallest = {}
    for op in ops:
        smallest[op.family] = min(smallest.get(op.family, op.size), op.size)
    return cases, [op for op in ops if op.size == smallest[op.family]]


def failures(workload, seed):
    """(wrong outputs, other failures) of one pass over the small ops."""
    import workloads

    cases, ops = small_ops(workload, seed)
    results = run.run_pass(ops, workloads.setup(workload, cases), deadline=float("inf"))
    wrong = [(op, p) for op, (_, p, w, _) in zip(ops, results) if w]
    other = [(op, p) for op, (_, p, w, _) in zip(ops, results) if p and not w]
    return wrong, other


def main() -> int:
    problem = run.import_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import reference
    import workloads

    signal.signal(signal.SIGALRM, run._alarm)
    bad = []

    def expect(ok, text):
        print(("ok    " if ok else "FAIL  ") + text)
        if not ok:
            bad.append(text)

    for name, workload in workloads.WORKLOADS.items():
        a = [(op.family, op.kind, op.size, op.input) for op in workload.build(7)[1]]
        b = [(op.family, op.kind, op.size, op.input) for op in workload.build(7)[1]]
        c = [(op.family, op.kind, op.size, op.input) for op in workload.build(8)[1]]
        expect(a == b, f"{name}: same seed gives the same ops")
        expect(a != c, f"{name}: another seed gives other inputs")
        disagree = []
        for seed in SEEDS:
            for case in workload.build(seed)[0]:
                if (not reference.lpa_kinds(case)) != case.satisfied:
                    disagree.append(f"{case.family}/{case.size} seed {seed} verdict")
                if case.family == "unweighted":
                    letters = reference.Letters(case)
                    ours = reference.growth_table(letters, workloads.ORACLE_LEN)
                    if ours != workloads.oracle_growth(case, letters, workloads.ORACLE_LEN):
                        disagree.append(f"{case.family}/{case.size} seed {seed} growth")
        expect(not disagree, f"{name}: constructed verdicts and the oracle agree with the references"
                             + (f" except {disagree[:3]}" if disagree else ""))
        wrong, other = failures(workload, 1)
        problems = [(o.kind, p) for o, p in wrong + other][:3]
        expect(not problems, f"{name}: every small op passes" + (f" except {problems}" if problems else ""))

    def raises(state):
        raise RecursionError("maximum recursion depth exceeded")

    crash = workloads.Op("synthetic", 1, "raise", "", raises, lambda result: None)
    (_, problem, wrong, _), = run.run_pass([crash], None, deadline=float("inf"))
    expect(problem is not None and not wrong, "an exception escaping an op is a failed op, not a crash")

    corruptions = {
        "compile-verify": ("stage-2 size off by one", reference, "stage2_counts",
                           lambda orig: lambda case: (orig(case)[0] + 1, orig(case)[1])),
        "lpa-decide": ("LPA2 toggled in the expected conditions", reference, "lpa_kinds",
                       lambda orig: lambda case: orig(case) ^ {"LPA2"}),
        "arith": ("nod-word count off by one", reference, "growth_table",
                  lambda orig: lambda letters, n: [x + 1 for x in orig(letters, n)]),
    }
    for name, (label, owner, attr, make) in corruptions.items():
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        try:
            wrong, _ = failures(workloads.WORKLOADS[name], 1)
        finally:
            setattr(owner, attr, original)
        expect(bool(wrong), f"{name}: a wrong reference ({label}) fails {len(wrong)} ops")

    # Forbidding every factor makes each witness and basis word wrong.
    original = reference.Letters.allowed
    reference.Letters.allowed = lambda self, a, b: False
    try:
        for name in ("lpa-decide", "arith"):
            wrong, _ = failures(workloads.WORKLOADS[name], 1)
            expect(bool(wrong), f"{name}: a wrong nod-word rule fails {len(wrong)} ops")
    finally:
        reference.Letters.allowed = original

    print("self-check " + ("passed" if not bad else f"FAILED ({len(bad)})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
