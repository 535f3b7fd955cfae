"""Fail when a function body or ``raise`` statement of ``src/wlpa`` runs in no test.

Run from the repository root::

    python3 tests/reach.py [pytest arguments]

It runs the tier-1 suite in this process under ``sys.settrace``, tracing
only frames whose code lives in ``src/wlpa``, and then reads each module's
syntax tree for the statements that must have run:

* every function body, seen as a call of its code object;
* every ``raise`` statement, seen as a line event on one of its lines;
* every ``if __name__ == "__main__":`` block, the body of a module's entry
  point, seen as a line event on its first statement.

A statement in ``ALLOWED`` is a guard against a bug of the package, which no
input can reach; each carries its reason.  An allowed statement that runs,
or that no longer exists, fails the check too, so the list stays exact.
Tracing makes the suite two to three times slower.  The name keeps pytest
from collecting this file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wlpa"

# (file, enclosing function or "<module>", first source line of the statement)
ALLOWED = {
    ("lpa.py", "witness_nodpath", "raise WitnessSearchError("):
        "the nod-word search finds a word whenever (LPA) fails; "
        "reaching this is a bug of the search",
    ("lpa.py", "witness_nodpath",
     'raise WitnessSearchError("constructed witness is not a nod-word")'):
        "both witness constructions yield nod-words; reaching this is a bug of one of them",
    ("unweighting.py", "make_ranges_sinks",
     'raise RuntimeError(f"stage-1 postcondition failed: {exc.clause}") from exc'):
        "stage 1 of a graph satisfying (LPA) meets its postconditions; "
        "reaching this is a bug of stage 1",
    ("cli.py", "run", 'raise _UsageError(f"unknown command {args.command!r}")'):
        "argparse accepts only the commands that run handles",
    ("cli.py", "<module>", 'if __name__ == "__main__":'):
        "runs only as a script; the tests call run, and the installed entry point calls main",
}


def targets(path: Path):
    """Yield ``(kind, owner, text, key)`` for each statement of ``path`` that must run.

    ``kind`` is "function", "raise" or "entry point"; ``owner`` is the
    qualified name of the enclosing function, or "<module>".  A function's
    ``key`` is ``(first line, name)`` of its code object, where the first
    line is that of its first decorator; a statement's is its line range.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
                yield "function", inner, lines[child.lineno - 1].strip(), (first, child.name)
            elif isinstance(child, ast.ClassDef):
                inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
            elif isinstance(child, ast.Raise):
                yield ("raise", owner, lines[child.lineno - 1].strip(),
                       (child.lineno, child.end_lineno))
            elif (owner == "<module>" and isinstance(child, ast.If)
                  and ast.unparse(child.test) == "__name__ == '__main__'"):
                body = child.body[0]
                yield ("entry point", owner, lines[child.lineno - 1].strip(),
                       (body.lineno, body.lineno))
            yield from visit(child, inner)

    yield from visit(ast.parse(source, str(path)), "<module>")


def traced_run(pytest_args) -> tuple[int, set, set]:
    """Run pytest under the tracer; return its exit code, the calls and the lines seen."""
    import pytest

    prefix = str(PACKAGE) + "/"
    calls: set[tuple[str, int, str]] = set()
    lines: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        calls.add((code.co_filename, code.co_firstlineno, code.co_name))
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), calls, lines


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    exit_code, calls, lines = traced_run(argv or [str(ROOT / "tests")])
    if exit_code != 0:
        print(f"reach: the tests failed (pytest exit code {exit_code})")
        return 1

    missed, allowed_seen = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        filename = str(path)
        for kind, owner, text, key in targets(path):
            if kind == "function":
                ran = (filename, *key) in calls
            else:
                ran = any((filename, n) in lines for n in range(key[0], key[1] + 1))
            allowed = (path.name, owner, text)
            if allowed in ALLOWED:
                allowed_seen.add(allowed)
                if ran:
                    missed.append(f"{path.name}:{key[0]}: allowed {kind} ran: {text}")
            elif not ran:
                missed.append(f"{path.name}:{key[0]}: {kind} in {owner} never ran: {text}")
    missed += [f"{name}: allowed statement in {owner} not found: {text}"
               for (name, owner, text) in sorted(ALLOWED.keys() - allowed_seen)]

    for line in missed:
        print(f"reach: {line}")
    if missed:
        return 1
    print(f"reach: every function body and raise statement of {PACKAGE.name} ran, "
          f"but for {len(ALLOWED)} allowed guards")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
