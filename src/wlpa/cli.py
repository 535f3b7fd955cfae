"""Command-line front end.

Subcommands: validate, check-lpa, transform [--verify], eval, basis,
growth, zero-dim, witness.  Exit codes: 0 success, 1 input or usage
error, 3 semantic negative (Condition (LPA) violated, or no witness in
the satisfied case).  Output is deterministic for fixed input and flags;
``--format machine`` emits a single JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate
from typing import Callable, Optional

# the package's names load on first use, so a command loads only the submodules it runs
import wlpa

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 3


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """``-h``/``--help`` was given; the help text is the message."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # the help action then exits; raising first lets run() print it to its stdout
        raise _HelpRequested(self.format_help())


def _natural(text: str) -> int:
    """A length or budget: :func:`parse_natural`, after a ``-`` that the command rejects."""
    natural = wlpa.graphs.parse_natural
    try:
        return -natural(text[1:]) if text.startswith("-") else natural(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number in ASCII digits: {text!r}") from None


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="wlpa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="graph file, or - for stdin")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--field", default="rational", help="rational or mod:<prime>")
        return p

    def with_special(p):
        # only the subcommands whose output depends on the special edges
        common(p).add_argument(
            "--special",
            default=None,
            help="comma-separated vertex=edge overrides for the special edges",
        )
        return p

    common(sub.add_parser("validate", help="parse and validate a graph file"))
    common(sub.add_parser("check-lpa", help="decide Condition (LPA)"))
    p = common(sub.add_parser("transform", help="compile to an unweighted graph"))
    p.add_argument("--verify", action="store_true", help="verify the generator families")
    p = with_special(sub.add_parser("eval", help="normalize an element expression"))
    p.add_argument("expression")
    p = with_special(sub.add_parser("basis", help="enumerate nod-words up to a length"))
    p.add_argument("max_len", type=_natural)
    p.add_argument("--source", default=None)
    p.add_argument("--range", dest="range_", default=None)
    p.add_argument("--budget", type=_natural, default=10**5)
    p = with_special(sub.add_parser("growth", help="table of nod-word counts by length"))
    p.add_argument("max_len", type=_natural)
    p = with_special(sub.add_parser("zero-dim", help="table of degree-zero nod-word counts"))
    p.add_argument("max_len", type=_natural)
    with_special(sub.add_parser("witness", help="nod-word witnessing an (LPA) failure"))
    return parser


def _read_graph(path: str, stdin) -> wlpa.WeightedGraph:
    try:
        if path == "-":
            text = stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    return wlpa.parse_weighted_graph(text)


def _parse_special(g: wlpa.WeightedGraph, spec: Optional[str]) -> Optional[wlpa.SpecialEdgeChoice]:
    """The default special edges with the stripped ``vertex=edge`` overrides laid over them.

    A second entry for a vertex, even a repeat of the same pair, is rejected.
    The algebra built from it checks the choice, and ``witness_nodpath``, which builds
    none, checks it itself.
    """
    if spec is None:
        return None
    overrides = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        vertex, sep, edge = (side.strip() for side in part.partition("="))
        if not (vertex and sep and edge):
            raise _UsageError(f"bad --special entry {part!r}; expected vertex=edge")
        if vertex in overrides:
            raise _UsageError(f"--special names vertex {vertex!r} twice")
        overrides[vertex] = edge
    pairs = [(v, overrides.pop(v, e)) for v, e in wlpa.default_special_edges(g).pairs]
    if overrides:
        names = ", ".join(sorted(overrides))
        raise _UsageError(f"--special names sinks or unknown vertices: {names}")
    return wlpa.SpecialEdgeChoice(tuple(pairs))


def _emit(args, stdout, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the JSON document or the text, whichever ``--format`` asks for.

    Both are given as functions, so only the requested output is built.
    """
    if args.format == "machine":
        print(json.dumps(payload()), file=stdout)
    else:
        rendered = text()
        print(rendered, file=stdout, end="" if rendered.endswith("\n") else "\n")


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        field = wlpa.field_from_name(args.field)
        graph = _read_graph(args.input, stdin)

        if args.command == "validate":
            _emit(args, stdout,
                  lambda: {"command": "validate", "ok": True,
                           "graph": wlpa.graph_to_records(graph)},
                  lambda: f"ok: {len(graph.vertices)} vertices, {len(graph.edges)} edges")
            return EXIT_OK

        if args.command == "check-lpa":
            report = wlpa.check_lpa(graph)
            _emit(args, stdout, lambda: {"command": "check-lpa", **report.to_records()},
                  report.describe)
            return EXIT_OK if report.satisfied else EXIT_NEGATIVE

        if args.command == "transform":
            try:
                _, trace = wlpa.to_unweighted(graph)
            except wlpa.LpaViolatedError as exc:
                _emit(args, stdout, lambda: {"command": "transform", **exc.report.to_records()},
                      exc.report.describe)
                return EXIT_NEGATIVE
            verification = None
            if args.verify:
                fwd, bwd = wlpa.family_maps(trace, field=field)
                verification = wlpa.verify_families(fwd, bwd)

            def payload():
                return {
                    "command": "transform",
                    "satisfied": True,
                    "stage1": wlpa.graph_to_records(trace.stage1_graph),
                    "stage2": wlpa.graph_to_records(trace.stage2_graph),
                    "trace": trace.to_records(),
                    "verify": verification.to_records() if verification is not None else None,
                }

            def text():
                lines = ["# stage 1"]
                lines.append("# Z: " + " ".join(trace.Z))
                lines.append("# gv: " + " ".join(f"{v}={e}" for v, e in trace.gv_map))
                lines.append(wlpa.serialize_weighted_graph(trace.stage1_graph).rstrip("\n"))
                lines.append("# stage 2")
                lines.append(wlpa.serialize_graph(trace.stage2_graph).rstrip("\n"))
                if verification is not None:
                    lines.append("# verify: " + ("ok" if verification.ok else "FAILED"))
                    for key, value in sorted(verification.counts.items()):
                        lines.append(f"# {key}: {value}")
                return "\n".join(lines)

            _emit(args, stdout, payload, text)
            if verification is not None and not verification.ok:
                print("family verification failed", file=stderr)
                return EXIT_INPUT
            return EXIT_OK

        choice = _parse_special(graph, args.special)

        if args.command == "witness":
            try:
                word = wlpa.witness_nodpath(graph, choice)
            except wlpa.LpaSatisfiedError:
                _emit(args, stdout,
                      lambda: {"command": "witness", "satisfied": True, "word": None},
                      lambda: "satisfied: no witness exists")
                return EXIT_NEGATIVE
            tokens = [g.token() for g in word]
            _emit(args, stdout,
                  lambda: {"command": "witness", "satisfied": False, "word": tokens},
                  lambda: " ".join(tokens))
            return EXIT_OK

        algebra = wlpa.Algebra(graph, choice, field)

        if args.command == "eval":
            element = wlpa.parse_element(algebra, args.expression)
            _emit(args, stdout,
                  lambda: {"command": "eval", "field": field.name,
                           "terms": element.to_records()},
                  element.render)
            return EXIT_OK

        if args.command == "basis":
            words = algebra.enumerate_nodwords(
                args.max_len,
                source=args.source,
                range_=args.range_,
                budget=args.budget,
            )
            _emit(args, stdout,
                  lambda: {"command": "basis", "max_len": args.max_len,
                           "words": [[g.token() for g in w] for w in words]},
                  lambda: "\n".join(algebra.render_word(w) for w in words) or "(none)")
            return EXIT_OK

        if args.command in ("growth", "zero-dim"):
            counts = algebra.nodword_counts(args.max_len,
                                            zero_degree=args.command == "zero-dim")
            totals = list(accumulate(counts))
            # the walk stops at the first length with no nod-word; later rows repeat the total
            totals += totals[-1:] * (args.max_len + 1 - len(totals))
            table = list(enumerate(totals))
            _emit(args, stdout,
                  lambda: {"command": args.command, "table": [[n, c] for n, c in table]},
                  lambda: "\n".join(f"{n}\t{c}" for n, c in table))
            return EXIT_OK

        raise _UsageError(f"unknown command {args.command!r}")
    except _HelpRequested as exc:
        stdout.write(str(exc))
        return EXIT_OK
    except (RecursionError, MemoryError, OverflowError) as exc:
        # Last resort: inputs known to run this deep or this large are
        # rejected earlier with their own messages.  A table too long to
        # index overflows before anything is allocated.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: resource limit reached ({type(exc).__name__}{detail})", file=stderr)
        return EXIT_INPUT
    # evaluated only once an exception reaches here, so naming the error
    # classes loads their submodules on this path alone
    except (_UsageError, wlpa.GraphError, wlpa.AlgebraError, wlpa.ExpressionError,
            wlpa.FieldError, wlpa.ReservedIdError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # a full device, or a reader that closed the pipe
        # what stays buffered goes to devnull, so the interpreter's last flush
        # is quiet (Python's signal docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
