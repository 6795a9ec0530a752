"""Command-line interface: check, graph, reduce, typecheck.

Exit codes are uniform across commands: 0 for success (termination proved,
or the requested output produced), 1 when the criterion or the reducer runs
out of road (inconclusive verdict, spent fuel), 2 for validation and typing
errors, 3 for input that cannot be read, decoded as UTF-8 or parsed, 4 when
an output cannot be written (a file, or stdout closed early), 5 when the
input nests too deeply to process or treeterm fails in an unexpected way
(an internal error), 64 for a malformed command line (the sysexits
EX_USAGE).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .analysis import check_criterion
from .report import (
    build_report,
    diagnostic_to_dict,
    parse_error_to_dict,
    report_to_json,
    to_dot,
    verdict_lines,
)
from .rewrite import FuelExhausted, normalize, pattern_form
from .syntax import (
    ParseError,
    parse_erased_term,
    parse_system,
    print_erased,
    print_pattern,
    print_rule,
    print_type,
)
from .terms import RewriteSystem
from .typecheck import Diagnostic, ValidatedSystem, validate_system
from .viz import render_graph_png

EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_WRITE = 4
EXIT_INTERNAL = 5
EXIT_USAGE = 64


class _Unwritable(Exception):
    """An output file could not be written; `main` turns this into EXIT_WRITE."""


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_USAGE; argparse's own 2 means INVALID here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _load(path: str, say=print) -> RewriteSystem | ParseError | None:
    """Read and parse a system file, skipping a UTF-8 byte-order mark and
    translating no line ends, as `parse_system` reads them.  A file that
    cannot be read or is not UTF-8 is reported on stderr and gives None; a
    parse error is reported with `say` and returned."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_system(text)
    except ParseError as exc:
        say(f"PARSE ERROR: {path}: {exc}")
        return exc


def _validate(path: str, system: RewriteSystem, say=print) -> ValidatedSystem | list[Diagnostic]:
    """Validate a parsed system, reporting any diagnostics with `say`."""
    validated = validate_system(system)
    if isinstance(validated, list):
        say(f"INVALID: {path}")
        for diag in validated:
            say(f"  {diag}")
    return validated


def _write(path: str, data: str | bytes) -> None:
    """Write one output file; text is written as UTF-8."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc}") from None


def cmd_check(args: argparse.Namespace) -> int:
    say = (lambda message: None) if args.json == "-" else print  # stdout carries only the report
    started = time.perf_counter()
    system = _load(args.path, say)
    if system is None:
        return EXIT_PARSE
    verdict = None
    if isinstance(system, ParseError):
        code, outcome, found = EXIT_PARSE, "parse-error", {"diagnostics": (parse_error_to_dict(system),)}
    elif isinstance(validated := _validate(args.path, system, say), list):
        code, outcome = EXIT_INVALID, "invalid"
        found = {"system": system, "diagnostics": tuple(map(diagnostic_to_dict, validated))}
    else:
        verdict = check_criterion(validated)
        code, outcome = (EXIT_OK, "terminating") if verdict.terminating else (EXIT_UNKNOWN, "unknown")
        found = {"system": system, "validated": validated, "verdict": verdict}
    elapsed = time.perf_counter() - started
    if verdict is not None:
        for line in verdict_lines(args.path, system, verdict):
            say(line)
    # The report goes out before the graph files, so an unwritable picture cannot lose it.
    if args.json:
        report = report_to_json(build_report(args.path, outcome, elapsed=elapsed, **found))
        if args.json == "-":
            sys.stdout.write(report)
        else:
            _write(args.json, report)
    if verdict is not None and args.dot:
        _write(args.dot, to_dot(verdict))
        say(f"  wrote DOT to {args.dot}")
    if verdict is not None and args.png:
        _write(args.png, render_graph_png(verdict))
        say(f"  wrote PNG to {args.png}")
    return code


def cmd_graph(args: argparse.Namespace) -> int:
    system = _load(args.path)
    if not isinstance(system, RewriteSystem):
        return EXIT_PARSE
    validated = _validate(args.path, system)
    if isinstance(validated, list):
        return EXIT_INVALID
    verdict = check_criterion(validated)
    dot = to_dot(verdict)
    if args.dot:
        _write(args.dot, dot)
        graph = verdict.graph
        print(f"wrote DOT to {args.dot} ({len(graph.nodes)} nodes, {sum(map(len, graph.adjacency))} edges)")
    else:
        sys.stdout.write(dot)
    if args.png:
        _write(args.png, render_graph_png(verdict))
        print(f"wrote PNG to {args.png}")
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    system = _load(args.path)
    if not isinstance(system, RewriteSystem):
        return EXIT_PARSE
    symbols = frozenset(name for name, _ in system.signature)
    try:
        term = parse_erased_term(args.term, symbols)
    except ParseError as exc:
        print(f"PARSE ERROR: --term: {exc}")
        return EXIT_PARSE
    outcome = normalize(term, system, args.fuel)
    if isinstance(outcome, FuelExhausted):
        print(f"FUEL EXHAUSTED after {outcome.steps} expanded states (budget {args.fuel})")
        for t in outcome.frontier[:5]:
            print(f"  still reducing: {print_erased(t)}")
        return EXIT_UNKNOWN
    forms = sorted(outcome.forms, key=print_erased)
    shown = forms if args.all else forms[:1]
    for v in shown:
        line = print_erased(v)
        if args.oracle:
            line += f"    # pattern form: {print_pattern(pattern_form(v))}"
        print(line)
    if args.all:
        print(f"{len(forms)} normal form(s)")
    return EXIT_OK


def cmd_typecheck(args: argparse.Namespace) -> int:
    system = _load(args.path)
    if not isinstance(system, RewriteSystem):
        return EXIT_PARSE
    validated = _validate(args.path, system)
    if isinstance(validated, list):
        return EXIT_INVALID
    for vr in validated.rules:
        print(f"rule {vr.index}: {print_rule(vr.rule)}")
        context = str(vr.context)
        print(f"  context: {context if context else '(empty)'}")
        print(f"  lhs type: {print_type(vr.lhs_type)}")
        print("  rhs: ok")
    print(f"ok: {len(validated.rules)} rule(s), {len(system.signature.entries)} symbol(s)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="treeterm",
        description="Termination checker for tree rewrite systems with pattern-refinement types",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a system and run the termination criterion")
    p_check.add_argument("path", help="rewrite system file")
    p_check.add_argument("--json", metavar="PATH",
                         help="write a JSON report to PATH ('-' for stdout, silencing the text output)")
    p_check.add_argument("--dot", metavar="PATH", help="write the dependency graph in DOT format")
    p_check.add_argument("--png", metavar="PATH", help="render the dependency graph to a PNG file")
    p_check.set_defaults(func=cmd_check)

    p_graph = sub.add_parser("graph", help="export the dependency graph")
    p_graph.add_argument("path", help="rewrite system file")
    p_graph.add_argument("--dot", metavar="PATH", help="write DOT to PATH instead of stdout")
    p_graph.add_argument("--png", metavar="PATH", help="render the graph to a PNG file")
    p_graph.set_defaults(func=cmd_graph)

    p_reduce = sub.add_parser("reduce", help="normalize a term under a system's rules")
    p_reduce.add_argument("path", help="rewrite system file")
    p_reduce.add_argument("--term", required=True, help="erased term to reduce")
    p_reduce.add_argument("--fuel", type=_positive_int, default=10000, help="maximum states to expand")
    p_reduce.add_argument("--all", action="store_true", help="print every normal form, not just one")
    p_reduce.add_argument("--oracle", action="store_true",
                          help="annotate each printed normal form with its pattern form")
    p_reduce.set_defaults(func=cmd_reduce)

    p_tc = sub.add_parser("typecheck", help="print each rule's context, lhs type and rhs status")
    p_tc.add_argument("path", help="rewrite system file")
    p_tc.set_defaults(func=cmd_typecheck)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`).  Point stdout at devnull
        # so the flush at shutdown cannot raise again; see "Note on SIGPIPE"
        # in the `signal` module's documentation.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_WRITE
    except _Unwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE
    except RecursionError:
        # the parser, typechecker and reducer recurse along the term structure
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a fault in treeterm; exit 1 would read as UNKNOWN
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
