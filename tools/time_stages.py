#!/usr/bin/env python3
"""Time each stage of `treeterm check` or `treeterm reduce` in two source
trees, in alternating child processes.

    python3 tools/time_stages.py OLD_SRC NEW_SRC --workload W --seed S
    python3 tools/time_stages.py OLD_SRC NEW_SRC --ring-800
    python3 tools/time_stages.py OLD_SRC NEW_SRC --wide-self K
    python3 tools/time_stages.py OLD_SRC NEW_SRC --system FILE

OLD_SRC and NEW_SRC are directories holding a `treeterm` package, such as
the `src/` of two checkouts.  The ops are the check ops of perfbench
workload W (ring, clique or wide) for seed S, in their run order, built by
`perfbench/workloads.py`; `--ops N` keeps the first N.  `--ring-800` times
the one system `ring_text(800)` instead, and `--wide-self K` the one system
wide-self-K, perfbench's wide-1×K with no shrinking argument: a symbol with
K recursive arguments and a rule that calls it on all of them, so that its
right-hand side applies it to K patterns.  `--system FILE` times the one
system in the `.trs` file FILE, which must be valid.  `--workload reduce`
times the reduce ops of perfbench instead, each a term over one of its two
fixture systems, which a child parses once.

Each round runs one child process per tree, the old tree first in odd
rounds and the new one first in even rounds, one process at a time.  A
child warms up on the first op, then times every stage on every op: the
best of three calls of each.  A reduce op's stages are `parse_erased_term`
on the term text, `normalize` on the term and the sorted `print_erased` of
its normal forms.  A check op's stages are `scan`, the token scan that `parse_system` runs
first, of `tokenize`, the scan with lines and columns that a parse runs
only once a location is read, as for an error (the valid workload systems
never run it inside `parse_system`), and of `parse_system` on the text,
`validate_system` on the parsed system, the layers of the analysis on
their own (`extract_dps` on the validated system, `build_graph` on its
pairs, `sccs` on the graph and `find_indices` on each nontrivial
component), `check_criterion`, which runs all of the analysis again, on the
validated system, and `build_report` and `report_to_json` on their results,
all called as perfbench's check runner calls them.  A round's figure for a
stage is its total time over the ops divided by their number.  The script
prints, per stage, the median of these figures over the rounds for each
tree, in milliseconds per op, and the new/old ratio of the medians.  A
stage that a tree does not have, such as `scan` before that function
existed, prints `-`.  A child that fails stops the script with exit 2.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("scan", "tokenize", "parse_system", "validate_system", "extract_dps", "build_graph", "sccs",
          "find_indices", "check_criterion", "build_report", "report_to_json")
REDUCE_STAGES = ("parse_erased_term", "normalize", "print_erased")
FUEL = 10000  # the fuel of perfbench's reduce ops
REPEAT = 3  # calls per stage and op; the fastest counts


def load_workloads():
    """perfbench/workloads.py as a module, without putting its directory on
    sys.path or writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def texts(workload: str, seed: int, ops: int | None, system: Path | None = None) -> list[str]:
    if system is not None:
        return [system.read_text(encoding="utf-8")]
    workloads = load_workloads()
    if workload == "ring-800":
        return [workloads.ring_text(800)]
    if workload.startswith("wide-self-"):
        k = int(workload.removeprefix("wide-self-"))
        return [workloads.wide_text(1, k, None, random.Random(0))]
    run_order, _ = workloads.build(workload, seed)
    return [op.text for op in run_order[:ops]]


def reduce_ops(seed: int, ops: int | None) -> list:
    """The reduce ops of perfbench, in their run order for the seed."""
    run_order, _ = load_workloads().build("reduce", seed)
    return run_order[:ops]


def best(call, *args):
    """The fastest of REPEAT calls, and the result of the last."""
    times = []
    for _ in range(REPEAT):
        started = perf_counter()
        result = call(*args)
        times.append(perf_counter() - started)
    return min(times), result


def time_stages(text: str, syntax, typecheck, analysis, report) -> dict[str, float]:
    seconds = {}
    if hasattr(syntax, "scan"):
        seconds["scan"], _ = best(syntax.scan, text)
    seconds["tokenize"], _ = best(syntax.tokenize, text)
    seconds["parse_system"], system = best(syntax.parse_system, text)
    seconds["validate_system"], validated = best(typecheck.validate_system, system)
    if isinstance(validated, list):
        raise SystemExit(f"error: a workload system is invalid: {validated[0]}")
    seconds["extract_dps"], dps = best(analysis.extract_dps, validated)
    seconds["build_graph"], graph = best(analysis.build_graph, dps)
    seconds["sccs"], components = best(analysis.sccs, graph)
    nontrivial = [scc for scc in components if analysis.is_nontrivial(scc, graph)]
    seconds["find_indices"], _ = best(lambda: [analysis.find_indices(scc, graph) for scc in nontrivial])
    seconds["check_criterion"], verdict = best(analysis.check_criterion, validated)
    outcome = "terminating" if verdict.terminating else "unknown"
    seconds["build_report"], doc = best(
        lambda: report.build_report("op.trs", outcome, system=system, validated=validated,
                                    verdict=verdict, elapsed=0.0))
    seconds["report_to_json"], _ = best(report.report_to_json, doc)
    return seconds


def time_reduce(op, systems: dict, syntax, rewrite) -> dict[str, float]:
    system, symbols = systems[op.system]
    seconds = {}
    seconds["parse_erased_term"], term = best(syntax.parse_erased_term, op.term, symbols)
    seconds["normalize"], outcome = best(rewrite.normalize, term, system, FUEL)
    if isinstance(outcome, rewrite.FuelExhausted):
        raise SystemExit(f"error: a reduce op ran out of fuel: {op.term}")
    seconds["print_erased"], _ = best(
        lambda: [syntax.print_erased(v) for v in sorted(outcome.forms, key=syntax.print_erased)])
    return seconds


def child(src: str, workload: str, seed: int, ops: int | None, system: Path | None) -> None:
    """Print one round's seconds per op of each stage as JSON."""
    sys.path.insert(0, src)
    from treeterm import analysis, report, rewrite, syntax, typecheck

    if workload == "reduce":
        workloads = load_workloads()
        systems = {}
        for name in workloads.REDUCE_SYMBOLS:
            parsed = syntax.parse_system(workloads.fixture_text(name))
            systems[name] = (parsed, frozenset(s for s, _ in parsed.signature))
        op_list = reduce_ops(seed, ops)

        def stages(op):
            return time_reduce(op, systems, syntax, rewrite)
    else:
        op_list = texts(workload, seed, ops, system)

        def stages(text):
            return time_stages(text, syntax, typecheck, analysis, report)
    stages(op_list[0])
    totals: dict[str, float] = {}
    for op in op_list:
        for stage, seconds in stages(op).items():
            totals[stage] = totals.get(stage, 0.0) + seconds
    print(json.dumps({stage: total / len(op_list) for stage, total in totals.items()}))


def run_child(src: Path, args: argparse.Namespace) -> dict[str, float]:
    argv = [sys.executable, __file__, "--child", str(src), "--workload", args.workload,
            "--seed", str(args.seed)]
    argv += (["--ops", str(args.ops)] if args.ops else []) + (["--ring-800"] if args.ring_800 else [])
    argv += ["--wide-self", str(args.wide_self)] if args.wide_self else []
    argv += ["--system", str(args.system)] if args.system else []
    done = subprocess.run(argv, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if done.returncode != 0:
        print(f"error: the child for {src} exited {done.returncode}\n{done.stderr.strip()}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def row(stage: str, old: float | None, new: float | None) -> str:
    """One line of the table: a stage's old and new ms per op and their
    ratio, with `-` for a stage that a tree does not have."""
    cells = ["-" if ms is None else f"{ms:.3f}" for ms in (old, new)]
    cells.append("-" if old is None or new is None else f"{new / old:.2f}")
    return f"{stage:<18}" + "".join(f"{cell:>10}" for cell in cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", nargs="?", type=Path, help="the old tree's src directory")
    parser.add_argument("new", nargs="?", type=Path, help="the new tree's src directory")
    parser.add_argument("--workload", choices=("ring", "clique", "wide", "reduce"), default="ring")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, help="time only the first OPS ops of the run order")
    parser.add_argument("--ring-800", action="store_true", help="time ring_text(800) alone")
    parser.add_argument("--wide-self", type=int, metavar="K", help="time wide-self-K alone")
    parser.add_argument("--system", type=Path, metavar="FILE", help="time the system in FILE alone")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if sum(map(bool, (args.ring_800, args.wide_self, args.system))) > 1:
        parser.error("give at most one of --ring-800, --wide-self and --system")
    if args.system is not None:
        args.system = args.system.resolve()
        if not args.system.is_file():
            parser.error(f"--system: no file {args.system}")
    if args.wide_self is not None and args.wide_self < 1:
        parser.error(f"--wide-self: expected a positive integer, got {args.wide_self}")
    workload = ("ring-800" if args.ring_800 else f"wide-self-{args.wide_self}" if args.wide_self
                else args.workload)
    if args.child:
        child(args.child, workload, args.seed, args.ops, args.system)
        return 0
    if args.old is None or args.new is None:
        parser.error("give the old and the new src directory")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for src in trees.values():
        if not (src / "treeterm" / "syntax.py").is_file():
            parser.error(f"no treeterm package under {src}")

    figures: dict[str, list[dict[str, float]]] = {"old": [], "new": []}
    for r in range(args.rounds):
        for side in ("old", "new") if r % 2 == 0 else ("new", "old"):
            figures[side].append(run_child(trees[side], args))
    count = len(reduce_ops(args.seed, args.ops) if workload == "reduce"
                else texts(workload, args.seed, args.ops, args.system))
    title = ("ring_text(800)" if args.ring_800 else workload if args.wide_self
             else args.system.name if args.system else f"{workload} seed {args.seed}, {count} ops")
    print(f"{title}, {args.rounds} rounds: median ms per op")
    print(f"{'stage':<18}{'old':>10}{'new':>10}{'new/old':>10}")
    for stage in REDUCE_STAGES if workload == "reduce" else STAGES:
        print(row(stage, *(statistics.median(f[stage] for f in figures[side]) * 1e3
                           if stage in figures[side][0] else None for side in ("old", "new"))))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    raise SystemExit(main())
