#!/usr/bin/env python3
"""Time each stage of `treeterm check` or `treeterm reduce` in two source
trees, loaded side by side in one process.

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
fixture systems, which each loaded tree parses once.

Each round imports fresh copies of both trees, each under a package name of
its own and without writing bytecode, and warms each up on the first op.
It then times every stage of every op on both trees, the best of three
calls of each, alternating from one op to the next which tree goes first;
the old tree is loaded and goes first in odd rounds, the new one in even.
A reduce op's stages are `parse_erased_term` on the term text, `normalize`
on the term and the sorted `print_erased` of its normal forms.  A check
op's stages are `scan`, the token scan that `parse_system` runs first,
`tokenize`, the scan with lines and columns that a parse runs only once a
location is read, as for an error (the valid workload systems never run it
inside `parse_system`), `parse_system` on the text, `validate_system` on
the parsed system, the layers of the analysis on their own (`extract_dps`
on the validated system, `build_graph` on its pairs, `sccs` on a fresh
copy of the graph, since a graph keeps its components from the first call,
and `find_indices` on each nontrivial component), `check_criterion`, which
runs all of the analysis again, on the validated system, and
`build_report` and `report_to_json` on their results, all called as
perfbench's check runner calls them.  A round's figure for a stage is its
total time over the ops divided by their number.  The script prints, per
stage, the median of these figures over the rounds for each tree, in
milliseconds per op, the new/old ratio of the medians, and the smallest
and largest of the rounds' own new/old ratios, so that the noise the
host's load adds to a ratio shows next to it.  A stage that a tree does
not have, such as `scan` before that function existed, prints `-`.
"""
from __future__ import annotations

import argparse
import functools
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("scan", "tokenize", "parse_system", "validate_system", "extract_dps", "build_graph", "sccs",
          "find_indices", "check_criterion", "build_report", "report_to_json")
REDUCE_STAGES = ("parse_erased_term", "normalize", "print_erased")
FUEL = 10000  # the fuel of perfbench's reduce ops
REPEAT = 3  # calls per stage and op; the fastest counts
SIDES = ("old", "new")


@functools.cache
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
    seconds["sccs"], components = best(lambda: analysis.sccs(type(graph)(graph.nodes, graph.adjacency)))
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


def load_tree(src: Path, name: str):
    """The `treeterm` package under `src` with its modules, imported as the
    package `name` without writing bytecode, and then dropped from
    sys.modules, so that the next load runs every module afresh."""
    package_dir = src / "treeterm"
    spec = importlib.util.spec_from_file_location(name, package_dir / "__init__.py",
                                                  submodule_search_locations=[str(package_dir)])
    tree = importlib.util.module_from_spec(spec)
    wrote, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[name] = tree
    try:
        spec.loader.exec_module(tree)
        importlib.import_module(f"{name}.report")  # the package does not import it
    finally:
        sys.dont_write_bytecode = wrote
        for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
            del sys.modules[key]
    return tree


def stage_timer(tree, workload: str):
    """A function that times the stages of one op on the loaded `tree`."""
    if workload != "reduce":
        return lambda text: time_stages(text, tree.syntax, tree.typecheck, tree.analysis, tree.report)
    workloads = load_workloads()
    systems = {}
    for name in workloads.REDUCE_SYMBOLS:
        parsed = tree.syntax.parse_system(workloads.fixture_text(name))
        systems[name] = (parsed, frozenset(s for s, _ in parsed.signature))
    return lambda op: time_reduce(op, systems, tree.syntax, tree.rewrite)


def row(stage: str, old: float | None, new: float | None, ratios: list[float]) -> str:
    """One line of the table: a stage's old and new ms per op, their ratio
    and the smallest and largest of the per-round `ratios`, with `-` for a
    stage that a tree does not have."""
    cells = ["-" if ms is None else f"{ms:.3f}" for ms in (old, new)]
    cells.append("-" if old is None or new is None else f"{new / old:.2f}")
    cells += [f"{min(ratios):.2f}", f"{max(ratios):.2f}"] if ratios else ["-", "-"]
    return f"{stage:<18}" + "".join(f"{cell:>10}" for cell in cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the old tree's src directory")
    parser.add_argument("new", type=Path, help="the new tree's src directory")
    parser.add_argument("--workload", choices=("ring", "clique", "wide", "reduce"), default="ring")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, help="time only the first OPS ops of the run order")
    parser.add_argument("--ring-800", action="store_true", help="time ring_text(800) alone")
    parser.add_argument("--wide-self", type=int, metavar="K", help="time wide-self-K alone")
    parser.add_argument("--system", type=Path, metavar="FILE", help="time the system in FILE alone")
    parser.add_argument("--rounds", type=int, default=6)
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
    srcs = {"old": args.old.resolve(), "new": args.new.resolve()}
    for src in srcs.values():
        if not (src / "treeterm" / "syntax.py").is_file():
            parser.error(f"no treeterm package under {src}")

    op_list = (reduce_ops(args.seed, args.ops) if workload == "reduce"
               else texts(workload, args.seed, args.ops, args.system))
    figures: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
    for r in range(args.rounds):
        # Fresh loads each round: loaded once per run, a tree timed against
        # an identical copy of itself kept the same lead in every round
        # (build_report read x1.07-1.15 in each round of one run); reloading
        # turns that lead into spread, which the min and max columns show.
        first = SIDES if r % 2 == 0 else SIDES[::-1]
        timers = {side: stage_timer(load_tree(srcs[side], f"treeterm_{side}_{r}"), workload)
                  for side in first}
        for side, timer in timers.items():
            timer(op_list[0])
            figures[side].append({})
        for i, op in enumerate(op_list):
            for side in first if i % 2 == 0 else first[::-1]:
                totals = figures[side][-1]
                for stage, seconds in timers[side](op).items():
                    totals[stage] = totals.get(stage, 0.0) + seconds
    title = ("ring_text(800)" if args.ring_800 else workload if args.wide_self
             else args.system.name if args.system else f"{workload} seed {args.seed}, {len(op_list)} ops")
    print(f"{title}, {args.rounds} rounds: median ms per op")
    print(f"{'stage':<18}{'old':>10}{'new':>10}{'new/old':>10}{'min':>10}{'max':>10}")
    for stage in REDUCE_STAGES if workload == "reduce" else STAGES:
        ratios = [new[stage] / old[stage] for old, new in zip(figures["old"], figures["new"])
                  if stage in old and stage in new]
        print(row(stage, *(statistics.median(f[stage] for f in figures[side]) / len(op_list) * 1e3
                           if stage in figures[side][0] else None for side in SIDES), ratios))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    raise SystemExit(main())
