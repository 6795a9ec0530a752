"""Run one workload of the treeterm benchmark and print its metrics.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a run that alternates traced and untraced executions of each op.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 9
FUEL = 10000
# Stop a traced run early rather than hold more spans than this in memory
# (about 30 bytes each); the reduce workload makes millions per pass.
SPAN_BUDGET = 1_000_000
SHOWN_FAILURES = 5
# Nominal time of `calibration_loop`; see `timed_run`.
NOMINAL_LOOP_S = 0.0004

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
]

LAYERS = [
    "syntax.parse_system",
    "typecheck.validate_system",
    "analysis.check_criterion",
    "analysis.extract_dps",
    "analysis.build_graph",
    "analysis.pattern_unifiable",
    "analysis.sccs",
    "analysis.find_indices",
    "analysis.check_scc",
    "report.build_report",
    "report.report_to_json",
    "syntax.parse_erased_term",
    "rewrite.normalize",
    "rewrite.match_lhs",
    "syntax.alpha_canonical",
    "syntax.print_erased",
]


class Missing(Exception):
    """The checkout lacks the program or cannot import it."""


# ---------------------------------------------------------------------------
# Operations

def load_program() -> SimpleNamespace:
    if not (SRC / "treeterm" / "__init__.py").is_file():
        raise Missing(f"no treeterm package under {SRC}")
    sys.path.insert(0, str(SRC))
    from treeterm import analysis, report, rewrite, syntax, typecheck

    return SimpleNamespace(syntax=syntax, typecheck=typecheck, analysis=analysis,
                           report=report, rewrite=rewrite)


class CheckRunner:
    """An op is `treeterm check FILE --json -` after the file is read."""

    def __init__(self, tt: SimpleNamespace):
        self.tt = tt

    def execute(self, op: workloads.CheckOp) -> str | None:
        tt = self.tt
        started = perf_counter()
        system = tt.syntax.parse_system(op.text)
        validated = tt.typecheck.validate_system(system)
        if isinstance(validated, list):
            return None
        verdict = tt.analysis.check_criterion(validated)
        outcome = "terminating" if verdict.terminating else "unknown"
        doc = tt.report.build_report(f"{op.label}.trs", outcome, system=system,
                                     validated=validated, verdict=verdict,
                                     elapsed=perf_counter() - started)
        return tt.report.report_to_json(doc)

    def verify(self, op: workloads.CheckOp, result: str | None) -> str | None:
        if result is None:
            return "invalid"
        return workloads.verify_check(op.expected, result)


class ReduceRunner:
    """An op is `treeterm reduce FILE --term T --all` after the file is read;
    each fixture is parsed once, when the runner is made."""

    def __init__(self, tt: SimpleNamespace):
        self.tt = tt
        self.systems = {}
        for name in workloads.REDUCE_SYMBOLS:
            system = tt.syntax.parse_system(workloads.fixture_text(name))
            self.systems[name] = (system, frozenset(s for s, _ in system.signature))

    def execute(self, op: workloads.ReduceOp) -> tuple[str, ...] | None:
        tt = self.tt
        system, symbols = self.systems[op.system]
        term = tt.syntax.parse_erased_term(op.term, symbols)
        outcome = tt.rewrite.normalize(term, system, FUEL)
        if isinstance(outcome, tt.rewrite.FuelExhausted):
            return None
        forms = sorted(outcome.forms, key=tt.syntax.print_erased)
        return tuple(tt.syntax.print_erased(v) for v in forms)

    def verify(self, op: workloads.ReduceOp, result: tuple[str, ...] | None) -> str | None:
        if result is None:
            return "fuel"
        return None if result == op.expected else "forms"


def run_op(runner, op) -> tuple[float, str | None, bool, str]:
    """(wall seconds, failure kind or None, whether the output was wrong,
    detail).  Raising ops and wrong outputs both fail."""
    started = perf_counter()
    try:
        result = runner.execute(op)
    except Exception as exc:  # a crashing op is tallied, and the run goes on
        return perf_counter() - started, type(exc).__name__, False, str(exc)[:120]
    seconds = perf_counter() - started
    mismatch = runner.verify(op, result)
    return seconds, mismatch, mismatch is not None, "output differs from expectation"


# ---------------------------------------------------------------------------
# Runs

class Tally:
    def __init__(self):
        self.wall: list[float] = []
        # The same list as `wall` until `calibrate` is called.
        self.calibrated: list[float] = self.wall
        self.ok: list[bool] = []
        self.failures: list[tuple[str, str, str]] = []
        self.wrong = 0

    def add(self, op, outcome) -> None:
        seconds, kind, wrong, detail = outcome
        self.wall.append(seconds)
        self.ok.append(kind is None)
        self.wrong += wrong
        if kind is not None:
            self.failures.append((kind, op.label, detail))

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def completed(self) -> int:
        return sum(self.ok)

    def calibrate(self, scales: list[float]) -> None:
        self.calibrated = [w * s for w, s in zip(self.wall, scales)]

    def op_seconds(self, calibrated: bool = True) -> float:
        return sum(self.calibrated if calibrated else self.wall)

    def percentile(self, q: float, calibrated: bool = True) -> float:
        """Nearest-rank percentile of per-op time, with every failed op
        sorted after every completed op."""
        times = self.calibrated if calibrated else self.wall
        done = sorted(s for s, ok in zip(times, self.ok) if ok)
        failed = sorted(s for s, ok in zip(times, self.ok) if not ok)
        rank = max(1, math.ceil(q * self.attempted)) - 1
        if rank < len(done):
            return done[rank]
        return max(failed[rank - len(done)], done[-1] if done else 0.0)


class _Cell:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def calibration_loop() -> int:
    """Fixed pure-Python work of the kind treeterm does: small objects,
    tuples, recursion, dict and set operations.  About 0.4 ms."""
    table = {}

    def tree(depth):
        return None if depth == 0 else _Cell(tree(depth - 1), (depth, str(depth)))

    for i in range(60):
        table[(i % 31, f"k{i}")] = tree(10)
        seen = {j * j % 17 for j in range(16)}
    return len(table) + len(seen)


def time_loop() -> float:
    started = perf_counter()
    calibration_loop()
    return perf_counter() - started


def calibration_scale(loop_times: list[float]) -> float:
    """Factor from wall time to calibrated time, given loop times measured
    around the timed work."""
    return NOMINAL_LOOP_S / statistics.median(loop_times)


class ImportTimer:
    """Times fresh interpreters running `import treeterm`, calibrated like
    the ops (see `timed_run`).

    One untimed launch first leaves the bytecode cache warm.  The timed
    launches are spread over the run, between ops, so their median sees the
    same machine as the ops do rather than one short window of it."""

    def __init__(self, launches: int, seconds: float):
        self.launches = launches
        self.interval = seconds / launches
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.wall: list[float] = []
        self.calibrated: list[float] = []
        self._launch()

    def _launch(self) -> float:
        started = perf_counter()
        done = subprocess.run([sys.executable, "-c", "import treeterm"], env=self.env,
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise Missing(f"`import treeterm` failed:\n{done.stderr.strip()}")
        return perf_counter() - started

    def _timed_launch(self) -> None:
        before = time_loop()
        elapsed = self._launch()
        self.wall.append(elapsed)
        self.calibrated.append(elapsed * calibration_scale([before, time_loop()]))

    def tick(self, elapsed: float) -> bool:
        """Launch once if the next launch is due `elapsed` seconds into the
        run; say whether it did."""
        due = len(self.wall) < self.launches and elapsed >= len(self.wall) * self.interval
        if due:
            self._timed_launch()
        return due

    def median(self) -> float:
        while len(self.wall) < self.launches:
            self._timed_launch()
        return statistics.median(self.calibrated)


def timed_run(runner, ops, seconds: float, timer: ImportTimer) -> tuple[Tally, list[float]]:
    """Cycle through the ops until `seconds` of wall time have passed.

    The CPU of a shared machine runs up to twice as fast in some phases of a
    few seconds as in others, and its speed drifts between runs.  So the run
    times `calibration_loop` after every op, and an op's calibrated time is
    its wall time times NOMINAL_LOOP_S over the median of the six loop times
    nearest to it, three on each side: the time the op would take where the
    loop takes NOMINAL_LOOP_S.  Returns the tally and every loop time."""
    tally = Tally()
    loops = [time_loop()]
    before = []
    started = perf_counter()
    i = 0
    while True:
        if timer.tick(perf_counter() - started):
            loops.append(time_loop())
        op = ops[i % len(ops)]
        before.append(len(loops) - 1)
        tally.add(op, run_op(runner, op))
        loops.append(time_loop())
        i += 1
        if perf_counter() - started >= seconds:
            break
    tally.calibrate([calibration_scale(loops[max(0, b - 2):b + 4]) for b in before])
    return tally, loops


def traced_run(runner, ops, seconds: float, tracer: tracing.Tracer) -> tuple[Tally, Tally]:
    """Run each op once traced and once untraced, alternating which goes
    first, until `seconds` have passed or the span budget is spent."""
    traced, plain = Tally(), Tally()
    started = perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if with_trace:
                with tracer.active(i):
                    traced.add(op, run_op(runner, op))
            else:
                plain.add(op, run_op(runner, op))
        i += 1
        if perf_counter() - started >= seconds or len(tracer) >= SPAN_BUDGET:
            return traced, plain


def end_to_end(tally: Tally, setup_s: float) -> list[tuple[str, float, str]]:
    values = {
        "setup_s": setup_s,
        "ops_per_s": tally.completed / tally.op_seconds(),
        "op_p50_s": tally.percentile(0.5),
        "op_p90_s": tally.percentile(0.9),
        "ok_share": tally.completed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return [(name, values[name], unit) for name, unit in END_TO_END]


def per_layer(tracer: tracing.Tracer, traced: Tally, plain: Tally) -> list[tuple[str, float, str]]:
    per_op = 1 / traced.attempted
    selfs = tracer.self_times()
    counts = tracer.counts
    metrics = []
    for name in LAYERS:
        self_s, calls = selfs[name]
        metrics.append((f"{name}.self_s", self_s * per_op, "s/op"))
        metrics.append((f"{name}.calls", calls * per_op, "calls/op"))
    unify_calls = selfs["analysis.pattern_unifiable"][1]
    edges = counts[("analysis.build_graph", "edges")]
    match_calls = selfs["rewrite.match_lhs"][1]
    covered = sum(self_s for self_s, _ in selfs.values())
    metrics += [
        ("analysis.extract_dps.pairs", counts[("analysis.extract_dps", "pairs")] * per_op, "pairs/op"),
        ("analysis.build_graph.edges", edges * per_op, "edges/op"),
        ("analysis.build_graph.edge_yield", edges / unify_calls if unify_calls else 0.0, "edges/call"),
        ("rewrite.normalize.forms", counts[("rewrite.normalize", "forms")] * per_op, "forms/op"),
        ("rewrite.match_lhs.hit_ratio",
         counts[("rewrite.match_lhs", "hits")] / match_calls if match_calls else 0.0, "share"),
        ("trace.coverage", covered / traced.op_seconds(), "share"),
        ("trace.traced_ops_per_s", traced.completed / traced.op_seconds(), "1/s"),
        ("trace.untraced_ops_per_s", plain.completed / plain.op_seconds(), "1/s"),
    ]
    return metrics


# ---------------------------------------------------------------------------

def report_failures(tally: Tally) -> None:
    kinds = Counter(kind for kind, _, _ in tally.failures)
    share = len(tally.failures) / tally.attempted
    print(f"failed {len(tally.failures)} of {tally.attempted} ops (fail_share {share:.4f})"
          + "".join(f"; {kind} x{count}" for kind, count in sorted(kinds.items())))
    for kind, label, detail in tally.failures[:SHOWN_FAILURES]:
        print(f"  {label}: {kind}: {detail}")


def probe_known_defect(runner: CheckRunner) -> None:
    """Check one ring past the recursion limit, untimed and not counted, and
    say whether the known RecursionError in `analysis.sccs` still happens."""
    op = workloads.ring_op(workloads.RING_DEFECT_N)
    _, kind, _, detail = run_op(runner, op)
    if kind is None:
        print(f"known-defect probe (untimed, not counted): {op.label} checks correctly")
    else:
        print(f"known-defect probe (untimed, not counted): {op.label}: {kind}: {detail}")


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ops, warmup = workloads.build(args.workload, args.seed)
    try:
        tt = load_program()
        timer = None if args.trace else ImportTimer(SETUP_LAUNCHES, args.seconds)
    except (Missing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = ReduceRunner(tt) if args.workload == "reduce" else CheckRunner(tt)
    run_op(runner, warmup)
    gc.collect()

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass")
    if not args.trace:
        tally, loops = timed_run(runner, ops, args.seconds, timer)
        metrics = end_to_end(tally, timer.median())
        report_failures(tally)
        print(f"op percentiles over {tally.attempted} ops; setup_s is the median of "
              f"{SETUP_LAUNCHES} launches ({statistics.median(timer.wall):.6g} s uncalibrated)")
        print(f"calibration loop: median {statistics.median(loops) * 1e3:.3f} ms over "
              f"{len(loops)} timings (nominal {NOMINAL_LOOP_S * 1e3:.3f} ms); uncalibrated: "
              f"ops_per_s {tally.completed / tally.op_seconds(False):.6g}, "
              f"op_p50_s {tally.percentile(0.5, False):.6g}, "
              f"op_p90_s {tally.percentile(0.9, False):.6g}")
        for name, value, unit in metrics:
            print(f"  {name:12} {value:12.6g} {unit}")
        print(result_line(tally.wrong == 0, tally.attempted, len(tally.failures), metrics))
        return 0

    tracer = tracing.Tracer(tracing.targets(tt.syntax, tt.typecheck, tt.analysis,
                                            tt.report, tt.rewrite))
    traced, plain = traced_run(runner, ops, args.seconds, tracer)
    metrics = per_layer(tracer, traced, plain)
    spans = HERE / "out" / f"spans-{args.workload}.tsv.gz"
    tracer.write(spans)
    report_failures(traced)
    print(f"{traced.attempted} traced ops, {len(tracer)} spans written to "
          f"{spans.relative_to(ROOT)}")
    for name, value, unit in metrics:
        print(f"  {name:36} {value:12.6g} {unit}")
    if args.workload == "ring":
        probe_known_defect(runner)
    attempted = traced.attempted + plain.attempted
    failed = len(traced.failures) + len(plain.failures)
    print(result_line(traced.wrong + plain.wrong == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
