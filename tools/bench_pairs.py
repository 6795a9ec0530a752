#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT_CHECKOUT --pr 10

PARENT_CHECKOUT is a checkout of the parent commit, with its own
`perfbench/` and `src/`; the change is the checkout this script lives in.
For every workload in `BENCHMARK.json`, pair i of 10 runs `perfbench/run.py
--workload W --seed i --seconds T --trace 0` once in each checkout, with T
the file's `run_seconds`, the parent first in odd pairs and the change first
in even ones, one process at a time.  The end-to-end metrics and their
directions come from `BENCHMARK.json` too.

The file written at the repository root holds, per workload and metric, the
median of each side, the parent's quartiles and interquartile range, the
change/parent ratio of the medians and the number of pairs the change won,
plus every run's metrics, the seeds, both commit ids, a hash of each `src/`
and a note on the host.  Each run also keeps the uncalibrated `ops_per_s`,
`op_p50_s` and `op_p90_s` and the median of the calibration loop, from the
line `perfbench/run.py` prints about them; they are summarized the same way
under `uncalibrated`, where `agrees` says whether the uncalibrated ratio
moves in the same direction as the calibrated one.  A run that fails to
produce its result line or its calibration loop line stops the script with
exit 2.  Progress goes to stderr.

The script refuses to start, with exit 2, while either checkout has a
`__pycache__` directory under `src/`: cached bytecode skips compilation, so
`setup_s` would read lower on the side that has it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
UNCALIBRATED = re.compile(
    r"^calibration loop: median (?P<calibration_loop_ms>\S+) ms .*; uncalibrated: "
    r"ops_per_s (?P<ops_per_s>\S+), op_p50_s (?P<op_p50_s>\S+), op_p90_s (?P<op_p90_s>\S+)$",
    re.MULTILINE)
RAW_METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_s", "better": "lower"},
               {"name": "op_p90_s", "better": "lower"},
               {"name": "calibration_loop_ms", "better": "lower"}]


def git_commit(checkout: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def git_dirty(checkout: Path) -> bool | None:
    """Whether `src/` or `perfbench/` differ from the checkout's commit."""
    done = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "--",
                           "src", "perfbench"], capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def tree_sha256(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of the .py files below."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def describe(checkout: Path) -> dict:
    return {"commit": git_commit(checkout),
            "dirty": git_dirty(checkout), "src_sha256": tree_sha256(checkout / "src")}


def host_note() -> dict:
    load = os.getloadavg() if hasattr(os, "getloadavg") else None
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count(), "loadavg_at_start": load}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its result line with the wall time added."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"error: {checkout}: {workload} seed {seed} exited {done.returncode}\n"
              f"{done.stderr.strip()}", file=sys.stderr)
        sys.exit(2)
    result = json.loads(lines[-1])
    raw = UNCALIBRATED.search(done.stdout)
    if raw is None:
        print(f"error: {checkout}: {workload} seed {seed} printed no calibration loop line",
              file=sys.stderr)
        sys.exit(2)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "wall_s": round(time.perf_counter() - started, 3),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "uncalibrated": {name: float(value) for name, value in raw.groupdict().items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], metrics: list[dict], key: str = "metrics") -> dict:
    """Per metric, the two sides' medians and how the change compares, over
    the figures each run keeps under `key`."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["parent"][key][name] for r in runs]
        change = [r["change"][key][name] for r in runs]
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        out[name] = {
            "better": metric["better"],
            "parent_median": parent_median,
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_iqr": q3 - q1,
            "change_median": change_median,
            "ratio": change_median / parent_median if parent_median else None,
            "median_gap": change_median - parent_median,
            "change_wins": wins,
            "ties": sum(c == p for p, c in zip(parent, change)),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} has no perfbench/run.py")
    caches = [cache for checkout in (parent, ROOT)
              for cache in sorted((checkout / "src").rglob("__pycache__"))]
    if caches:
        parser.error("cached bytecode lowers setup_s on its side; remove "
                     + ", ".join(map(str, caches)))

    seconds = benchmark["run_seconds"]
    seeds = list(range(1, PAIRS + 1))
    doc = {
        "pr": args.pr,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "seconds": seconds,
        "pairs": PAIRS,
        "seeds": seeds,
        "order": "parent first in odd pairs, change first in even pairs",
        "parent": describe(parent),
        "change": describe(ROOT),
        "host": host_note(),
        "workloads": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for seed in seeds:
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run_once(parent if side == "parent" else ROOT, workload,
                                      seed, seconds)
            runs.append(pair)
            print(f"{workload} seed {seed}: ops_per_s parent "
                  f"{pair['parent']['metrics']['ops_per_s']:.4g}, change "
                  f"{pair['change']['metrics']['ops_per_s']:.4g}", file=sys.stderr)
        calibrated = summarize(runs, benchmark["end_to_end"])
        raw = summarize(runs, RAW_METRICS, "uncalibrated")
        for name, summary in raw.items():
            if name in calibrated and None not in (summary["ratio"], calibrated[name]["ratio"]):
                summary["agrees"] = (summary["ratio"] > 1) == (calibrated[name]["ratio"] > 1)
        doc["workloads"][workload] = {"metrics": calibrated, "uncalibrated": raw, "runs": runs}
    doc["host"]["loadavg_at_end"] = os.getloadavg() if hasattr(os, "getloadavg") else None
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
