"""Tests of the benchmark itself: inputs, expectations, tracing, exit codes.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TT = run.load_program()


def validated(text: str):
    result = TT.typecheck.validate_system(TT.syntax.parse_system(text))
    assert not isinstance(result, list), result
    return result


def check(op: wl.CheckOp) -> str | None:
    runner = run.CheckRunner(TT)
    return runner.verify(op, runner.execute(op))


def small_ops() -> list[wl.CheckOp]:
    rng = random.Random(0)
    return [
        wl.CheckOp("ring-3", 3, wl.ring_text(3), wl.ring_expected(3)),
        wl.CheckOp("clique-2", 2, wl.clique_text(2, frozenset({(0, 0)})),
                   wl.clique_expected(2, frozenset({(0, 0)}), cyclic=True)),
        wl.CheckOp("clique-3", 3, wl.clique_text(3, frozenset({(0, 1), (1, 2)})),
                   wl.clique_expected(3, frozenset({(0, 1), (1, 2)}), cyclic=False)),
        wl.CheckOp("clique-3c", 3, wl.clique_text(3, frozenset({(0, 2), (2, 1), (1, 0)})),
                   wl.clique_expected(3, frozenset({(0, 2), (2, 1), (1, 0)}), cyclic=True)),
        *(wl.CheckOp(f"wide-3x2/{j}", 3, wl.wide_text(3, 2, j, rng), wl.wide_expected(3, 2, j))
          for j in (None, 0, 1)),
        wl.CheckOp("wide-4x3/2", 4, wl.wide_text(4, 3, 2, rng), wl.wide_expected(4, 3, 2)),
    ]


# ---------------------------------------------------------------------------
# Generators and expectations

@pytest.mark.parametrize("op", small_ops(), ids=lambda op: op.label)
def test_small_generated_systems_validate_and_match_expectation(op):
    validated(op.text)
    assert check(op) is None


def test_ring_3_by_hand():
    assert wl.ring_expected(3) == wl.Expected(True, symbols=3, rules=6, pairs=3, edges=3, index=1)


def test_ring_sizes_stay_below_the_defect_probe():
    sizes = [op.size for op in wl.ring_ops(random.Random(1))]
    assert 10 <= min(sizes) and max(sizes) <= wl.RING_MAX_N < wl.RING_DEFECT_N


def test_clique_2_passthrough_self_loop_is_unknown():
    e = wl.clique_expected(2, frozenset({(0, 0)}), cyclic=True)
    assert not e.terminating
    assert (e.pairs, e.edges, e.search_space) == (4, 8, 1)
    assert e.cycle == {("f0", "f0")}


def test_wide_3x2_by_hand():
    assert wl.wide_expected(3, 2, 1).index == 2
    none = wl.wide_expected(3, 2, None)
    assert not none.terminating and none.search_space == 8
    assert none.cycle == {("f0", "f1"), ("f1", "f2"), ("f2", "f0")}


def test_clique_passthrough_shapes():
    rng = random.Random(3)
    for n in (4, 9, 20):
        cycle = wl.clique_passthrough(rng, n, cyclic=True)
        heads = [a for a, _ in cycle]
        assert 1 <= len(cycle) <= 3 and sorted(heads) == sorted(b for _, b in cycle)
        dag = wl.clique_passthrough(rng, n, cyclic=False)
        assert 1 <= len(dag) <= n and all(a != b for a, b in dag)


def test_mismatches_are_reported():
    op = small_ops()[0]
    good = run.CheckRunner(TT).execute(op)
    doc = json.loads(good)
    doc["outcome"] = "unknown"
    assert wl.verify_check(op.expected, json.dumps(doc)) == "outcome"
    doc = json.loads(good)
    doc["certificates"][0]["indices"]["f1"] = 2
    assert wl.verify_check(op.expected, json.dumps(doc)) == "certificate"
    wrong = wl.CheckOp("ring-3", 3, op.text, wl.ring_expected(4))
    assert check(wrong) == "size"


def test_reduce_terms_and_forms_by_hand():
    t = ((None, None), None)
    assert wl.tree_text(t) == "Node (Node Leaf Leaf) Leaf"
    assert wl.applied_text("i", (t,)) == "i (Node (Node Leaf Leaf) Leaf)"
    assert wl.reduce_expected("app.trs", "app", (t, None)) == ("Node (Node Leaf Leaf) Leaf Leaf",)
    assert wl.reduce_expected("app.trs", "app", (None, t)) == ("Leaf (Node (Node Leaf Leaf) Leaf)",)
    assert wl.reduce_expected("fgih.trs", "g", (None,)) == ("f (h Leaf)",)
    assert wl.reduce_expected("fgih.trs", "g", (t,)) == ("f Leaf",)
    assert len(wl.ground_trees(3)) == 26
    assert len(wl.reduce_ops()) == 807


def test_reduce_sample_matches_treeterm():
    runner = run.ReduceRunner(TT)
    ops = wl.reduce_ops()
    for op in ops[::40]:
        assert runner.verify(op, runner.execute(op)) is None, op.label


def test_same_seed_gives_identical_inputs():
    for workload in wl.WORKLOADS:
        first, _ = wl.build(workload, 7)
        again, _ = wl.build(workload, 7)
        assert first == again
        other, _ = wl.build(workload, 8)
        assert [op.label for op in other] != [op.label for op in first]


def test_spread_keeps_every_op_and_balances_prefixes():
    ops = list(range(100))
    order = wl.spread(ops, random.Random(1))
    assert sorted(order) == ops
    for m in (10, 25, 60):
        assert sum(order[:m]) / m == pytest.approx(49.5, rel=0.15)


# ---------------------------------------------------------------------------
# Runs and tracing

def test_failed_ops_sort_after_completed_ones():
    tally = run.Tally()
    op = small_ops()[0]
    for seconds in (0.1, 0.2, 0.3):
        tally.add(op, (seconds, None, False, ""))
    tally.add(op, (0.01, "RecursionError", False, "deep"))
    assert tally.percentile(0.5) == 0.2
    assert tally.percentile(0.9) == 0.3
    assert tally.completed == 3 and tally.wrong == 0


def test_timed_run_calibrates_each_op_against_the_loop():
    class NoLaunch:
        def tick(self, elapsed):
            return False

    tally, loops = run.timed_run(run.CheckRunner(TT), small_ops(), 1e-9, NoLaunch())
    assert tally.attempted == 1 and len(loops) == 2
    assert tally.calibrated[0] == pytest.approx(tally.wall[0] * run.calibration_scale(loops))
    assert tally.percentile(0.5, calibrated=False) == tally.wall[0]


def test_tracing_wrappers_are_removed_after_traced_run():
    wrapped = tracing.targets(TT.syntax, TT.typecheck, TT.analysis, TT.report, TT.rewrite)
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in wrapped]
    tracer = tracing.Tracer(wrapped)
    with tracer.active(0):
        assert all(getattr(m, a) is not fn for m, a, fn in originals)
    traced, plain = run.traced_run(run.CheckRunner(TT), small_ops(), 1e-9, tracer)
    assert all(getattr(m, a) is fn for m, a, fn in originals)
    assert traced.attempted == plain.attempted == 1
    selfs = tracer.self_times()
    assert selfs["syntax.parse_system"][1] == 1
    assert selfs["analysis.sccs"][1] == 2  # once in check_criterion, once in build_report
    metrics = {name: value for name, value, _ in run.per_layer(tracer, traced, plain)}
    assert metrics["analysis.extract_dps.pairs"] == 3
    assert 0 < metrics["trace.coverage"] <= 1


def test_without_program_it_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    tracer = tracing.Tracer(tracing.targets(TT.syntax, TT.typecheck, TT.analysis,
                                            TT.report, TT.rewrite))
    traced, plain = run.traced_run(run.CheckRunner(TT), small_ops(), 1e-9, tracer)
    printed = [(name, unit) for name, _, unit in run.per_layer(tracer, traced, plain)]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == printed
