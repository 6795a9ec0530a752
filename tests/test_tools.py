"""The scripts under tools/."""
from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import wide_text
from treeterm.report import report_to_json

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_a_checkout_with_cached_bytecode(monkeypatch, capsys, tmp_path):
    bench_pairs = load_tool("bench_pairs")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit(0)\n")
    cache = tmp_path / "src" / "treeterm" / "__pycache__"
    cache.mkdir(parents=True)

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was launched")

    monkeypatch.setattr(subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(tmp_path), "--pr", "0"])
    assert exit_info.value.code == 2
    assert str(cache) in capsys.readouterr().err


def report_record(compare_outputs, text: str) -> dict:
    """The record `compare_outputs.py` keeps of a `check --json -` run that
    prints `text`."""
    def main(argv):
        sys.stdout.write(text)
        return 0

    return next(compare_outputs.records(main, "system", ["x.trs"], False))


def test_compare_outputs_records_the_report_bytes():
    compare_outputs = load_tool("compare_outputs")
    doc = {"file": "x.trs", "label": "f♯(a) -> g♯", "edges": [[0, 1]], "timing": {"seconds": 0.25}}
    record = report_record(compare_outputs, report_to_json(doc))
    assert "0.25" not in record["stdout"]
    doc["timing"]["seconds"] = 1.5e-05
    text = report_to_json(doc)
    assert report_record(compare_outputs, text) == record
    for changed in (json.dumps(doc, indent=2) + "\n", text.replace("\\u266f", "♯"), text.removesuffix("\n"),
                    text.replace("[[0, 1]]", "[[0, 2]]")):
        assert changed != text
        assert report_record(compare_outputs, changed) != record


def test_time_stages_times_every_stage_of_one_tree_on_both_sides(capsys):
    time_stages = load_tool("time_stages")
    src = str(TOOLS.parent / "src")
    argv = [src, src, "--workload", "wide", "--seed", "1", "--ops", "3", "--rounds", "2"]
    assert time_stages.main(argv) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == "wide seed 1, 3 ops, 2 rounds: median ms per op"
    assert header.split() == ["stage", "old", "new", "new/old", "min", "max"]
    assert [row.split()[0] for row in rows] == [
        "scan", "tokenize", "parse_system", "validate_system", "extract_dps", "build_graph",
        "sccs", "find_indices", "check_criterion", "build_report", "report_to_json"]
    for row in rows:
        old, new, ratio, low, high = map(float, row.split()[1:])
        assert old > 0 and new > 0 and ratio > 0 and 0 < low <= high


def test_time_stages_times_the_reduce_stages(capsys):
    time_stages = load_tool("time_stages")
    src = str(TOOLS.parent / "src")
    argv = [src, src, "--workload", "reduce", "--seed", "1", "--ops", "3", "--rounds", "2"]
    assert time_stages.main(argv) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == "reduce seed 1, 3 ops, 2 rounds: median ms per op"
    assert [row.split()[0] for row in rows] == ["parse_erased_term", "normalize", "print_erased"]
    for row in rows:
        old, new, ratio, low, high = map(float, row.split()[1:])
        assert old > 0 and new > 0 and ratio > 0 and 0 < low <= high
    assert len(time_stages.reduce_ops(1, None)) == 807


def test_time_stages_prints_a_dash_for_a_stage_a_tree_does_not_have():
    time_stages = load_tool("time_stages")
    assert time_stages.row("scan", None, 0.5, []).split() == ["scan", "-", "0.500", "-", "-", "-"]
    assert time_stages.row("sccs", 0.25, 0.5, [2.5, 1.5, 2.0]).split() == [
        "sccs", "0.250", "0.500", "2.00", "1.50", "2.50"]


def test_time_stages_times_one_wide_self_system(capsys):
    time_stages = load_tool("time_stages")
    src = str(TOOLS.parent / "src")
    assert time_stages.main([src, src, "--wide-self", "12", "--rounds", "2"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == "wide-self-12, 2 rounds: median ms per op"
    assert len(rows) == len(time_stages.STAGES)
    assert all(float(row.split()[1]) > 0 for row in rows)
    fixture = (TOOLS.parent / "systems" / "wide-self-12.trs").read_text()
    assert time_stages.texts("wide-self-12", 1, None) == [wide_text(1, 12, None)]
    assert fixture.endswith(wide_text(1, 12, None))


@pytest.mark.parametrize("argv", [["--wide-self", "0"], ["--wide-self", "3", "--ring-800"]])
def test_time_stages_refuses_a_wide_self_size_it_cannot_time(capsys, argv):
    time_stages = load_tool("time_stages")
    src = str(TOOLS.parent / "src")
    with pytest.raises(SystemExit) as exit_info:
        time_stages.main([src, src, *argv])
    assert exit_info.value.code == 2
    assert "--wide-self" in capsys.readouterr().err


def test_time_stages_times_one_system_file(capsys):
    time_stages = load_tool("time_stages")
    src = str(TOOLS.parent / "src")
    fixture = TOOLS.parent / "systems" / "all-weak-4x3.trs"
    assert time_stages.main([src, src, "--system", str(fixture), "--rounds", "2"]) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == "all-weak-4x3.trs, 2 rounds: median ms per op"
    assert [row.split()[0] for row in rows] == list(time_stages.STAGES)
    assert all(float(row.split()[1]) > 0 for row in rows)


@pytest.mark.parametrize("argv", [["--system", "no-such-file.trs"],
                                  ["--system", "systems/app.trs", "--wide-self", "3"]])
def test_time_stages_refuses_a_system_it_cannot_time(capsys, argv):
    time_stages = load_tool("time_stages")
    src = str(TOOLS.parent / "src")
    with pytest.raises(SystemExit) as exit_info:
        time_stages.main([src, src, *argv])
    assert exit_info.value.code == 2
    assert "--system" in capsys.readouterr().err


def test_time_stages_times_two_different_trees_in_one_process(capsys, tmp_path):
    time_stages = load_tool("time_stages")
    trees = {side: tmp_path / side for side in ("without_scan", "with_scan")}
    for tree in trees.values():
        shutil.copytree(TOOLS.parent / "src", tree, ignore=shutil.ignore_patterns("__pycache__"))
    syntax = trees["without_scan"] / "treeterm" / "syntax.py"
    text = syntax.read_text(encoding="utf-8")
    renamed = text.replace("def scan(", "def _scan(").replace("= scan(text)", "= _scan(text)")
    assert renamed.count("_scan(") == text.count("scan(") == 2
    syntax.write_text(renamed, encoding="utf-8")
    argv = ["--workload", "wide", "--ops", "2", "--rounds", "2"]
    for old, new, lacking in (("without_scan", "with_scan", 1), ("with_scan", "without_scan", 2)):
        assert time_stages.main([str(trees[old]), str(trees[new]), *argv]) == 0
        rows = {row.split()[0]: row.split() for row in capsys.readouterr().out.splitlines()[2:]}
        assert rows["scan"][lacking] == "-" and float(rows["scan"][3 - lacking]) > 0
        assert rows["scan"][3:] == ["-", "-", "-"]
        assert all("-" not in cells for stage, cells in rows.items() if stage != "scan")
        assert not [path for tree in trees.values() for path in tree.rglob("__pycache__")]
        assert not [key for key in sys.modules if key.startswith("treeterm_")]


RUN_STDOUT = """workload wide, seed 1, 72 ops per pass
calibration loop: median 0.252 ms over 1590 timings (nominal 0.400 ms); uncalibrated: ops_per_s 1365.63, op_p50_s 0.000678125, op_p90_s 0.00112372
  ops_per_s         859.674 1/s
{"correct": true, "attempted": 1580, "failed": 0, "metrics": {"ops_per_s": {"value": 859.674, "unit": "1/s"}}}
"""


def test_bench_pairs_keeps_the_uncalibrated_figures_of_a_run(monkeypatch, tmp_path):
    bench_pairs = load_tool("bench_pairs")
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: subprocess.CompletedProcess(
        args, 0, stdout=RUN_STDOUT, stderr=""))
    run = bench_pairs.run_once(tmp_path, "wide", 1, 30)
    assert run["metrics"] == {"ops_per_s": 859.674}
    assert run["uncalibrated"] == {"calibration_loop_ms": 0.252, "ops_per_s": 1365.63,
                                   "op_p50_s": 0.000678125, "op_p90_s": 0.00112372}
    pair = {"parent": run, "change": {**run, "uncalibrated": {**run["uncalibrated"], "ops_per_s": 1400.0}}}
    raw = bench_pairs.summarize([pair], bench_pairs.RAW_METRICS, "uncalibrated")
    assert raw["ops_per_s"]["change_wins"] == 1 and raw["op_p50_s"]["ties"] == 1


def test_bench_pairs_stops_on_a_run_without_its_calibration_line(monkeypatch, capsys, tmp_path):
    bench_pairs = load_tool("bench_pairs")
    stdout = "".join(line for line in RUN_STDOUT.splitlines(keepends=True)
                     if not line.startswith("calibration loop"))
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: subprocess.CompletedProcess(
        args, 0, stdout=stdout, stderr=""))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.run_once(tmp_path, "wide", 1, 30)
    assert exit_info.value.code == 2
    assert "calibration loop" in capsys.readouterr().err
