"""The scripts under tools/."""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    text = json.dumps(doc, indent=2) + "\n"
    record = report_record(compare_outputs, text)
    assert "0.25" not in record["stdout"]
    doc["timing"]["seconds"] = 1.5e-05
    assert report_record(compare_outputs, json.dumps(doc, indent=2) + "\n") == record
    for changed in (json.dumps(doc, indent=1) + "\n", json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
                    json.dumps(doc, indent=2)):
        assert report_record(compare_outputs, changed) != record


def test_time_stages_times_every_stage_of_one_tree_on_both_sides(capsys):
    time_stages = load_tool("time_stages")
    src = str(TOOLS.parent / "src")
    argv = [src, src, "--workload", "wide", "--seed", "1", "--ops", "3", "--rounds", "2"]
    assert time_stages.main(argv) == 0
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == "wide seed 1, 3 ops, 2 rounds: median ms per op"
    assert header.split() == ["stage", "old", "new", "new/old"]
    assert [row.split()[0] for row in rows] == [
        "scan", "tokenize", "parse_system", "validate_system", "extract_dps", "build_graph",
        "sccs", "check_criterion", "build_report", "report_to_json"]
    for row in rows:
        old, new, ratio = map(float, row.split()[1:])
        assert old > 0 and new > 0 and ratio > 0


def test_time_stages_prints_a_dash_for_a_stage_a_tree_does_not_have():
    time_stages = load_tool("time_stages")
    assert time_stages.row("scan", None, 0.5).split() == ["scan", "-", "0.500", "-"]
    assert time_stages.row("sccs", 0.25, 0.5).split() == ["sccs", "0.250", "0.500", "2.00"]
