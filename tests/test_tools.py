"""The scripts under tools/."""
from __future__ import annotations

import importlib.util
import subprocess
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
