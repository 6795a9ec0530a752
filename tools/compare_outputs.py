#!/usr/bin/env python3
"""Compare what treeterm's command line prints between two source trees.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `treeterm` package, such as
the `src/` of two checkouts.  The inputs are `systems/*.trs`, the invalid
systems `systems/invalid/*.trs`, the systems with parse errors
`systems/parse/*.trs` and every distinct ring, clique and wide system of
perfbench seeds 1-3, built by `perfbench/workloads.py`.  For each system
the script records:

- `check --json -` byte for byte, with only the `timing.seconds` number
  masked, and its exit code;
- the `check` text, its exit code and the `check --dot` file;
- the SHA-256 of the `check --png` file, for the files under `systems/` and
  for every system whose report has at most 300 edges (larger pictures take
  seconds);
- `graph` stdout and exit code;
- `typecheck` stdout and exit code, for the files under `systems/` only.

It also records `reduce ... --all --oracle` for the `reduce` examples in
README.md and for every op of the perfbench `reduce` workload.  Stderr is
recorded everywhere.  One child process per side runs `treeterm.cli.main`
over all inputs, with the same relative paths, so the outputs can be
compared byte for byte; the two children run at once.  The script prints
the first differences and exits 1 if there are any, 0 if there are none,
and 2 if a child fails.  Nothing is written outside a temporary directory.
"""
from __future__ import annotations

import contextlib
import difflib
import hashlib
import importlib.util
import io
import itertools
import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SHOWN = 5  # differing records printed in full
PNG_MAX_EDGES = 300  # a clique-20 graph, 8000 edges, takes over 10 s to draw
# the one timed value: the number on the report's `timing` line
SECONDS = re.compile(r'^(  "timing": \{"seconds": )-?[0-9][0-9.eE+-]*(?=\}$)', re.MULTILINE)


def load_workloads():
    """perfbench/workloads.py as a module, without putting its directory on
    sys.path or writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def readme_reductions() -> list[list[str]]:
    """The `reduce` command lines shown in README.md, with --all and --oracle."""
    out = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("$ treeterm reduce "):
            argv = shlex.split(line)[2:]
            out.append(argv + [flag for flag in ("--all", "--oracle") if flag not in argv])
    return out


def build_inputs(work: Path) -> list[tuple[str, list[str], bool]]:
    """Write every input under `work` and list the runs as (kind, argv,
    fixture), with paths relative to a child directory of `work`; `fixture`
    marks the files under `systems/`."""
    workloads = load_workloads()
    shutil.copytree(ROOT / "systems", work / "systems")
    shutil.copytree(ROOT / "perfbench" / "fixtures", work / "fixtures")
    systems = [(f"../{p.relative_to(work).as_posix()}", True)
               for p in sorted((work / "systems").rglob("*.trs"))]
    generated = work / "generated"
    generated.mkdir()
    seen: dict[str, str] = {}
    for workload in ("ring", "clique", "wide"):
        for seed in SEEDS:
            ops, _ = workloads.build(workload, seed)
            for op in sorted(ops, key=lambda op: op.label):
                if op.text in seen.values():
                    continue
                name = op.label.replace("/", "-")
                while name in seen:
                    name += "+"
                seen[name] = op.text
                (generated / f"{name}.trs").write_text(op.text, encoding="utf-8")
                systems.append((f"../generated/{name}.trs", False))
    runs = []
    for path, fixture in systems:
        runs.append(("system", [path], fixture))
    for argv in readme_reductions():
        runs.append(("reduce", [argv[0], "../" + argv[1], *argv[2:]], False))
    for op in workloads.reduce_ops():
        runs.append(("reduce", ["reduce", f"../fixtures/{op.system}", "--term", op.term, "--all",
                                "--oracle"], False))
    return runs


# ---------------------------------------------------------------------------
# Child: one side

def call(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        except Exception as exc:  # recorded, so that the other side is compared with it
            code = f"raised {type(exc).__name__}: {exc}"
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def written(main, path: str, flag: str, name: str):
    """Run `check path flag name`, then record the file it wrote: its text,
    or the SHA-256 of its bytes for a PNG; None when it wrote none."""
    out = Path(name)
    out.unlink(missing_ok=True)
    yield call(main, ["check", path, flag, name])
    content = None
    if out.exists():
        data = out.read_bytes()
        content = hashlib.sha256(data).hexdigest() if flag == "--png" else data.decode("utf-8")
    yield {"argv": [f"check {flag} file of", path], "stdout": content}


def records(main, kind: str, argv: list[str], fixture: bool):
    if kind == "reduce":
        yield call(main, argv)
        return
    (path,) = argv
    report = call(main, ["check", path, "--json", "-"])
    edges = None
    with contextlib.suppress(ValueError):  # no report when the file cannot be read
        edges = len(json.loads(report["stdout"])["edges"])
    report["stdout"] = SECONDS.sub(r"\1<seconds>", report["stdout"])
    yield report
    yield from written(main, path, "--dot", "check.dot")
    if fixture or (edges is not None and edges <= PNG_MAX_EDGES):
        yield from written(main, path, "--png", "check.png")
    yield call(main, ["graph", path])
    if fixture:
        yield call(main, ["typecheck", path])


def child(src: str, runs_file: str, out_file: str) -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    from treeterm.cli import main

    runs = json.loads(Path(runs_file).read_text(encoding="utf-8"))
    with open(out_file, "w", encoding="utf-8") as out:
        for kind, argv, fixture in runs:
            for record in records(main, kind, argv, fixture):
                out.write(json.dumps(record, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Parent: both sides, then the comparison

def run_sides(sides: dict[str, Path], work: Path) -> bool:
    """One child per side, both at once, each in its own directory under
    `work` (so their `check.dot` and `check.png` files stay apart), writing
    `out.jsonl`."""
    children = []
    for name, src in sides.items():
        (work / name).mkdir()
        children.append(subprocess.Popen([sys.executable, "-B", str(Path(__file__).resolve()),
                                          "--child", str(src), "../runs.json", "out.jsonl"],
                                         cwd=work / name))
    codes = [child.wait() for child in children]
    return not any(codes)


def show(old: dict, new: dict) -> None:
    print(f"--- differs: {' '.join(map(str, old.get('argv', ())))}")
    for key in ("code", "stdout", "stderr"):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if isinstance(a, str) and isinstance(b, str):
            diff = difflib.unified_diff(a.splitlines(), b.splitlines(), f"old {key}", f"new {key}",
                                        lineterm="", n=1)
            print("\n".join(list(diff)[:20]))
        else:
            print(f"{key}: old {repr(a)[:200]}, new {repr(b)[:200]}")


def compare(old_file: Path, new_file: Path) -> tuple[int, int]:
    total = differing = 0
    with open(old_file, encoding="utf-8") as a, open(new_file, encoding="utf-8") as b:
        for old_line, new_line in itertools.zip_longest(a, b):
            total += 1
            if old_line == new_line:
                continue
            differing += 1
            if old_line is None or new_line is None:
                print("--- the sides recorded different numbers of outputs")
                break
            if differing <= SHOWN:
                show(json.loads(old_line), json.loads(new_line))
    return total, differing


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--child":
        child(*argv[1:])
        return 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 64
    old_src, new_src = (Path(a).resolve() for a in argv)
    for src in (old_src, new_src):
        if not (src / "treeterm" / "cli.py").is_file():
            print(f"error: no treeterm package under {src}", file=sys.stderr)
            return 64
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        runs = build_inputs(work)
        (work / "runs.json").write_text(json.dumps(runs), encoding="utf-8")
        systems = sum(1 for kind, _, _ in runs if kind == "system")
        print(f"{systems} systems, {len(runs) - systems} reductions")
        if not run_sides({"old": old_src, "new": new_src}, work):
            print("error: a child run failed", file=sys.stderr)
            return 2
        total, differing = compare(work / "old" / "out.jsonl", work / "new" / "out.jsonl")
    print(f"{differing} of {total} outputs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    raise SystemExit(main(sys.argv[1:]))
