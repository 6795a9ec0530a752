"""Command line behavior: exit codes, report files, and printed text."""
from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import zlib

import pytest

from treeterm import cli
from treeterm.cli import main
from treeterm.report import SCHEMA_VERSION
from treeterm.syntax import print_erased
from conftest import APP_PATH, FGIH_PATH, NONMINIMAL_PATH, SYSTEMS
from helpers import CHOICE_TEXT, choice_spine, clique_text, full_tree, ring_text, spine_tree, wide_text

APP = str(APP_PATH)
FGIH = str(FGIH_PATH)
NONMINIMAL = str(NONMINIMAL_PATH)
INVALID_DIR = SYSTEMS / "invalid"
PARSE_DIR = SYSTEMS / "parse"

LOOP_TEXT = (
    "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
    "rule f[a] x -> f[a] x;\n"
)


# systems/loop-<name>.trs and a term that loops under it.  Each rule calls
# its own symbol with a pattern argument outside the recursive positions: no
# certificate may exist.
NON_RECURSIVE_LOOPS = {"no-recursive-argument": "f", "under-a-lambda": "f Leaf"}


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.trs"
    path.write_text(LOOP_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check

def test_check_terminating(capsys):
    code, out, _ = run(capsys, "check", FGIH)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"TERMINATING: {FGIH}"
    assert "  rules: 6, symbols: 4" in lines
    assert "  dependency pairs: 9, edges: 13" in lines
    assert "  nontrivial SCCs: 3" in lines
    assert "  SCC {0, 2}: ι[f]=1, ι[g]=1; strict: [2]; weak: [0]" in lines
    assert "  SCC {6, 7}: ι[i]=1; strict: [6, 7]" in lines
    assert "  SCC {8}: ι[h]=1; strict: [8]" in lines


def test_check_app(capsys):
    code, out, _ = run(capsys, "check", APP)
    assert code == 0
    assert out.startswith(f"TERMINATING: {APP}")
    assert "  dependency pairs: 3, edges: 2" in out


def test_check_unknown(capsys, loop_file):
    code, out, _ = run(capsys, "check", loop_file)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == f"UNKNOWN: {loop_file}"
    assert "  failing SCC {0} (1 assignments tried)" in lines
    assert any("without a strict decrease" in l for l in lines)
    assert "  residual cycle: 0" in lines
    assert "    node 0: f♯(a) -> f♯(a)" in lines


@pytest.mark.parametrize("name,term", NON_RECURSIVE_LOOPS.items(), ids=NON_RECURSIVE_LOOPS)
def test_check_does_not_certify_a_loop_through_non_recursive_patterns(capsys, name, term):
    path = str(SYSTEMS / f"loop-{name}.trs")
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert out.splitlines()[:3] == [
        f"UNKNOWN: {path}", "  rules: 1, symbols: 1", "  dependency pairs: 1, edges: 1",
    ]
    code, out, _ = run(capsys, "reduce", path, "--term", term)
    assert code == 1
    assert out.startswith("FUEL EXHAUSTED")


def test_check_invalid(capsys):
    code, out, _ = run(capsys, "check", NONMINIMAL)
    assert code == 2
    assert out.splitlines()[0] == f"INVALID: {NONMINIMAL}"
    assert "E-MIN-PATTERN-MISMATCH" in out


# Every diagnostic line `check` prints for systems/invalid/<name>.trs; each
# file shows the code named by its file name up to the first dot, in every
# wording it has.  `arg-type.blanks` has CRLF line ends, and a comment line,
# a tab and a form feed before the error.  In `undeclared-symbol.lone-cr` a
# lone carriage return is a blank, so the declaration of `f` is inside the
# comment on line 1.
INVALID_DIAGNOSTICS = {
    "arg-type": (
        "E-ARG-TYPE: argument 'x' has type B(a), which is not a subtype of B(leaf) at 6:18",
    ),
    "arg-type.blanks": (
        "E-ARG-TYPE: argument 'x' has type B(a), which is not a subtype of B(leaf) at 6:19",
    ),
    "expected-function": (
        "E-EXPECTED-FUNCTION: term 'x' of type B(a) is applied to an argument but has no "
        "function type at 5:18",
    ),
    "expected-poly": (
        "E-EXPECTED-POLY: term 'x' of type B(a) is applied to a pattern but is not quantified "
        "at 5:17",
    ),
    "expected-poly.spine": (
        "E-EXPECTED-POLY: term 'f[leaf]' of type B(leaf) -> B(leaf) is applied to a pattern but "
        "is not quantified at 2:48",
    ),
    "free-var": (
        "E-FREE-VAR: right-hand side variable 'y' does not occur on the left-hand side at 5:1",
        "E-FREE-VAR: right-hand side variable 'z' does not occur on the left-hand side at 5:1",
    ),
    "min-annot-mismatch": (
        "E-MIN-ANNOT-MISMATCH: constructor annotation b in the rule for 'f' disagrees with the "
        "forced pattern a at 6:1",
        "E-MIN-ANNOT-MISMATCH: constructor annotation c in the rule for 'f' disagrees with the "
        "forced pattern b at 7:1",
    ),
    "min-arity": (
        "E-MIN-ARITY: rule for 'f' has 0 pattern arguments, expected 1 at 6:1",
        "E-MIN-ARITY: rule for 'f' has 0 recursive arguments, expected 1 at 7:1",
    ),
    "min-fresh-var": (
        "E-MIN-FRESH-VAR: pattern argument 2 of the rule for 'f' must be a fresh pattern "
        "variable at 6:1",
        "E-MIN-FRESH-VAR: pattern argument 2 of the rule for 'f' must be a fresh pattern "
        "variable at 7:1",
    ),
    "min-pattern-mismatch": tuple(
        f"E-MIN-PATTERN-MISMATCH: pattern argument 1 of the rule for 'f' is {given}, but the "
        f"minimal typing of its recursive argument forces the shape {shape} with one distinct "
        f"variable per term variable at {line}:1"
        for given, shape, line in (
            ("a", "node(x,y)", 6),
            ("node(a,a)", "node(x,y)", 7),
            ("node(a,b)", "node(x,x)", 8),
            ("node(a,leaf)", "node(x,node(y,z))", 9),
            ("node(a,b)", "node(x,leaf)", 10),
        )
    ),
    "partial-pattern-app": (
        "E-PARTIAL-PATTERN-APP: symbol 'f' is applied to 1 pattern arguments, expected 2 at 6:20",
    ),
    "pattern-capture": (
        "E-PATTERN-CAPTURE: pattern binder 'a' already occurs free in the context at 6:17",
    ),
    "pattern-var": (
        "E-PATTERN-VAR: right-hand side pattern variable 'c' is not introduced by the "
        "left-hand side at 6:1",
    ),
    "rhs-type": (
        "E-RHS-TYPE: right-hand side has type B(a), which is not a subtype of the left-hand "
        "side type B(leaf) at 6:1",
    ),
    "shadowed": (
        "E-SHADOWED: variable 'x' is bound twice at 5:17",
    ),
    "sig-distinct": (
        "E-SIG-DISTINCT: quantifiers of symbol 'f' are not pairwise distinct at 3:1",
    ),
    "sig-polarity": (
        "E-SIG-POLARITY: quantifier 'a' of symbol 'f' occurs negative in the result type at 4:1",
        "E-SIG-POLARITY: quantifier 'a' of symbol 'g' occurs both in the result type at 5:1",
    ),
    "sig-recursive-count": (
        "E-SIG-RECURSIVE-COUNT: symbol 'f' declares 1 recursive arguments but only 0 "
        "quantifiers at 3:1",
    ),
    "sig-shape": (
        "E-SIG-SHAPE: symbol 'f' declares 1 recursive arguments but its type has only 0 "
        "argument positions at 4:1",
        "E-SIG-SHAPE: recursive argument 1 of symbol 'g' must have type B(a), found B(leaf) "
        "at 5:1",
    ),
    "undeclared-symbol": (
        "E-UNDECLARED-SYMBOL: symbol 'g' is not declared at 5:1",
    ),
    "undeclared-symbol.lone-cr": (
        "E-UNDECLARED-SYMBOL: symbol 'f' is not declared at 2:1",
    ),
}


def test_invalid_systems_are_all_pinned():
    assert sorted(p.stem for p in INVALID_DIR.glob("*.trs")) == sorted(INVALID_DIAGNOSTICS)


@pytest.mark.parametrize("name", sorted(INVALID_DIAGNOSTICS))
def test_check_invalid_system_output(capsys, name):
    path = str(INVALID_DIR / f"{name}.trs")
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (2, "")
    lines = INVALID_DIAGNOSTICS[name]
    assert out == "".join(f"{line}\n" for line in (f"INVALID: {path}", *(f"  {l}" for l in lines)))
    assert all(line.startswith(f"E-{name.split('.')[0].upper()}: ") for line in lines)


def test_check_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path / "absent.trs"))
    assert code == 3
    assert out == ""
    assert "cannot read" in err


@pytest.mark.parametrize("extra", [[], ["--term", "f Leaf"]], ids=["check", "reduce"])
def test_undecodable_input_exits_3(capsys, tmp_path, extra):
    bad = tmp_path / "latin1.trs"
    bad.write_bytes(b"symbol f : forall a. B(a) -> B(_) recursive 1;\n# caf\xe9\n")
    command = "reduce" if extra else "check"
    code, out, err = run(capsys, command, str(bad), *extra)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9")


def test_byte_order_mark_is_skipped(capsys, tmp_path):
    # some editors start UTF-8 files with EF BB BF
    marked = tmp_path / "app.trs"
    marked.write_bytes(b"\xef\xbb\xbf" + APP_PATH.read_bytes())
    _, plain, _ = run(capsys, "check", APP)
    code, out, err = run(capsys, "check", str(marked))
    assert (code, err) == (0, "")
    assert out == plain.replace(APP, str(marked))


# What `check` prints after the path for systems/parse/<name>.trs: one file
# per parse error message, and two `blanks-before-*` files with CRLF line
# ends, and a comment line, a tab and a form feed before the error.
PARSE_ERRORS = {
    "blanks-before-character": "5:18: unexpected character '&'",
    "blanks-before-term": "5:17: expected a term (expected ident, Leaf, Node, ()",
    "declared-twice": "4:1: symbol 'f' declared twice",
    "expected-declaration": "5:1: expected a declaration (expected symbol, rule)",
    "expected-pattern": "3:14: expected a pattern (expected ident, leaf, node, bot, _)",
    "expected-term": "5:11: expected a term (expected ident, Leaf, Node, ()",
    "expected-type": "3:22: expected a type (expected B, ()",
    "lhs-argument": "6:12: rule left-hand side arguments must be constructor terms "
                    "(variables, Leaf, or Node with zero or two pattern annotations)",
    "lhs-head": "5:6: rule left-hand side must be a symbol applied to pattern arguments "
                "and then constructor arguments",
    "recursive-count-too-large": "4:30: recursive count has too many digits",
    "unexpected-character": "5:18: unexpected character '&'",
    "unexpected-token": "3:10: unexpected 'forall' (expected :)",
}


def test_parse_error_systems_are_all_pinned():
    assert sorted(p.stem for p in PARSE_DIR.glob("*.trs")) == sorted(PARSE_ERRORS)


@pytest.mark.parametrize("name", sorted(PARSE_ERRORS))
def test_check_parse_error(capsys, name):
    path = str(PARSE_DIR / f"{name}.trs")
    code, out, err = run(capsys, "check", path)
    assert (code, out, err) == (3, f"PARSE ERROR: {path}: {PARSE_ERRORS[name]}\n", "")


def test_check_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.trs"
    empty.write_text("")
    code, out, _ = run(capsys, "check", str(empty))
    assert code == 0
    assert out.startswith(f"TERMINATING: {empty}")
    assert "  rules: 0, symbols: 0" in out


# ---------------------------------------------------------------------------
# JSON reports

def test_check_json_to_stdout_is_pure(capsys):
    code, out, _ = run(capsys, "check", FGIH, "--json", "-")
    assert code == 0
    report = json.loads(out)  # nothing but the document on stdout
    assert report["schemaVersion"] == SCHEMA_VERSION
    assert report["outcome"] == "terminating"
    assert len(report["dependencyPairs"]) == 9
    assert len(report["edges"]) == 13
    assert [c["nodes"] for c in report["sccs"] if c["nontrivial"]] == [[0, 2], [6, 7], [8]]
    assert len(report["certificates"]) == 3


def test_check_json_file_and_human_output(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", APP, "--json", str(dest))
    assert code == 0
    assert out.startswith("TERMINATING")  # human text still printed
    report = json.loads(dest.read_text())
    assert report["outcome"] == "terminating"
    assert report["file"] == APP
    assert len(report["rules"]) == 4
    assert {tuple(e) for e in report["edges"]} == {(2, 0), (2, 1)}


def test_check_json_deterministic_modulo_timing(capsys):
    """The two reports are equal byte for byte once the one timed value is masked."""
    seconds = re.compile(r'^(    "seconds": )-?[0-9][0-9.eE+-]*$', re.MULTILINE)
    _, out1, _ = run(capsys, "check", FGIH, "--json", "-")
    _, out2, _ = run(capsys, "check", FGIH, "--json", "-")
    masked1, masked2 = (seconds.subn(r"\1<seconds>", out) for out in (out1, out2))
    assert masked1 == masked2
    assert masked1[1] == 1


def test_undeclared_symbol_diagnostic_has_a_location(capsys):
    path = str(INVALID_DIR / "undeclared-symbol.trs")
    code, out, _ = run(capsys, "check", path, "--json", "-")
    assert code == 2
    (diagnostic,) = json.loads(out)["diagnostics"]
    assert diagnostic["code"] == "E-UNDECLARED-SYMBOL"
    assert (diagnostic["line"], diagnostic["col"]) == (5, 1)


def test_check_json_invalid_outcome(capsys):
    code, out, _ = run(capsys, "check", NONMINIMAL, "--json", "-")
    assert code == 2
    report = json.loads(out)
    assert report["outcome"] == "invalid"
    assert report["diagnostics"][0]["code"] == "E-MIN-PATTERN-MISMATCH"
    assert report["diagnostics"][0]["ruleIndex"] == 0


def test_check_json_parse_error_outcome(capsys, tmp_path):
    bad = tmp_path / "bad.trs"
    bad.write_text("rule ;\n")
    code, out, _ = run(capsys, "check", str(bad), "--json", "-")
    assert code == 3
    report = json.loads(out)
    assert report["outcome"] == "parse-error"
    assert report["diagnostics"][0]["code"] == "E-PARSE"


def test_check_json_unknown_failure_block(capsys, loop_file):
    code, out, _ = run(capsys, "check", loop_file, "--json", "-")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "unknown"
    assert report["failure"]["scc"] == [0]
    assert report["failure"]["searchSpace"] == 1
    assert report["failure"]["cycle"] == [0]


# ---------------------------------------------------------------------------
# graph

def test_graph_prints_dot(capsys):
    code, out, _ = run(capsys, "graph", FGIH)
    assert code == 0
    assert out.startswith("digraph dependency_pairs {")
    assert out.count("->") >= 13


def test_graph_writes_dot_file(capsys, tmp_path):
    dest = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "graph", FGIH, "--dot", str(dest))
    assert code == 0
    text = dest.read_text()
    assert text.startswith("digraph dependency_pairs {")
    assert str(dest) in out  # a short confirmation line replaces the dump


def test_graph_rejects_invalid_system(capsys):
    code, _, _ = run(capsys, "graph", NONMINIMAL)
    assert code == 2


def test_check_writes_dot_file_too(capsys, tmp_path):
    dest = tmp_path / "check.dot"
    code, _, _ = run(capsys, "check", FGIH, "--dot", str(dest))
    assert code == 0
    assert "penwidth=2" in dest.read_text()  # verdict styling included


def test_graph_png_export(capsys, tmp_path):
    dest = tmp_path / "graph.png"
    code, _, _ = run(capsys, "graph", FGIH, "--png", str(dest))
    assert code == 0
    data = dest.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    assert len(data) > 1000


def png_chunks(data: bytes) -> list[tuple[bytes, bytes]]:
    """Split a PNG file into (type, payload) chunks, checking every CRC."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        kind, payload = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(kind + payload), kind
        chunks.append((kind, payload))
        pos += 12 + length
    assert pos == len(data)
    return chunks


def test_graph_png_is_well_formed(capsys, tmp_path):
    dest = tmp_path / "graph.png"
    code, _, _ = run(capsys, "graph", FGIH, "--png", str(dest))
    assert code == 0
    chunks = png_chunks(dest.read_bytes())
    kinds = [kind for kind, _ in chunks]
    assert kinds[0] == b"IHDR" and kinds[-1] == b"IEND"
    assert kinds.count(b"IHDR") == 1 and kinds.count(b"IEND") == 1
    width, height, depth, color_type = struct.unpack(">IIBB", chunks[0][1][:10])
    assert depth == 8 and color_type == 2  # 8-bit RGB
    pixels = zlib.decompress(b"".join(p for kind, p in chunks if kind == b"IDAT"))
    assert len(pixels) == height * (1 + 3 * width)
    # components are filled with their DOT colours: lightblue, lightsalmon, palegreen
    for rgb in ((173, 216, 230), (255, 160, 122), (152, 251, 152)):
        assert bytes(rgb) in pixels


# The X11 values of the DOT palette's colours.
X11_RGB = {
    "lightblue": (173, 216, 230), "lightsalmon": (255, 160, 122), "palegreen": (152, 251, 152),
    "khaki": (240, 230, 140), "plum": (221, 160, 221), "lightgrey": (211, 211, 211),
}


def test_png_fills_each_node_with_its_dot_colour(capsys, tmp_path):
    dot, png = tmp_path / "g.dot", tmp_path / "g.png"
    assert run(capsys, "graph", FGIH, "--dot", str(dot), "--png", str(png))[0] == 0
    nodes = re.findall(r"^  n(\d+) \[(.*)\];$", dot.read_text(), re.M)
    chunks = png_chunks(png.read_bytes())
    width, height = struct.unpack(">II", chunks[0][1][:8])
    rows = zlib.decompress(b"".join(p for kind, p in chunks if kind == b"IDAT"))
    stride = 1 + 3 * width
    assert all(rows[y * stride] == 0 for y in range(height))  # no row filter

    def pixel(x: float, y: float) -> tuple[int, ...]:
        i = round(y) * stride + 1 + 3 * round(x)
        return tuple(rows[i:i + 3])

    # Discs of radius 16 on a circle in index order, starting at the top,
    # 48 pixels in from the edges; the digits fill at most 14×10 pixels
    # around each centre.
    centre, radius = width / 2, width / 2 - 48
    assert len(nodes) == 9
    for i, attrs in nodes:
        colour = re.search(r'fillcolor="(\w+)"', attrs)
        want = X11_RGB[colour.group(1)] if colour else (255, 255, 255)
        angle = 2 * math.pi * int(i) / len(nodes) - math.pi / 2
        x, y = centre + radius * math.cos(angle), centre + radius * math.sin(angle)
        for dx, dy in ((0, -9), (0, 9), (-10, 0), (10, 0)):
            assert pixel(x + dx, y + dy) == want, (i, dx, dy)


def test_graph_png_is_deterministic(capsys, tmp_path):
    first, second = tmp_path / "a.png", tmp_path / "b.png"
    assert run(capsys, "graph", FGIH, "--png", str(first))[0] == 0
    assert run(capsys, "graph", FGIH, "--png", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_graph_png_without_dependency_pairs(capsys, tmp_path):
    source = tmp_path / "single.trs"
    source.write_text("symbol f : B(leaf) recursive 0;\n")
    dest = tmp_path / "graph.png"
    code, out, _ = run(capsys, "graph", str(source), "--png", str(dest))
    assert code == 0
    assert "n0" not in out
    kinds = [kind for kind, _ in png_chunks(dest.read_bytes())]
    assert kinds[0] == b"IHDR" and kinds[-1] == b"IEND"


def test_check_writes_png_and_json(capsys, tmp_path):
    png, report = tmp_path / "check.png", tmp_path / "report.json"
    code, out, _ = run(capsys, "check", FGIH, "--png", str(png), "--json", str(report))
    assert code == 0
    assert f"wrote PNG to {png}" in out
    assert png.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
    assert json.loads(report.read_text())["outcome"] == "terminating"


@pytest.mark.parametrize("argv, name", [
    pytest.param(["graph", FGIH, "--png"], "x.png", id="graph-png"),
    pytest.param(["check", FGIH, "--dot"], "d.dot", id="check-dot"),
    pytest.param(["check", FGIH, "--json"], "r.json", id="check-json"),
])
def test_unwritable_output_exits_4(capsys, tmp_path, argv, name):
    dest = tmp_path / "absent" / name
    code, _, err = run(capsys, *argv, str(dest))
    assert code == 4
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {dest}: ")
    assert "Traceback" not in err


def test_unwritable_png_keeps_the_json_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "check", FGIH, "--png", str(tmp_path / "absent" / "x.png"), "--json", str(report))
    assert code == 4
    assert "error: cannot write" in err
    assert json.loads(report.read_text())["outcome"] == "terminating"


def test_import_does_not_load_the_renderer():
    probe = ("import sys, treeterm; "
             "print([m for m in ('treeterm.viz', 'treeterm.cli', 'treeterm.report', 'argparse') if m in sys.modules]); "
             "print(sorted(m for m in sys.modules if m.startswith('treeterm.')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    unwanted, loaded = result.stdout.splitlines()
    assert unwanted == "[]"
    assert loaded == str([f"treeterm.{m}" for m in ("analysis", "rewrite", "syntax", "terms", "typecheck")])
    assert importlib.util.find_spec("treeterm.oracle") is None


def test_module_entry_point_runs_without_warnings():
    result = subprocess.run([sys.executable, "-m", "treeterm.cli", "check", APP], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith(f"TERMINATING: {APP}")


# ---------------------------------------------------------------------------
# reduce

def test_reduce_single_form(capsys):
    code, out, _ = run(capsys, "reduce", FGIH, "--term", "i (Node Leaf Leaf)")
    assert code == 0
    assert out == "Node Leaf Leaf\n"


def test_reduce_all_forms_with_count(capsys):
    code, out, _ = run(capsys, "reduce", FGIH, "--term", "g (Node Leaf Leaf)", "--all")
    assert code == 0
    assert out == "f Leaf\n1 normal form(s)\n"


def test_reduce_oracle_annotations(capsys):
    code, out, _ = run(capsys, "reduce", FGIH, "--term", "i Leaf", "--oracle")
    assert code == 0
    assert out == "Leaf    # pattern form: leaf\n"


def test_reduce_fuel_exhausted(capsys, loop_file):
    code, out, _ = run(capsys, "reduce", loop_file, "--term", "f Leaf", "--fuel", "40")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FUEL EXHAUSTED after 1 expanded states (budget 40)"
    assert lines[1] == "  still reducing: f Leaf"


def test_reduce_skips_validation(capsys):
    # reduction must work even on systems the typechecker rejects
    code, out, _ = run(capsys, "reduce", NONMINIMAL, "--term", "f Leaf Leaf", "--fuel", "200")
    assert code == 1
    assert out.startswith("FUEL EXHAUSTED")


def test_reduce_term_parse_error(capsys):
    code, out, _ = run(capsys, "reduce", FGIH, "--term", "i [leaf")
    assert code == 3
    assert out.startswith("PARSE ERROR: --term:")


def test_reduce_lambda_term(capsys):
    code, out, _ = run(capsys, "reduce", FGIH, "--term", r"(\x. x) Leaf")
    assert code == 0
    assert out == "Leaf\n"


@pytest.mark.parametrize("tree", [spine_tree(150), full_tree(8)], ids=["spine-150", "full-8"])
def test_reduce_deep_tree_is_fast(capsys, tree):
    # i maps a tree to itself; the reducer splits each Node instead of
    # interleaving the independent i calls below it
    text = print_erased(tree)
    started = time.perf_counter()
    code, out, err = run(capsys, "reduce", FGIH, "--term", f"i ({text})", "--all")
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    assert out == f"{text}\n1 normal form(s)\n"


def test_reduce_too_many_normal_forms_runs_out_of_fuel(capsys, tmp_path):
    # Node (c Leaf) (Node (c Leaf) ...) has 2**30 normal forms under c
    system = tmp_path / "choice.trs"
    system.write_text(CHOICE_TEXT)
    started = time.perf_counter()
    code, out, err = run(capsys, "reduce", str(system), "--term", print_erased(choice_spine(30)))
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (1, "")
    assert out.startswith("FUEL EXHAUSTED")


@pytest.mark.parametrize("system,term", [
    (FGIH, f"f ({print_erased(full_tree(3))})"),
    (APP, r"app (\x. x x) (\x. x x)"),
], ids=["fuel", "cycle"])
def test_reduce_exhausted_output_is_independent_of_hash_seed(system, term):
    outputs = []
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-m", "treeterm.cli", "reduce", system, "--term", term, "--fuel", "300"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED=seed))
        assert result.returncode == 1, result.stderr
        assert result.stdout.startswith("FUEL EXHAUSTED")
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# typecheck

def test_typecheck_reports_contexts_and_types(capsys):
    code, out, _ = run(capsys, "typecheck", FGIH)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("rule 0: rule f[node(a,b)]")
    assert "  context: x : B(a), y : B(b)" in lines
    assert "  lhs type: B(node(a,b))" in lines
    assert "  context: (empty)" in lines
    assert lines[-1] == "ok: 6 rule(s), 4 symbol(s)"
    assert lines.count("  rhs: ok") == 6


def test_typecheck_app_contexts(capsys):
    code, out, _ = run(capsys, "typecheck", APP)
    assert code == 0
    assert "  lhs type: (B(a) -> B(b)) -> B(a) -> B(b)" in out
    assert out.rstrip().endswith("ok: 4 rule(s), 3 symbol(s)")


def test_typecheck_rejects_invalid(capsys):
    code, out, _ = run(capsys, "typecheck", NONMINIMAL)
    assert code == 2
    assert "E-MIN-PATTERN-MISMATCH" in out


def test_typecheck_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.trs"
    empty.write_text("# nothing here\n")
    code, out, _ = run(capsys, "typecheck", str(empty))
    assert code == 0
    assert out == "ok: 0 rule(s), 0 symbol(s)\n"


# ---------------------------------------------------------------------------
# argument handling

def usage_error(capsys, *argv) -> str:
    """Run a malformed command line: it must exit 64 with a usage line."""
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    assert exited.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: treeterm")
    return captured.err


def test_unknown_subcommand_exits_nonzero(capsys):
    assert "invalid choice: 'frobnicate'" in usage_error(capsys, "frobnicate", FGIH)


def test_reduce_requires_term(capsys):
    assert "--term" in usage_error(capsys, "reduce", FGIH)


def test_unknown_option_is_a_usage_error(capsys):
    assert "unrecognized arguments: --fuel 3" in usage_error(capsys, "check", FGIH, "--fuel", "3")


def test_missing_path_is_a_usage_error(capsys):
    assert "required: path" in usage_error(capsys, "check")


@pytest.mark.parametrize("fuel", ["0", "-5", "many"])
def test_reduce_rejects_fuel_that_is_not_positive(capsys, fuel):
    err = usage_error(capsys, "reduce", FGIH, "--term", "f Leaf", "--fuel", fuel)
    assert f"argument --fuel: expected a positive integer, got '{fuel}'" in err


def test_check_deep_ring_in_a_process(tmp_path):
    ring = tmp_path / "ring-1300.trs"
    ring.write_text(ring_text(1300))
    result = subprocess.run([sys.executable, "-m", "treeterm.cli", "check", str(ring)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout.splitlines()[2] == "  dependency pairs: 1300, edges: 1300"


def test_check_wide_self_400_in_a_process(tmp_path):
    """A right-hand side applying its symbol to 400 patterns gets a verdict:
    the spine is instantiated in one substitution, not one frame per pattern."""
    wide = tmp_path / "wide-self-400.trs"
    wide.write_text(wide_text(1, 400, None))
    result = subprocess.run([sys.executable, "-m", "treeterm.cli", "check", str(wide)],
                            capture_output=True, text=True)
    assert result.returncode == 1, result.stderr
    assert result.stdout.splitlines()[:3] == [
        f"UNKNOWN: {wide}", "  rules: 1, symbols: 1", "  dependency pairs: 1, edges: 1"]


def deep_tree(depth: int) -> str:
    return "(Node " * depth + "Leaf" + " Leaf)" * depth


def deep_rhs_system(depth: int) -> str:
    rhs = "x"
    for _ in range(depth):
        rhs = f"(Node[a,b] {rhs} y)"
    return ("symbol f : forall a. B(a) -> B(_) recursive 1;\n"
            f"rule f[node(a,b)] (Node[a,b] x y) -> {rhs};\n")


def test_reduce_deep_spine_in_a_process():
    """The reducer walks an explicit stack, so `i` on a left spine of 400
    Nodes is reduced; the recursive reducer ran out of frames at ~250."""
    tree = deep_tree(400)
    result = subprocess.run([sys.executable, "-m", "treeterm.cli", "reduce", FGIH, "--term", f"i {tree}"],
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == tree[1:-1] + "\n"


@pytest.mark.parametrize("command", ["reduce", "check"])
def test_deep_nesting_exits_5_in_a_process(tmp_path, command):
    if command == "reduce":
        argv = ["reduce", FGIH, "--term", "i " + deep_tree(1500)]
    else:
        deep = tmp_path / "deep.trs"
        deep.write_text(deep_rhs_system(1500))
        argv = ["check", str(deep)]
    result = subprocess.run([sys.executable, "-m", "treeterm.cli", *argv],
                            capture_output=True, text=True)
    assert result.returncode == 5
    assert result.stderr == "error: input nests too deeply\n"
    assert result.stdout == ""


def test_internal_error_exits_5_with_one_line(capsys, monkeypatch):
    def fail(validated):
        raise RuntimeError("no verdict")

    monkeypatch.setattr(cli, "check_criterion", fail)
    code, out, err = run(capsys, "check", FGIH)
    assert code == 5
    assert out == ""
    assert err == "error: internal error: RuntimeError: no verdict\n"


def test_closed_stdout_exits_4_in_a_process(tmp_path):
    # clique-40 typechecks to ~180 KB, well past a 64 KiB pipe buffer, so the
    # child is still writing when the reader goes away
    source = tmp_path / "clique-40.trs"
    source.write_text(clique_text(40))
    child = subprocess.Popen([sys.executable, "-m", "treeterm.cli", "typecheck", str(source)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = child.stdout.readline()
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert first.startswith(b"rule 0: ")
    assert child.returncode == 4
    assert b"Traceback" not in err
