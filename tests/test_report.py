"""The JSON report writer's contract: `report_to_json` writes text that
parses back to the report, key order included, with one top-level key per
line, pure ASCII and a final newline."""
from __future__ import annotations

import json
import math

from hypothesis import example, given, settings, strategies as st

from treeterm import cli
from treeterm.report import report_to_json
from conftest import SYSTEMS

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
    | st.text()
    | st.sampled_from(['say "hi"', "back\\slash", "\x00\x1f\x7f\t\n", "♯", "f♯(a) -> g♯", "\U0001d11e"])
)


def containers(inner):
    return st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5)


DOCS = st.recursive(SCALARS, containers, max_leaves=30)
# a report always has keys
REPORTS = st.dictionaries(st.text(max_size=8), DOCS, min_size=1, max_size=6)


def as_pairs(value):
    """`value` as `json.loads(..., object_pairs_hook=list)` reads it back: each
    dict a list of (key, value) tuples, in its key order."""
    if isinstance(value, dict):
        return [(k, as_pairs(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [as_pairs(v) for v in value]
    return value


def assert_contract(report: dict, text: str) -> None:
    # repr tells 1 from True and -0.0 from 0.0, and NaN equals itself in it
    assert repr(json.loads(text, object_pairs_hook=list)) == repr(as_pairs(report))
    assert text.isascii()
    assert text.endswith("\n}\n")
    first, *lines, last = text.removesuffix("\n").split("\n")
    assert (first, last) == ("{", "}")
    assert len(lines) == len(report)
    for line, key in zip(lines, report):
        (pair,) = json.loads("{" + line.removesuffix(",") + "}", object_pairs_hook=list)
        assert pair[0] == key


@settings(max_examples=400, deadline=None)
@given(REPORTS)
@example({"a": [], "b": {}, "": [[], {}, [[]]]})
@example({"seconds": -0.0, "big": 10**100, "small": -(10**100), "odd": [math.nan, math.inf, 1e300]})
@example({"edges": [[0, 1], [-3, 2**70]], "flags": [[True, False], [0, 1]], "one": [[7]]})
@example({"label": "f♯(a) -> g♯", "lines": "a\nb\r\n", "timing": {"seconds": 1.5e-05}})
def test_writer_keeps_its_contract(report):
    assert_contract(report, report_to_json(report))


def test_every_system_report_keeps_the_contract(monkeypatch, capsys):
    """Every report `check --json -` writes for the files under systems/."""
    docs = []

    def recording(doc):
        docs.append(doc)
        return report_to_json(doc)

    monkeypatch.setattr(cli, "report_to_json", recording)
    outcomes = set()
    paths = sorted(SYSTEMS.rglob("*.trs"))
    assert paths
    for path in paths:
        cli.main(["check", str(path), "--json", "-"])
        out = capsys.readouterr().out
        (doc,) = docs
        docs.clear()
        assert_contract(doc, out)
        outcomes.add(doc["outcome"])
    assert outcomes == {"terminating", "unknown", "invalid", "parse-error"}
