"""The JSON report writer: `report_to_json` writes exactly what
`json.dumps(report, indent=2) + "\\n"` writes."""
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
# The writer has its own path for lists of `[int, int]` lists, such as
# `edges`: draw those with bools, which print as `true`/`false`, and with
# ints of any size and sign, besides lists of one and three ints and pairs
# among other items.
INTS = st.booleans() | st.integers() | st.integers(max_value=-1) | st.integers(min_value=2**64)
INT_PAIRS = st.lists(INTS, min_size=2, max_size=2)


def containers(inner):
    return (st.lists(inner, max_size=5)
            | st.dictionaries(st.text(max_size=8), inner, max_size=5)
            | st.lists(INT_PAIRS, min_size=1, max_size=6)
            | st.lists(st.lists(INTS, min_size=1, max_size=3), min_size=1, max_size=4)
            | st.lists(INT_PAIRS | inner, min_size=1, max_size=5))


DOCS = st.recursive(SCALARS, containers, max_leaves=30)


def expected(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.text(max_size=8), DOCS, max_size=6) | DOCS)
@example({})
@example([])
@example({"a": [], "b": {}, "": [[], {}, [[]]]})
@example({"seconds": -0.0, "big": 10**100, "small": -(10**100), "odd": [math.nan, math.inf, 1e300]})
@example({"edges": [[0, 1], [-3, 2**70]], "flags": [[True, False], [0, 1]], "one": [[7]]})
@example([[0, 1], [2, 3, 4]])
@example([[0, 1], [2, 3.0]])
@example([[0, 1], "[2, 3]", [4, 5], {"a": [6, 7]}, [[8, 9]], None])
def test_writer_matches_json_dumps(doc):
    assert report_to_json(doc) == expected(doc)


def test_every_system_report_matches_json_dumps(monkeypatch, capsys):
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
        assert out == expected(doc), path
        outcomes.add(doc["outcome"])
    assert outcomes == {"terminating", "unknown", "invalid", "parse-error"}
