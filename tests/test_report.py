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
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=30,
)


def expected(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.text(max_size=8), DOCS, max_size=6) | DOCS)
@example({})
@example([])
@example({"a": [], "b": {}, "": [[], {}, [[]]]})
@example({"seconds": -0.0, "big": 10**100, "small": -(10**100), "odd": [math.nan, math.inf, 1e300]})
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
