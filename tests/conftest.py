from __future__ import annotations

from pathlib import Path

import pytest

from treeterm.syntax import parse_system
from treeterm.terms import RewriteSystem
from treeterm.typecheck import ValidatedSystem, validate_system

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

APP_PATH = SYSTEMS / "app.trs"
FGIH_PATH = SYSTEMS / "fgih.trs"
NONMINIMAL_PATH = SYSTEMS / "nonminimal.trs"


def load(path: Path) -> RewriteSystem:
    return parse_system(path.read_text(encoding="utf-8"))


def load_validated(path: Path) -> ValidatedSystem:
    validated = validate_system(load(path))
    assert not isinstance(validated, list), validated
    return validated


@pytest.fixture(scope="session")
def app_validated() -> ValidatedSystem:
    return load_validated(APP_PATH)


@pytest.fixture(scope="session")
def fgih_validated() -> ValidatedSystem:
    return load_validated(FGIH_PATH)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Surface the acceptance verdict lines even under output capture."""
    import sys

    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
