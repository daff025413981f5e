"""Shared fixtures: the worked example's propositions and input files."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from klogic import IntervalProposition, ObservableKind


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance PASS/FAIL lines where capture cannot hide them."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None)
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)

DEMO_DECL = Path(__file__).parent / "data" / "demo.decl"

DEMO_THEORY = """\
# knowledge of momentum p excludes knowledge of either position
K(p) -> !K(q)
K(p) -> !K(r)
"""


@pytest.fixture
def demo_props() -> tuple[IntervalProposition, ...]:
    return (
        IntervalProposition("p", ObservableKind.MOMENTUM, Fraction(0), Fraction(1, 6)),
        IntervalProposition("q", ObservableKind.POSITION, Fraction(-1), Fraction(1)),
        IntervalProposition("r", ObservableKind.POSITION, Fraction(1), Fraction(3)),
    )


@pytest.fixture
def demo_decl() -> str:
    return str(DEMO_DECL)


@pytest.fixture
def demo_theory(tmp_path) -> str:
    path = tmp_path / "demo.thy"
    path.write_text(DEMO_THEORY, encoding="utf-8")
    return str(path)
