"""Smoke tests: every shipped example must run to completion."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "paper_walkthrough.py",
    "event_driven_simulation.py",
]
SLOW_EXAMPLES = [
    "quickstart.py",
    "hotspot_sharing.py",
    "environmental_monitoring.py",
    "advanced_queries.py",
    "failure_recovery.py",
]


def _run(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    result = _run(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("name", SLOW_EXAMPLES)
def test_slow_example_runs(name):
    result = _run(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_examples_directory_is_complete():
    shipped = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert shipped == set(FAST_EXAMPLES) | set(SLOW_EXAMPLES)


def test_walkthrough_prints_paper_cells():
    result = _run("paper_walkthrough.py")
    # The Figure 4/5 relevant cells from the paper must appear verbatim.
    for cell in ("C(2,5)", "C(3,12)", "C(3,13)", "C(5,6)", "C(6,14)", "C(11,7)"):
        assert cell in result.stdout
