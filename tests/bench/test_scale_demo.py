"""Tests for the 10⁴-node scale demo entry point (repro.bench.scale_demo)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import scale_demo

DEMO = {
    "size": 10_000,
    "budget_seconds": 5.0,
    "seconds": 3.0,
    "under_budget": True,
}


def test_main_writes_the_record(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(scale_demo, "run_scale_demo", lambda: DEMO)
    assert scale_demo.main() == 0
    assert json.loads((tmp_path / scale_demo.RECORD_PATH).read_text()) == DEMO
    assert "3.00s vs budget 5.00s (UNDER budget)" in capsys.readouterr().out


def test_committed_record_is_valid():
    """results/BENCH_scale_demo.json is >=10x the paper's size and under budget."""
    path = Path(__file__).resolve().parents[2] / scale_demo.RECORD_PATH
    demo = json.loads(path.read_text())
    assert demo["size"] >= 9000, "scale demo must be >=10x the 900-node max"
    assert demo["budget_seconds"] == scale_demo.BUDGET_SECONDS
    assert demo["seconds"] < demo["budget_seconds"]
