"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import workloads
from measure import CheckFailed, percentile
from repro.core.system import PoolSystem
from repro.dim.index import DimIndex
from repro.serve.cache import PlanResultCache

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Small enough for seconds per run, large enough that every p99 keeps
#: ten samples beyond it over the minimum three rounds.
TINY = {
    "query-fig7": workloads.QueryFig7(
        nodes=100, queries=360, warmup_queries=9, check_every=20
    ),
    "ingest-3000": workloads.Ingest3000(nodes=120, queries=180, check_every=20),
    "serve-diurnal-rw": workloads.ServeDiurnalRW(
        nodes=100, duration_s=240.0, rate=10.0, check_every_windows=10
    ),
}


def _units(entries: list[dict[str, str]]) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name: str) -> None:
    assert name in {entry["name"] for entry in SPEC["workloads"]}
    end_to_end = workloads.run(TINY[name], seed=3, seconds=0.0, trace=False)
    assert {k: u for k, (_, u) in end_to_end.metrics.items()} == _units(
        SPEC["end_to_end"]
    )
    assert all(value > 0 for value, _ in end_to_end.metrics.values())
    assert end_to_end.failed == 0 and end_to_end.attempted > 0
    per_layer = workloads.run(TINY[name], seed=3, seconds=0.0, trace=True)
    assert {k: u for k, (_, u) in per_layer.metrics.items()} == _units(
        SPEC["per_layer"]
    )
    assert per_layer.layer_table[-1].split()[2] == "residual"


def test_same_seed_gives_identical_message_counts() -> None:
    spec = TINY["serve-diurnal-rw"]
    first = workloads.run(spec, seed=5, seconds=0.0, trace=False).metrics
    second = workloads.run(spec, seed=5, seconds=0.0, trace=False).metrics
    for name in ("msgs_per_insert", "msgs_per_query"):
        assert first[name] == second[name]


def test_corrupted_answer_fails_the_check(monkeypatch: pytest.MonkeyPatch) -> None:
    fold = PoolSystem.fold_replies

    def drop_one(self, plan, execution):  # type: ignore[no-untyped-def]
        result = fold(self, plan, execution)
        del result.events[-1:]
        return result

    monkeypatch.setattr(PoolSystem, "fold_replies", drop_one)
    with pytest.raises(CheckFailed, match="brute force"):
        workloads.run(TINY["query-fig7"], seed=3, seconds=0.0, trace=False)


def test_misreported_insert_cost_fails_the_ledger_check(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    insert = DimIndex.insert

    def undercount(self, event, source=None):  # type: ignore[no-untyped-def]
        receipt = insert(self, event, source)
        return replace(receipt, hops=max(receipt.hops - 1, 0))

    monkeypatch.setattr(DimIndex, "insert", undercount)
    with pytest.raises(CheckFailed, match="ledger"):
        workloads.run(TINY["ingest-3000"], seed=3, seconds=0.0, trace=False)


def test_stale_cache_hit_fails_the_check(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(PlanResultCache, "invalidate_cell", lambda self, cell: 0)
    with pytest.raises(CheckFailed, match="serve"):
        workloads.run(TINY["serve-diurnal-rw"], seed=3, seconds=0.0, trace=False)


def test_percentile_needs_ten_samples_beyond() -> None:
    assert percentile([float(i) for i in range(1, 1011)], 0.99) == 1000.0
    assert percentile([float(i) for i in range(1000)], 0.99) == 989.0
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(999)], 0.99)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "query-fig7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
