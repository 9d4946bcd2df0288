"""Determinism matrix: every CLI artifact is a pure function of the seed.

Each scenario is one ``pool-bench`` command line, run in-process through
:func:`repro.bench.cli.main` and crossed with the axes that apply to it:

* ``rerun``  — the same command twice;
* ``jobs``   — ``--jobs 1`` vs ``--jobs 2`` over at least two (size, trial)
  cells, so the parallel merge really combines worker results.

Every artifact compares byte for byte: the telemetry JSONL, the serve SLO
report and the chaos fault plan as written, and the results JSON with each
row's wall-clock ``timings`` dropped.  Each (scenario, variant) runs once
per module; the per-scenario checks at the bottom read the same captures.

To add a scenario, add a :class:`Scenario` to ``SCENARIOS`` with its
command line and the axes it supports (``serve`` does not take
``--jobs``), then put any scenario-specific assertions in a test
that reads ``capture(name)``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.bench.cli import main as bench_main
from repro.obs.diff import main as diff_main
from repro.obs.flame import main as flame_main
from repro.serve.chaos import _main as chaos_main
from repro.telemetry.export import read_telemetry_jsonl

ALL_AXES = ("rerun", "jobs")

#: Extra flags per run variant; ``base`` is the reference every axis
#: compares against (``--jobs 1``).
VARIANTS: dict[str, tuple[str, ...]] = {
    "base": (),
    "rerun": (),
    "jobs": ("--jobs", "2"),
}


@dataclass(frozen=True)
class Scenario:
    argv: tuple[str, ...]
    axes: tuple[str, ...]
    #: ``python -m repro.serve.chaos`` flags; when set, each run writes
    #: its own plan and serves under it with ``--fault-plan``.
    chaos_plan: tuple[str, ...] = ()


_FIG7A = ("fig7a", "--scale", "0.1", "--trials", "2", "--quiet")

SCENARIOS: dict[str, Scenario] = {
    "fig7a": Scenario(_FIG7A, ALL_AXES),
    "fig7a-lossy": Scenario((*_FIG7A, "--loss-rate", "0.2"), ALL_AXES),
    "fig7a-flight": Scenario((*_FIG7A, "--flight-recorder"), ALL_AXES),
    "serve": Scenario(
        (
            "serve", "--size", "120", "--duration", "20", "--rate", "3",
            "--pattern", "bursts", "--quiet",
        ),
        ("rerun",),
    ),
    "serve-chaos": Scenario(
        (
            "serve", "--size", "100", "--duration", "20", "--rate", "6",
            "--pattern", "bursts", "--systems", "pool", "--quiet",
            "--loss-rate", "0.08",
            "--chaos-deaths", "2", "--chaos-degradations", "1",
            "--queue-capacity", "4", "--deadline", "0.2",
            "--retry-budget", "8", "--breaker-threshold", "3",
        ),
        ("rerun",),
        chaos_plan=(
            "--seed", "7", "--nodes", "100", "--deaths", "0",
            "--degradations", "2", "--extra-loss", "0.3",
        ),
    ),
}


def _having(axis: str) -> list[str]:
    return [name for name, scenario in SCENARIOS.items() if axis in scenario.axes]


def _quietly(entry: Callable[[list[str]], int], argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return entry(argv)


def _records(run: Path) -> list[dict[str, Any]]:
    return read_telemetry_jsonl(run / "telemetry.jsonl")[1]


def _rows(run: Path) -> list[dict[str, Any]]:
    """Results-export rows without their wall-clock ``timings``."""
    payload = json.loads((run / "results.json").read_text(encoding="utf-8"))
    return [
        {key: value for key, value in row.items() if key != "timings"}
        for result in payload
        for row in result["rows"]
    ]


def _artifacts(run: Path) -> dict[str, bytes]:
    """Every file one run wrote, as the bytes the axes compare."""
    out: dict[str, bytes] = {}
    for path in sorted(run.iterdir()):
        if path.name == "results.json":
            out[path.name] = json.dumps(_rows(run), sort_keys=True).encode()
        else:
            out[path.name] = path.read_bytes()
    return out


def _assert_identical(left: Path, right: Path) -> None:
    ours, theirs = _artifacts(left), _artifacts(right)
    assert sorted(ours) == sorted(theirs)
    differing = [name for name in ours if ours[name] != theirs[name]]
    assert not differing, f"{left.name} vs {right.name}: {differing} differ"


@pytest.fixture(scope="module")
def capture(tmp_path_factory: pytest.TempPathFactory) -> Callable[..., Path]:
    """``capture(name, variant)`` -> the directory of that run's artifacts."""
    root = tmp_path_factory.mktemp("determinism")
    runs: dict[tuple[str, str], Path] = {}

    def run(name: str, variant: str = "base") -> Path:
        if (name, variant) in runs:
            return runs[(name, variant)]
        scenario = SCENARIOS[name]
        out = root / f"{name}-{variant}"
        out.mkdir()
        argv = [*scenario.argv, *VARIANTS[variant]]
        if scenario.chaos_plan:
            plan = out / "plan.json"
            assert _quietly(chaos_main, [*scenario.chaos_plan, "--out", str(plan)]) == 0
            argv += ["--fault-plan", str(plan)]
        report = ("--slo-report", "slo.json") if argv[0] == "serve" else ("--json", "results.json")
        argv += [report[0], str(out / report[1]), "--telemetry", str(out / "telemetry.jsonl")]
        assert _quietly(bench_main, argv) == 0
        if variant == "jobs":
            # One cell would leave jobs=2 nothing to merge.
            cells = {(record["size"], record["trial"]) for record in _records(out)}
            assert len(cells) >= 2, cells
        runs[(name, variant)] = out
        return out

    return run


# --------------------------------------------------------------------------- #
# The axes                                                                    #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", _having("rerun"))
def test_rerun_is_byte_identical(capture, name):
    _assert_identical(capture(name), capture(name, "rerun"))


@pytest.mark.parametrize("name", _having("jobs"))
def test_jobs_2_equals_jobs_1(capture, name):
    _assert_identical(capture(name), capture(name, "jobs"))


# --------------------------------------------------------------------------- #
# What each scenario must show besides determinism                            #
# --------------------------------------------------------------------------- #


def test_lossless_capture_carries_no_reliability_keys(capture):
    run = capture("fig7a")
    for row in _rows(run):
        assert "mean_completeness" not in row, row
        assert "attempted_messages" not in row, row
    header, records = read_telemetry_jsonl(run / "telemetry.jsonl")
    assert header["schema"] == "telemetry/2", header
    assert records and all("reliability" not in record for record in records)


def test_lossy_run_reports_completeness_and_retransmissions(capture):
    run = capture("fig7a-lossy")
    for row in _rows(run):
        assert 0.0 <= row["mean_completeness"] <= 1.0, row
        assert row["delivered_messages"] <= row["attempted_messages"], row
    header, records = read_telemetry_jsonl(run / "telemetry.jsonl")
    assert header["schema"] == "telemetry/2", header
    assert records and all("reliability" in record for record in records)
    assert any(record["reliability"]["retransmissions"] for record in records)


def test_flight_capture_feeds_the_obs_tools(capture, tmp_path):
    path = str(capture("fig7a-flight") / "telemetry.jsonl")
    trace, scope = tmp_path / "obs.trace.json", tmp_path / "obs.speedscope.json"
    assert flame_main([path, "--trace", str(trace), "--speedscope", str(scope)]) == 0
    events = json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]
    assert any(event.get("ph") == "X" for event in events)
    assert json.loads(scope.read_text(encoding="utf-8"))["profiles"]
    assert diff_main([path, path]) == 0  # a capture diffs clean against itself
    assert bench_main(["report", path, "--percentiles"]) == 0


def test_serve_cache_hits_and_beats_control(capture):
    run = capture("serve")
    header, records = read_telemetry_jsonl(run / "telemetry.jsonl")
    assert header["schema"] == "telemetry/2", header
    assert header["mode"] == "serve", header
    assert records, "no serve telemetry captured"
    report = json.loads((run / "slo.json").read_text(encoding="utf-8"))
    assert report["schema"] == "serve-run/1", report["schema"]
    assert report["rows"], "no systems served"
    for row in report["rows"]:
        cached, control = row["cached"], row["control"]
        assert cached["hit_rate"] > 0.0, row["system"]
        assert cached["messages_total"] < control["messages_total"], row["system"]
        assert 0.0 <= cached["slo_attainment"] <= 1.0, row["system"]


def test_serve_chaos_fires_every_degradation_mode(capture):
    report = json.loads(
        (capture("serve-chaos") / "slo.json").read_text(encoding="utf-8")
    )
    assert report["schema"] == "serve-run/2", report["schema"]
    assert report["conditions"]["loss_rate"] == 0.08
    assert report["conditions"]["chaos"]["deaths"] == 2
    assert report["rows"], "no systems served"
    for row in report["rows"]:
        cached, name = row["cached"], row["system"]
        # Overload and faults actually bit, yet useful work got through.
        assert cached["shed"] > 0, name
        assert cached["timeouts"] > 0, name
        assert cached["partial"] > 0, name
        assert 0.0 < cached["goodput"] < 1.0, name
        assert cached["policy"]["queue_capacity"] == 4, name
