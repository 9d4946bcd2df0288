"""Tests for the serving-layer benchmark and its CLI surface."""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.cli import build_parser, main
from repro.bench.serve_bench import SERVE_SYSTEMS, run_chaos_baseline, run_serve

FAST = dict(size=100, duration=10.0, rate=2.0, systems=("pool", "external"))
CHAOS_BASELINE = (
    Path(__file__).resolve().parents[2] / "results" / "BENCH_serve_chaos.json"
)


class TestRunServe:
    def test_cached_beats_control_on_repeated_traffic(self):
        outcome = run_serve(seed=3, **FAST)
        assert [row.system for row in outcome.rows] == ["pool", "external"]
        for row in outcome.rows:
            assert row.cached.hit_rate > 0.0
            assert row.cached.messages_total < row.control.messages_total
            assert row.messages_saved > 0
            # Both configurations served the whole schedule.
            assert row.cached.requests == row.control.requests == outcome.requests

    def test_telemetry_records_one_per_system_and_mode(self):
        outcome = run_serve(seed=3, telemetry=True, **FAST)
        labels = [record["system"] for record in outcome.telemetry]
        assert labels == [
            "pool:cached",
            "pool:control",
            "external:cached",
            "external:control",
        ]

    def test_default_systems_are_the_range_query_five(self):
        assert SERVE_SYSTEMS == ("pool", "dim", "difs", "flooding", "external")


class TestServeCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.experiment == "serve"
        assert args.pattern == "poisson"
        assert args.batch_window == 0.2
        assert args.slo_report is None

    def test_serve_prints_table_and_writes_artifacts(self, tmp_path, capsys):
        report_path = tmp_path / "slo.json"
        telemetry_path = tmp_path / "serve.jsonl"
        code = main(
            [
                "serve",
                "--size", "100",
                "--duration", "10",
                "--systems", "pool",
                "--quiet",
                "--slo-report", str(report_path),
                "--telemetry", str(telemetry_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit%" in out and "uncached" in out and "pool" in out
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "serve-run/1"
        (row,) = payload["rows"]
        assert row["system"] == "pool"
        assert row["cached"]["cache_hits"] > 0
        assert row["messages_saved"] > 0
        assert telemetry_path.is_file()

    def test_bad_pattern_is_rejected_by_argparse(self, capsys):
        try:
            build_parser().parse_args(["serve", "--pattern", "lunar"])
        except SystemExit as stop:
            assert stop.code == 2
        else:  # pragma: no cover - argparse always exits
            raise AssertionError("expected SystemExit")

    def test_bad_serve_parameters_fail_cleanly(self, capsys):
        assert main(["serve", "--duration", "0", "--quiet"]) == 2
        assert "serve:" in capsys.readouterr().err


class TestChaosBaseline:
    def test_checked_in_baseline_regenerates_exactly(self):
        """results/BENCH_serve_chaos.json is a pure function of seed 0.

        Regenerating must reproduce the committed file byte-for-byte;
        a mismatch means the serving layer's behavior under overload
        drifted and the baseline (or the code) needs a deliberate bump.
        """
        expected = json.loads(CHAOS_BASELINE.read_text(encoding="utf-8"))
        assert run_chaos_baseline(seed=0) == expected

    def test_baseline_exercises_every_degradation_mode(self):
        payload = json.loads(CHAOS_BASELINE.read_text(encoding="utf-8"))
        assert payload["schema"] == "bench-serve-chaos/1"
        assert sorted(payload["policies"]) == [
            "drop-oldest", "drop-tail", "priority-by-sink"
        ]
        for name, policy in payload["policies"].items():
            assert policy["shed_rate"] > 0.0, name
            assert policy["timeout_rate"] > 0.0, name
            assert policy["partial"] > 0, name
            assert 0.0 < policy["goodput"] < 1.0, name

    def test_chaos_baseline_cli_writes_the_file(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(["serve", "--quiet", "--chaos-baseline", str(out)])
        assert code == 0
        assert "serve-chaos baseline written" in capsys.readouterr().err
        written = json.loads(out.read_text(encoding="utf-8"))
        assert written["schema"] == "bench-serve-chaos/1"
        # The CLI regenerates the committed baseline byte for byte.
        assert out.read_bytes() == CHAOS_BASELINE.read_bytes()
