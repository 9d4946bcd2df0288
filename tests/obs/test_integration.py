"""Flight recorder through the harness and CLI: shape and zero cost.

With the recorder off, captures are byte-identical to a build that
predates it.  That the ring itself is byte-identical across reruns and
``--jobs`` is checked by the ``fig7a-flight`` row of
``tests/integration/test_determinism.py``.
"""

from __future__ import annotations

from repro.bench.cli import main
from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import QueryWorkload


def _config(**overrides) -> ExperimentConfig:
    defaults = dict(
        name="fr",
        title="flight recorder probe",
        network_sizes=(100,),
        systems=("pool", "dim"),
        query_workloads=(
            QueryWorkload(dimensions=3, kind="exact", range_sizes="exponential"),
        ),
        query_count=3,
        trials=1,
        flight_recorder=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _strip_flight(records):
    return [
        {key: value for key, value in record.items() if key != "flight_recorder"}
        for record in records
    ]


class TestFlightRecorderHarness:
    def test_off_by_default_and_absent_from_records(self):
        result = run_experiment(
            _config(flight_recorder=False), seed=3, telemetry=True
        )
        assert all("flight_recorder" not in r for r in result.telemetry)

    def test_ring_recorded_per_system(self):
        result = run_experiment(_config(), seed=3, telemetry=True)
        for record in result.telemetry:
            ring = record["flight_recorder"]
            assert ring["packets"] > 0
            assert ring["events"], record["system"]
            kinds = {event["kind"] for event in ring["events"]}
            assert "send" in kinds and "hop" in kinds
            # Hop events carry the GPSR mode.
            modes = {
                event["info"]
                for event in ring["events"]
                if event["kind"] == "hop" and "info" in event
            }
            assert modes <= {"greedy", "perimeter"}

    def test_zero_cost_when_off(self):
        """On-capture minus the ring block == off-capture, byte for byte."""
        on = run_experiment(_config(), seed=3, telemetry=True)
        off = run_experiment(
            _config(flight_recorder=False), seed=3, telemetry=True
        )
        assert _strip_flight(on.telemetry) == off.telemetry


class TestFlightRecorderCli:
    def test_flag_requires_telemetry(self, capsys):
        assert main(["fig6a", "--flight-recorder"]) == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_capture_and_replay(self, tmp_path, capsys):
        out = tmp_path / "fr.jsonl"
        code = main(
            [
                "fig7a",
                "--scale",
                "0.1",
                "--trials",
                "1",
                "--quiet",
                "--telemetry",
                str(out),
                "--flight-recorder",
            ]
        )
        assert code == 0
        capsys.readouterr()
        from repro.obs.route import main as route_main

        assert route_main([str(out), "0"]) == 0
        assert "send" in capsys.readouterr().out
