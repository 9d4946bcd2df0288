"""Tests for the perf gate (tools/perf_gate.py), on fake perfbench output.

No test here starts perfbench: ``perf_gate.perfbench`` is replaced by a
stand-in that prints what ``perfbench/run.py`` prints.
"""

from __future__ import annotations

import json
import re

import pytest

import perf_gate

SPEC = json.loads((perf_gate.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: Calibrated values of a baseline run at factor 0.5.
BASE = {
    "setup_s": 1.0,
    "insert_per_s": 1000.0,
    "insert_us_p50": 100.0,
    "insert_us_p99": 200.0,
    "query_per_s": 1000.0,
    "query_us_p50": 100.0,
    "query_us_p99": 200.0,
    "msgs_per_insert": 7.973333333333334,
    "msgs_per_query": 223.92333333333335,
    "peak_rss_mb": 100.0,
}


def _stdout(factor=0.5, correct=True, failed=0, trace=0, **values):
    """What ``perfbench/run.py`` prints for one run."""
    metrics = {**BASE, **values}
    lines = []
    if trace:
        lines += ["phase  system layer  calls", "timed  pool   fold   1800"]
    lines.append(
        f"w: 3 rounds; times calibrated by a median factor of {factor:.3f} "
        "(reference / host speed)"
    )
    lines += [f"{name:36} {value:14.4f} {UNITS[name]}" for name, value in metrics.items()]
    lines.append(
        json.dumps(
            {
                "correct": correct,
                "attempted": 10,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return "\n".join(lines) + "\n"


def _measured(factor=0.5, **values):
    return perf_gate.measure(SPEC, {**BASE, **values}, factor)


class TestCompare:
    def test_within_bound_passes(self):
        now = _measured(query_per_s=800.0, insert_us_p50=114.0, peak_rss_mb=109.0)
        assert perf_gate.compare(SPEC, _measured(), now) == []

    def test_worse_on_calibrated_and_raw_fails(self):
        problems = perf_gate.compare(SPEC, _measured(), _measured(query_per_s=700.0))
        assert len(problems) == 1
        assert problems[0].startswith("query_per_s: 700 vs 1000")

    def test_calibration_jitter_alone_passes(self):
        # Calibrated throughput fell 30%, but the factor rose with it:
        # raw throughput is flat, so the yardstick moved, not the program.
        now = _measured(factor=0.5 / 0.7, query_per_s=700.0)
        assert now["query_per_s"][1] == pytest.approx(500.0)
        assert perf_gate.compare(SPEC, _measured(), now) == []

    def test_slower_machine_alone_passes(self):
        # Raw times doubled, calibrated ones are flat: the machine moved.
        now = _measured(factor=0.25)
        assert now["setup_s"][1] == 2 * _measured()["setup_s"][1]
        assert perf_gate.compare(SPEC, _measured(), now) == []

    @pytest.mark.parametrize("name", perf_gate.EXACT)
    def test_any_message_count_change_fails(self, name):
        now = _measured(**{name: BASE[name] * (1 + 1e-9)})
        problems = perf_gate.compare(SPEC, _measured(), now)
        assert len(problems) == 1
        assert problems[0].startswith(name) and "must match exactly" in problems[0]

    def test_memory_beyond_its_bound_fails(self):
        problems = perf_gate.compare(SPEC, _measured(), _measured(peak_rss_mb=111.0))
        assert [p.split(":")[0] for p in problems] == ["peak_rss_mb"]

    def test_better_keeps_the_better_calibrated_and_raw_value(self):
        slow = _measured(factor=0.4, query_per_s=600.0, setup_s=2.0)
        fast = _measured(factor=0.5, query_per_s=900.0, setup_s=1.5)
        merged = perf_gate.better(SPEC, slow, fast)
        assert merged["query_per_s"] == (900.0, 450.0)
        assert merged["setup_s"] == (1.5, 3.0)


@pytest.fixture
def history(tmp_path, monkeypatch):
    """A history file with one row recorded from ``BASE`` at factor 0.5."""
    path = tmp_path / "BENCH_perfbench.json"
    row = {
        "label": "t0",
        "commit": "0" * 40,
        "workloads": {
            name: {"speed_factor": 0.5, "metrics": dict(BASE), "layer_table": []}
            for name in WORKLOADS
        },
    }
    payload = {"schema": perf_gate.SCHEMA, "seed": 1, "seconds": 2, "history": [row]}
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(perf_gate, "HISTORY", path)
    return path


def _fake(monkeypatch, outputs):
    """Serve ``outputs`` in turn as perfbench's stdout; returns the calls."""
    calls = []
    pending = iter(outputs)

    def perfbench(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        return next(pending)

    monkeypatch.setattr(perf_gate, "perfbench", perfbench)
    return calls


class TestMain:
    def test_unchanged_run_passes(self, history, monkeypatch, capsys):
        calls = _fake(monkeypatch, [_stdout()] * 3)
        assert perf_gate.main([]) == 0
        assert calls == [(name, 1, 2, 0) for name in WORKLOADS]
        out = capsys.readouterr().out
        assert "perf gate: pass" in out
        # The row predates line counts; the count is shown, never gated.
        assert f"src/ .py lines: {perf_gate.src_lines()} (was not recorded)" in out

    def test_line_count_is_shown_beside_the_newest_rows(self, history, monkeypatch, capsys):
        payload = json.loads(history.read_text())
        payload["history"][-1]["src_lines"] = 1
        history.write_text(json.dumps(payload))
        _fake(monkeypatch, [_stdout()] * 3)
        assert perf_gate.main([]) == 0
        assert f"src/ .py lines: {perf_gate.src_lines()} (was 1)" in capsys.readouterr().out

    def test_regression_fails_after_one_rerun(self, history, monkeypatch, capsys):
        slow = _stdout(query_per_s=700.0)
        calls = _fake(monkeypatch, [slow, slow, _stdout(), _stdout()])
        assert perf_gate.main([]) == 1
        assert [call[0] for call in calls] == [WORKLOADS[0], *WORKLOADS]
        out = capsys.readouterr().out
        assert f"{WORKLOADS[0]}: suspect, rerunning" in out
        assert f"FAIL {WORKLOADS[0]}: query_per_s" in out

    def test_retry_keeps_the_better_value(self, history, monkeypatch, capsys):
        first, second = _stdout(query_per_s=700.0), _stdout(query_per_s=990.0)
        _fake(monkeypatch, [first, second, _stdout(), _stdout()])
        assert perf_gate.main([]) == 0
        out = capsys.readouterr().out
        assert re.search(rf"{WORKLOADS[0]} +query_per_s +990\.0000 ", out)
        assert "FAIL" not in out

    def test_message_count_change_fails(self, history, monkeypatch, capsys):
        changed = _stdout(msgs_per_query=224.0)
        _fake(monkeypatch, [changed] * 6)
        assert perf_gate.main([]) == 1
        assert "msgs_per_query: 224 vs 223.923" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "wrong", [{"correct": False, "failed": 1}, {"correct": True, "failed": 2}]
    )
    def test_wrong_answers_fail_without_a_rerun(self, history, monkeypatch, capsys, wrong):
        calls = _fake(monkeypatch, [_stdout(**wrong), _stdout(), _stdout()])
        assert perf_gate.main([]) == 1
        assert len(calls) == 3
        assert f"FAIL {WORKLOADS[0]}: correct={wrong['correct']}" in capsys.readouterr().out

    def test_crashed_run_fails(self, history, monkeypatch):
        _fake(monkeypatch, ["Traceback (most recent call last):\n"] + [_stdout()] * 2)
        assert perf_gate.main([]) == 1

    def test_empty_history_is_refused(self, history, monkeypatch):
        payload = json.loads(history.read_text())
        history.write_text(json.dumps({**payload, "history": []}))
        calls = _fake(monkeypatch, [])
        with pytest.raises(SystemExit, match="no history row"):
            perf_gate.main([])
        assert calls == []

    def test_bad_schema_is_rejected(self, history):
        history.write_text('{"schema": "nope", "history": []}')
        with pytest.raises(ValueError, match="schema"):
            perf_gate.main([])

    def test_record_appends_a_row_and_keeps_earlier_ones(self, history, monkeypatch):
        before = json.loads(history.read_text())
        calls = _fake(
            monkeypatch,
            [_stdout(factor=0.25, query_per_s=1200.0), _stdout(trace=1)] * 3,
        )
        assert perf_gate.main(["--record", "t1"]) == 0
        assert [call[3] for call in calls] == [0, 1] * 3
        after = json.loads(history.read_text())
        assert after["history"][0] == before["history"][0]
        assert {k: after[k] for k in ("schema", "seed", "seconds")} == {
            k: before[k] for k in ("schema", "seed", "seconds")
        }
        row = after["history"][1]
        assert row["label"] == "t1" and row["commit"]
        assert row["src_lines"] == perf_gate.src_lines() > 0
        entry = row["workloads"][WORKLOADS[0]]
        assert entry["speed_factor"] == 0.25
        assert entry["metrics"] == {**BASE, "query_per_s": 1200.0}
        assert entry["layer_table"] == ["phase  system layer  calls", "timed  pool   fold   1800"]

    def test_record_refuses_a_wrong_run(self, history, monkeypatch):
        before = history.read_text()
        _fake(monkeypatch, [_stdout(correct=False, failed=1), _stdout(trace=1)])
        with pytest.raises(SystemExit, match="nothing recorded"):
            perf_gate.main(["--record", "t1"])
        assert history.read_text() == before


def test_committed_history_is_valid():
    """results/BENCH_perfbench.json has a row for every workload and metric."""
    payload = perf_gate.load(perf_gate.HISTORY)
    assert payload["history"], "the gate needs a baseline row"
    for row in payload["history"]:
        assert row["label"] and row["commit"]
        assert set(row["workloads"]) == set(WORKLOADS)
        for entry in row["workloads"].values():
            assert set(entry["metrics"]) == set(UNITS)
            assert entry["speed_factor"] > 0
            assert entry["layer_table"][-1].split()[2] == "residual"
