"""Flamegraph export: valid Chrome trace / speedscope geometry."""

from __future__ import annotations

import json

from repro.obs.flame import chrome_trace, main, speedscope_document
from repro.telemetry.export import write_telemetry_jsonl


def _record(system="pool", trial=0, messages=10):
    return {
        "kind": "system",
        "experiment": "fig6a",
        "size": 100,
        "trial": trial,
        "system": system,
        "spans": [
            {
                "name": "range-query",
                "phase": "query",
                "system": system,
                "messages": messages,
                "children": [
                    {
                        "name": "fanout",
                        "phase": "query",
                        "system": system,
                        "messages": messages - 4,
                        "children": [],
                    },
                ],
            }
        ],
    }


def _pool_query_record():
    """A Pool query as captured: a zero-cost resolve leaf before the fan-out."""
    record = _record()
    record["spans"] = [
        {
            "name": "query",
            "phase": "query",
            "system": "pool",
            "messages": 10,
            "children": [
                {"name": "resolve", "phase": "resolve", "messages": 0},
                {"name": "pool-fanout", "phase": "forward", "messages": 10},
            ],
        }
    ]
    return record


class TestZeroCostLeavesNest:
    def test_chrome_parent_covers_every_child(self):
        doc = chrome_trace([_pool_query_record()])
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        query, resolve, fanout = (spans[n] for n in ("query", "resolve", "pool-fanout"))
        assert (resolve["ts"], resolve["dur"]) == (0, 1)
        assert (fanout["ts"], fanout["dur"]) == (1, 10)
        assert (query["ts"], query["dur"]) == (0, 11)
        assert query["args"]["total_wu"] == 10  # work units stay the ledger's

    def test_speedscope_events_in_time_order_and_nested(self):
        doc = speedscope_document([_pool_query_record()])
        (profile,) = doc["profiles"]
        events = profile["events"]
        ats = [e["at"] for e in events]
        assert ats == sorted(ats)
        stack = []
        for event in events:
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert stack.pop() == event["frame"]
        assert not stack
        assert profile["endValue"] == 11


class TestChromeTrace:
    def test_events_are_complete_events_in_work_units(self):
        doc = chrome_trace([_record()])
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in spans] == ["range-query", "fanout"]
        root, child = spans
        assert (root["ts"], root["dur"]) == (0, 10)
        assert (child["ts"], child["dur"]) == (0, 6)
        # Child nests inside the parent interval.
        assert child["ts"] >= root["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"]
        assert root["args"]["self_wu"] == 4

    def test_cells_get_processes_systems_get_threads(self):
        doc = chrome_trace([_record("pool"), _record("dim"), _record("pool", trial=1)])
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in spans}
        tids = {e["tid"] for e in spans}
        assert len(pids) == 2  # two (experiment, size, trial) cells
        assert len(tids) == 2  # two systems
        names = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in names} == {"process_name", "thread_name"}

    def test_document_is_deterministic(self):
        records = [_record("pool"), _record("dim")]
        a = json.dumps(chrome_trace(records), sort_keys=True)
        b = json.dumps(chrome_trace(list(records)), sort_keys=True)
        assert a == b


class TestSpeedscope:
    def test_profiles_balance_open_close(self):
        doc = speedscope_document([_record()])
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        (profile,) = doc["profiles"]
        opens = [e for e in profile["events"] if e["type"] == "O"]
        closes = [e for e in profile["events"] if e["type"] == "C"]
        assert len(opens) == len(closes) == 2
        assert profile["endValue"] == 10
        labels = [f["name"] for f in doc["shared"]["frames"]]
        assert labels == ["query:range-query", "query:fanout"]

    def test_empty_records_skipped(self):
        record = dict(_record(), spans=[])
        assert speedscope_document([record])["profiles"] == []


class TestCli:
    def test_main_writes_parseable_documents(self, tmp_path, capsys):
        capture = tmp_path / "capture.jsonl"
        write_telemetry_jsonl(capture, [_record()], seed=0)
        assert main([str(capture)]) == 0
        trace = json.loads((tmp_path / "capture.trace.json").read_text())
        speedscope = json.loads((tmp_path / "capture.speedscope.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        assert speedscope["profiles"]
        out = capsys.readouterr().out
        assert "chrome trace written" in out

    def test_explicit_output_paths(self, tmp_path):
        capture = tmp_path / "c.jsonl"
        write_telemetry_jsonl(capture, [_record()], seed=0)
        trace = tmp_path / "t.json"
        speedscope = tmp_path / "s.json"
        assert main(
            [str(capture), "--trace", str(trace), "--speedscope", str(speedscope)]
        ) == 0
        assert trace.is_file() and speedscope.is_file()
