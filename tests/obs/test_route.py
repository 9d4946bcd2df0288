"""Route replay over flight-recorder captures."""

from __future__ import annotations

from repro.obs.route import main, render_replay, replay_packet
from repro.telemetry.export import write_telemetry_jsonl


def _record(system="pool", events=()):
    return {
        "kind": "system",
        "experiment": "fig6a",
        "size": 100,
        "trial": 0,
        "system": system,
        "spans": [],
        "flight_recorder": {
            "capacity": 64,
            "packets": 2,
            "dropped": 0,
            "events": list(events),
        },
    }


_DELIVERED = (
    {"pid": 0, "seq": 0, "kind": "send", "src": 1, "dst": 9, "info": "insert"},
    {"pid": 0, "seq": 1, "kind": "hop", "src": 1, "dst": 4, "info": "greedy"},
    {"pid": 0, "seq": 2, "kind": "hop", "src": 4, "dst": 9, "info": "perimeter"},
    {"pid": 1, "seq": 3, "kind": "send", "src": 2, "dst": 7, "info": "query"},
)

_FAILED = (
    {"pid": 0, "seq": 0, "kind": "send", "src": 1, "dst": 9, "info": "insert"},
    {"pid": 0, "seq": 1, "kind": "loss", "src": 1, "dst": 4, "info": 0},
    {"pid": 0, "seq": 2, "kind": "retransmit", "src": 1, "dst": 4, "info": 1},
    {"pid": 0, "seq": 3, "kind": "failed", "src": 1, "dst": 4},
)


class TestReplayPacket:
    def test_filters_and_orders_by_seq(self):
        record = _record(events=reversed(_DELIVERED))
        events = replay_packet(record, 0)
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert all(e["pid"] == 0 for e in events)

    def test_record_without_ring_is_empty(self):
        assert replay_packet({"system": "pool"}, 0) == []


class TestRender:
    def test_delivered_trace(self):
        record = _record(events=_DELIVERED)
        text = render_replay(record, replay_packet(record, 0))
        assert "send 1 -> 9" in text
        assert "[greedy]" in text and "[perimeter]" in text
        assert "status: delivered" in text

    def test_failed_trace(self):
        record = _record(events=_FAILED)
        text = render_replay(record, replay_packet(record, 0))
        assert "loss" in text and "retx" in text and "FAIL" in text
        assert "status: undelivered" in text

    def test_tree_packet_fans_out_from_its_root(self):
        tree = (
            {"pid": 0, "seq": 0, "kind": "send", "src": 3, "dst": 3, "info": "query_forward"},
            {"pid": 0, "seq": 1, "kind": "hop", "src": 3, "dst": 5},
            {"pid": 0, "seq": 2, "kind": "hop", "src": 3, "dst": 8},
        )
        record = _record(events=tree)
        text = render_replay(record, replay_packet(record, 0))
        assert "hop  3 -> 8  [?]" in text
        assert "status: delivered" in text
        record = _record(events=tree[:1])
        assert "status: incomplete trace" in render_replay(record, replay_packet(record, 0))

    def test_incomplete_trace(self):
        record = _record(events=_DELIVERED[:2])
        text = render_replay(record, replay_packet(record, 0))
        assert "status: incomplete trace" in text


class TestCli:
    def _capture(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        write_telemetry_jsonl(
            path,
            [_record("pool", _DELIVERED), _record("dim", _FAILED)],
            seed=0,
        )
        return path

    def test_replays_across_systems(self, tmp_path, capsys):
        assert main([str(self._capture(tmp_path)), "0"]) == 0
        out = capsys.readouterr().out
        assert "system=pool" in out and "system=dim" in out

    def test_system_filter(self, tmp_path, capsys):
        assert main([str(self._capture(tmp_path)), "0", "--system", "dim"]) == 0
        out = capsys.readouterr().out
        assert "system=dim" in out and "system=pool" not in out

    def test_unknown_pid_exits_one(self, tmp_path, capsys):
        assert main([str(self._capture(tmp_path)), "99"]) == 1
        assert "not found" in capsys.readouterr().err
