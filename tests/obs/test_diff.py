"""Capture diff: self-diff is clean, injected slowdowns are attributed."""

from __future__ import annotations

import copy
import json

from repro.obs.diff import align_records, diff_records, main, render_verdict
from repro.telemetry.export import write_telemetry_jsonl


def _record(system="pool", trial=0, fanout_wu=40, reply_wu=12):
    total = fanout_wu + reply_wu + 2
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
                "messages": total,
                "children": [
                    {
                        "name": "fanout",
                        "phase": "query",
                        "system": system,
                        "messages": fanout_wu,
                        "children": [],
                    },
                    {
                        "name": "reply",
                        "phase": "query",
                        "system": system,
                        "messages": reply_wu,
                        "children": [],
                    },
                ],
            }
        ],
    }


class TestAlign:
    def test_pairs_by_cell_slice_key(self):
        base = [_record("pool"), _record("dim")]
        cand = [_record("dim"), _record("pool", trial=1)]
        pairs, only_base, only_cand = align_records(base, cand)
        assert [key[3] for key, _, _ in pairs] == ["dim"]
        assert [key[3] for key in only_base] == ["pool"]
        assert [key[2] for key in only_cand] == [1]


class TestDiffRecords:
    def test_capture_against_itself_is_clean(self):
        records = [_record("pool"), _record("dim")]
        verdict = diff_records(records, copy.deepcopy(records))
        assert verdict["clean"] is True
        assert verdict["regressions"] == []
        assert verdict["aligned_records"] == 2
        assert "no subtree regressed" in render_verdict(verdict)

    def test_injected_slowdown_attributed_to_the_guilty_subtree(self):
        # Double one span kind's self cost; the diff must name exactly
        # that subtree, not the (also-grown) parent totals.
        baseline = [_record(fanout_wu=40)]
        candidate = [_record(fanout_wu=80)]
        verdict = diff_records(baseline, candidate)
        assert verdict["clean"] is False
        guilty = verdict["regressions"][0]
        assert guilty["path"] == "range-query/fanout"
        assert guilty["metric"] == "self_wu"
        assert (guilty["baseline"], guilty["candidate"]) == (40, 80)
        assert guilty["ratio"] == 2.0
        text = render_verdict(verdict)
        assert "guiltiest subtree" in text and "range-query/fanout" in text
        # The untouched sibling must not be blamed.
        assert all(r["path"] != "range-query/reply" for r in verdict["regressions"])

    def test_small_deltas_are_noise_not_regressions(self):
        verdict = diff_records([_record(fanout_wu=2)], [_record(fanout_wu=4)])
        assert all(
            r["path"] != "range-query/fanout" for r in verdict["regressions"]
        )

    def test_subtree_only_in_the_candidate_regresses_from_zero(self):
        def with_retry(retry_wu):
            record = _record()
            root = record["spans"][0]
            root["messages"] += retry_wu
            root["children"].append(
                {
                    "name": "retry",
                    "phase": "query",
                    "system": "pool",
                    "messages": retry_wu,
                    "children": [],
                }
            )
            return record

        verdict = diff_records([_record()], [with_retry(500)])
        assert verdict["clean"] is False
        [guilty] = verdict["regressions"]
        assert guilty["path"] == "range-query/retry"
        assert (guilty["baseline"], guilty["candidate"]) == (0, 500)
        assert guilty["ratio"] is None
        assert "range-query/retry (self_wu 0.0 -> 500.0)" in render_verdict(verdict)
        # Below MIN_WU_DELTA a new subtree is noise, like any small delta.
        assert diff_records([_record()], [with_retry(3)])["clean"] is True

    def test_record_set_mismatch_is_not_clean(self):
        verdict = diff_records([_record("pool"), _record("dim")], [_record("pool")])
        assert verdict["clean"] is False
        assert verdict["regressions"] == []
        assert len(verdict["only_in_baseline"]) == 1


class TestCli:
    def _write(self, tmp_path, name, records):
        path = tmp_path / name
        write_telemetry_jsonl(path, records, seed=0)
        return path

    def test_self_diff_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "a.jsonl", [_record()])
        assert main([str(path), str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_regression_exits_one_and_writes_verdict(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.jsonl", [_record(fanout_wu=40)])
        cand = self._write(tmp_path, "cand.jsonl", [_record(fanout_wu=90)])
        verdict_path = tmp_path / "verdict.json"
        assert main([str(base), str(cand), "--json", str(verdict_path)]) == 1
        verdict = json.loads(verdict_path.read_text())
        assert verdict["schema"] == "obs-diff/1"
        assert verdict["regressions"][0]["path"] == "range-query/fanout"
        assert "guiltiest subtree" in capsys.readouterr().out

    def test_threshold_must_exceed_one(self, tmp_path, capsys):
        path = self._write(tmp_path, "a.jsonl", [_record()])
        assert main([str(path), str(path), "--threshold", "0.9"]) == 2
        assert "threshold" in capsys.readouterr().err
