"""Pinned schema fixture: telemetry/2 is the one read and written
format, and it round-trips byte-for-byte.

The fixture file is a committed artifact — regenerating it is an
explicit schema-evolution act, so an accidental change to the writer or
the record layout fails here first.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.obs.profile import profile_records
from repro.telemetry.export import (
    TELEMETRY_SCHEMA,
    read_telemetry_jsonl,
    write_telemetry_jsonl,
)

V2 = Path(__file__).parent / "fixtures" / "capture_v2.jsonl"


class TestSchemaTags:
    def test_current_schema_is_v2(self):
        assert TELEMETRY_SCHEMA == "telemetry/2"

    def test_unknown_schema_rejected(self, tmp_path):
        # telemetry/1 is retired: only the current schema is readable.
        for schema in ("telemetry/99", "telemetry/1"):
            bad = tmp_path / "bad.jsonl"
            bad.write_text(f'{{"schema": "{schema}", "records": 0}}\n', "utf-8")
            with pytest.raises(ValidationError):
                read_telemetry_jsonl(bad)


class TestV2Fixture:
    def test_carries_profile_and_flight_blocks(self):
        header, records = read_telemetry_jsonl(V2)
        assert header["schema"] == "telemetry/2"
        (record,) = records
        assert record["profile"][0]["name"] == "fanout"
        kinds = [e["kind"] for e in record["flight_recorder"]["events"]]
        assert kinds == ["send", "hop"]

    def test_round_trip_is_byte_identical(self, tmp_path):
        """read → write reproduces the committed file exactly."""
        header, records = read_telemetry_jsonl(V2)
        extra = {
            key: header[key]
            for key in sorted(header)
            if key not in ("schema", "records")
        }
        out = write_telemetry_jsonl(tmp_path / "rt.jsonl", records, **extra)
        assert out.read_bytes() == V2.read_bytes()

    def test_profile_block_matches_span_fold(self):
        _, records = read_telemetry_jsonl(V2)
        (record,) = records
        folded = [e.as_dict() for e in profile_records([record])]
        assert folded == record["profile"]

    def test_every_line_is_standalone_json(self):
        for line in V2.read_text().splitlines():
            json.loads(line)
