"""Tests for the workload-sharing primitives (Section 4.2)."""

from __future__ import annotations

import pytest

from repro.core.sharing import CellStore, Segment, SharingPolicy
from repro.events.event import Event
from repro.events.table import EventTable, row_array
from repro.exceptions import StorageError


def _store(v_range=(0.0, 0.1), primary=1) -> CellStore:
    return CellStore(primary_node=primary, v_range=v_range)


def _fill(store: CellStore, keys: list[float], table: EventTable | None = None) -> None:
    table = table if table is not None else EventTable(2)
    for key in keys:
        segment = store.segment_for(key)
        segment.add(table.append(Event.of(key, key / 2)), key)


class TestSharingPolicy:
    def test_defaults_disabled(self):
        assert not SharingPolicy().enabled

    def test_transfer_messages_batches(self):
        policy = SharingPolicy(batch_size=4)
        assert policy.transfer_messages(moved=8, hops=3) == 2 * 3
        assert policy.transfer_messages(moved=9, hops=3) == 3 * 3
        assert policy.transfer_messages(moved=0, hops=3) == 0
        assert policy.transfer_messages(moved=5, hops=0) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(StorageError):
            SharingPolicy(capacity=0)
        with pytest.raises(StorageError):
            SharingPolicy(batch_size=0)


class TestSegment:
    def test_covers_half_open(self):
        segment = Segment(v_lo=0.0, v_hi=0.5, node=1)
        assert segment.covers(0.0, top=False)
        assert segment.covers(0.49, top=False)
        assert not segment.covers(0.5, top=False)
        assert segment.covers(0.5, top=True)

    def test_add_tracks_keys(self):
        table = EventTable(2)
        segment = Segment(v_lo=0.0, v_hi=1.0, node=1)
        segment.add(table.append(Event.of(0.4, 0.2)), 0.2)
        assert len(segment) == 1
        assert segment.keys == [0.2]
        assert segment.rows == row_array([0])


class TestCellStore:
    def test_initial_single_segment(self):
        store = _store()
        assert len(store.segments) == 1
        assert store.holders() == (1,)
        assert store.total_events() == 0

    def test_segment_for_routes_keys(self):
        store = _store((0.0, 0.1))
        _fill(store, [0.01, 0.05, 0.09])
        assert store.total_events() == 3

    def test_segment_for_clamps_drifted_keys(self):
        store = _store((0.2, 0.3))
        assert store.segment_for(0.19) is store.segments[0]
        assert store.segment_for(0.31) is store.segments[-1]

    def test_split_moves_upper_half(self):
        store = _store((0.0, 0.1))
        _fill(store, [0.01, 0.02, 0.03, 0.07, 0.08, 0.09])
        original = store.segments[0]
        upper = store.split_segment(original, delegate=9)
        assert upper is not None
        assert upper.node == 9
        assert original.v_hi == upper.v_lo
        assert all(k < upper.v_lo for k in original.keys)
        assert all(k >= upper.v_lo for k in upper.keys)
        # Rows travel with their keys.
        assert original.rows == row_array([0, 1, 2])
        assert upper.rows == row_array([3, 4, 5])
        assert store.total_events() == 6
        assert store.holders() == (1, 9)

    def test_split_keeps_lookup_consistent(self):
        store = _store((0.0, 0.1))
        _fill(store, [0.01, 0.03, 0.07, 0.09])
        store.split_segment(store.segments[0], delegate=9)
        # New inserts route to the right holder.
        assert store.segment_for(0.01).node == 1
        assert store.segment_for(0.09).node == 9

    def test_split_identical_keys_refused(self):
        store = _store((0.0, 0.1))
        _fill(store, [0.05] * 10)
        assert store.split_segment(store.segments[0], delegate=9) is None
        assert store.holders() == (1,)

    def test_split_single_event_refused(self):
        store = _store((0.0, 0.1))
        _fill(store, [0.05])
        assert store.split_segment(store.segments[0], delegate=9) is None

    def test_split_foreign_segment_rejected(self):
        store = _store()
        foreign = Segment(v_lo=0.0, v_hi=1.0, node=3)
        with pytest.raises(StorageError):
            store.split_segment(foreign, delegate=9)

    def test_segments_overlapping(self):
        store = _store((0.0, 0.1))
        _fill(store, [0.01, 0.02, 0.08, 0.09])
        store.split_segment(store.segments[0], delegate=9)
        low, high = store.segments
        assert store.segments_overlapping((0.0, low.v_hi - 1e-9)) == [low]
        assert store.segments_overlapping((high.v_lo + 1e-9, 0.1)) == [high]
        assert store.segments_overlapping((0.0, 0.1)) == [low, high]

    def test_handoff_segment(self):
        store = _store((0.0, 0.1), primary=1)
        _fill(store, [0.01, 0.05])
        moved = store.handoff_segment(store.segments[0], new_node=42)
        assert moved == 2
        assert store.segments[0].node == 42
        assert store.primary_node == 42

    def test_handoff_foreign_segment_rejected(self):
        store = _store()
        with pytest.raises(StorageError):
            store.handoff_segment(Segment(0.0, 1.0, 7), new_node=8)

    def test_all_events_spans_segments(self):
        store = _store((0.0, 0.1))
        table = EventTable(2)
        _fill(store, [0.01, 0.05, 0.09, 0.02], table)
        store.split_segment(store.segments[0], delegate=9)
        assert len(store.all_rows()) == 4
        assert sorted(e.values[0] for e in table.events(store.all_rows())) == [
            0.01,
            0.02,
            0.05,
            0.09,
        ]
