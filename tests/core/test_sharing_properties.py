"""Property-based tests for cell-store segmentation (workload sharing)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharing import CellStore

keys = st.floats(min_value=0.0, max_value=0.099999, allow_nan=False)
key_batches = st.lists(keys, min_size=0, max_size=60)
split_plans = st.lists(st.integers(min_value=0, max_value=5), max_size=4)


def _store_with(keys_list) -> CellStore:
    store = CellStore(primary_node=1, v_range=(0.0, 0.1))
    for row, key in enumerate(keys_list):
        store.segment_for(key).add(row, key)
    return store


class TestSegmentationInvariants:
    @given(key_batches, split_plans)
    @settings(max_examples=150)
    def test_segments_partition_the_cell_range(self, keys_list, plan):
        store = _store_with(keys_list)
        delegate = 100
        for index in plan:
            segments = store.segments
            target = segments[index % len(segments)]
            if store.split_segment(target, delegate) is not None:
                delegate += 1
        # Invariant 1: contiguous, ordered sub-ranges spanning the cell.
        assert store.segments[0].v_lo == 0.0
        assert store.segments[-1].v_hi == 0.1
        for a, b in zip(store.segments, store.segments[1:]):
            assert a.v_hi == b.v_lo
            assert a.v_lo < a.v_hi

    @given(key_batches, split_plans)
    @settings(max_examples=150)
    def test_no_events_lost_or_duplicated(self, keys_list, plan):
        store = _store_with(keys_list)
        delegate = 100
        for index in plan:
            segments = store.segments
            target = segments[index % len(segments)]
            if store.split_segment(target, delegate) is not None:
                delegate += 1
        assert store.total_events() == len(keys_list)
        assert sorted(
            key for segment in store.segments for key in segment.keys
        ) == sorted(keys_list)
        # Rows stay parallel to keys: row i was stored under key i.
        for segment in store.segments:
            assert [keys_list[row] for row in segment.rows] == segment.keys
        assert sorted(store.all_rows()) == list(range(len(keys_list)))

    @given(key_batches, split_plans)
    @settings(max_examples=150)
    def test_every_key_owned_by_its_covering_segment(self, keys_list, plan):
        store = _store_with(keys_list)
        delegate = 100
        for index in plan:
            segments = store.segments
            target = segments[index % len(segments)]
            if store.split_segment(target, delegate) is not None:
                delegate += 1
        for segment in store.segments:
            for key in segment.keys:
                assert store.segment_for(key) is segment

    @given(key_batches)
    @settings(max_examples=100)
    def test_split_halves_are_nonempty_or_refused(self, keys_list):
        store = _store_with(keys_list)
        before = [len(s) for s in store.segments]
        result = store.split_segment(store.segments[0], delegate=9)
        if result is None:
            assert [len(s) for s in store.segments] == before
        else:
            assert len(store.segments[0]) >= 1
            assert len(result) >= 1

    @given(key_batches, st.floats(min_value=0.0, max_value=0.1))
    @settings(max_examples=100)
    def test_overlap_query_finds_covering_segment(self, keys_list, probe):
        store = _store_with(keys_list)
        store.split_segment(store.segments[0], delegate=9)
        overlapping = store.segments_overlapping((probe, probe))
        assert overlapping, "a point inside the cell must hit a segment"
        assert any(
            segment.v_lo <= probe <= segment.v_hi for segment in overlapping
        )
