"""Tests for RangeQuery: taxonomy, rewrite, matching."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.events.event import Event
from repro.events.queries import FULL_RANGE, QueryKind, RangeQuery
from repro.events.table import EventTable, row_array
from repro.exceptions import DimensionMismatchError, ValidationError

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def queries(draw, dims=st.integers(min_value=1, max_value=5)):
    k = draw(dims)
    bounds = []
    for _ in range(k):
        lo = draw(unit)
        hi = draw(unit.filter(lambda v: True))
        lo, hi = min(lo, hi), max(lo, hi)
        bounds.append((lo, hi))
    return RangeQuery(tuple(bounds))


def _table(events) -> EventTable:
    table = EventTable(events[0].dimensions if events else 1)
    for event in events:
        table.append(event)
    return table


class TestConstruction:
    def test_of(self):
        q = RangeQuery.of((0.1, 0.2), (0.3, 0.4))
        assert q.bounds == ((0.1, 0.2), (0.3, 0.4))
        assert q.dimensions == 2

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            RangeQuery.of((0.5, 0.4))

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValidationError):
            RangeQuery.of((0.0, 1.5))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            RangeQuery(())

    def test_point_constructor(self):
        q = RangeQuery.point(0.2, 0.7)
        assert q.bounds == ((0.2, 0.2), (0.7, 0.7))

    def test_partial_constructor_rewrites(self):
        # The paper's Q = <*, *, [0.8, 0.84]>.
        q = RangeQuery.partial(3, {2: (0.8, 0.84)})
        assert q.bounds == (FULL_RANGE, FULL_RANGE, (0.8, 0.84))

    def test_partial_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            RangeQuery.partial(3, {5: (0.1, 0.2)})

    def test_container_protocol(self):
        q = RangeQuery.of((0.1, 0.2), (0.3, 0.4))
        assert len(q) == 2
        assert q[0] == (0.1, 0.2)
        assert list(q) == [(0.1, 0.2), (0.3, 0.4)]


class TestTaxonomy:
    def test_exact_point(self):
        assert RangeQuery.point(0.1, 0.2, 0.3).kind() is QueryKind.EXACT_POINT

    def test_partial_point(self):
        q = RangeQuery.partial(3, {0: (0.5, 0.5)})
        assert q.kind() is QueryKind.PARTIAL_POINT

    def test_exact_range(self):
        q = RangeQuery.of((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))
        assert q.kind() is QueryKind.EXACT_RANGE

    def test_partial_range(self):
        q = RangeQuery.partial(3, {1: (0.3, 0.4)})
        assert q.kind() is QueryKind.PARTIAL_RANGE

    def test_all_unspecified_is_range(self):
        q = RangeQuery.partial(2, {})
        assert q.kind() is QueryKind.PARTIAL_RANGE

    def test_partial_degree(self):
        assert RangeQuery.partial(3, {1: (0.3, 0.4)}).partial_degree == 2
        assert RangeQuery.point(0.1, 0.2).partial_degree == 0

    def test_specified_and_unspecified(self):
        q = RangeQuery.partial(3, {1: (0.3, 0.4)})
        assert q.unspecified_dimensions() == (0, 2)
        assert q.specified_dimensions() == (1,)


class TestMatching:
    def test_basic_match(self):
        q = RangeQuery.of((0.2, 0.3), (0.25, 0.35), (0.21, 0.24))
        assert q.matches(Event.of(0.25, 0.3, 0.22))
        assert not q.matches(Event.of(0.1, 0.3, 0.22))

    def test_bounds_are_closed(self):
        q = RangeQuery.of((0.2, 0.3))
        assert q.matches(Event.of(0.2))
        assert q.matches(Event.of(0.3))

    def test_matches_raw_sequence(self):
        q = RangeQuery.of((0.0, 0.5), (0.0, 0.5))
        assert q.matches((0.1, 0.2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            RangeQuery.of((0.0, 1.0)).matches(Event.of(0.1, 0.2))

    # The fold kernel is ``EventTable.select``; these pin it to the
    # query semantics over row ids.

    def test_filter(self):
        events = [Event.of(0.1, 0.1), Event.of(0.6, 0.6), Event.of(0.4, 0.4)]
        table = _table(events)
        q = RangeQuery.of((0.0, 0.5), (0.0, 0.5))
        assert table.select(q, [row_array(range(3))]) == [events[0], events[2]]

    def test_filter_reads_row_arrays_in_order(self):
        events = [Event.of(0.1, 0.9), Event.of(0.3, 0.2), Event.of(0.2, 0.5)]
        table = _table(events)
        q = RangeQuery.partial(2, {0: (0.1, 0.2)})
        assert table.select(q, [row_array([0]), row_array([1, 2])]) == [
            events[0],
            events[2],
        ]
        assert table.select(q, ()) == []
        assert table.select(q, [row_array(), row_array()]) == []

    def test_filter_full_query_keeps_everything(self):
        events = [Event.of(0.0, 1.0), Event.of(1.0, 0.0), Event.of(0.5, 0.5)]
        table = _table(events)
        assert table.select(RangeQuery.partial(2, {}), [row_array(range(3))]) == events

    @given(st.data(), st.integers(min_value=1, max_value=5))
    def test_filter_equals_matches(self, data, k):
        # The scalar reference: matches() tests every dimension, select()
        # only the specified ones.  Draw bounds and values from the edge
        # values so closed bounds, points, 0.0 and 1.0 meet often.
        edges = st.sampled_from([0.0, 1.0, 0.25, 0.5])
        value = st.one_of(edges, unit)
        bounds = []
        for _ in range(k):
            lo, hi = sorted((data.draw(value), data.draw(value)))
            shape = data.draw(st.sampled_from(["range", "point", "full"]))
            if shape == "point":
                hi = lo
            elif shape == "full":
                lo, hi = FULL_RANGE
            bounds.append((lo, hi))
        query = RangeQuery(tuple(bounds))
        pool = [*(lo for lo, _ in bounds), *(hi for _, hi in bounds), 0.0, 1.0]
        event_value = st.one_of(st.sampled_from(pool), unit)
        events = [
            Event(tuple(data.draw(event_value) for _ in range(k)), seq=seq)
            for seq in range(data.draw(st.integers(min_value=0, max_value=30)))
        ]
        table = _table(events)
        assert table.select(query, [row_array(range(len(events)))]) == [
            e for e in events if query.matches(e)
        ]

    @given(queries(), st.lists(unit, min_size=5, max_size=5))
    def test_rewritten_dimensions_always_match(self, query, values):
        event_values = tuple(values[: query.dimensions])
        event = Event(event_values)
        specified_ok = all(
            lo <= event_values[d] <= hi
            for d in query.specified_dimensions()
            for lo, hi in [query.bounds[d]]
        )
        assert query.matches(event) == specified_ok

    @given(queries())
    def test_volume_in_unit_interval(self, query):
        assert 0.0 <= query.volume <= 1.0


class TestProperties:
    def test_lowers_uppers(self):
        q = RangeQuery.of((0.1, 0.2), (0.3, 0.4))
        assert q.lowers == (0.1, 0.3)
        assert q.uppers == (0.2, 0.4)

    def test_volume(self):
        q = RangeQuery.of((0.0, 0.5), (0.0, 0.5))
        assert q.volume == pytest.approx(0.25)

    def test_repr_shows_dont_care(self):
        q = RangeQuery.partial(2, {0: (0.1, 0.2)})
        assert "*" in repr(q)
