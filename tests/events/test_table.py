"""Tests for EventTable: the columnar fold kernel against the scalar predicate."""

from __future__ import annotations

from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.event import Event
from repro.events.queries import FULL_RANGE, RangeQuery
from repro.events.table import ROW_DTYPE, EventTable, row_array

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
edges = st.sampled_from([0.0, 1.0, 0.25, 0.5])


def _reference(table: EventTable, query: RangeQuery, row_lists) -> list[Event]:
    """The scalar fold: every row in order, kept when ``matches`` holds."""
    events = table.events(row for rows in row_lists for row in rows)
    return [event for event in events if query.matches(event)]


def _same(got: list[Event], expected: list[Event]) -> bool:
    """Equal as lists of objects: same events, same order, by identity."""
    return len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


@st.composite
def _query(draw, k: int) -> RangeQuery:
    """Bounds from edge values and unit floats: ranges, points and full axes."""
    value = st.one_of(edges, unit)
    bounds = []
    for _ in range(k):
        lo, hi = sorted((draw(value), draw(value)))
        shape = draw(st.sampled_from(["range", "point", "full"]))
        if shape == "point":
            hi = lo
        elif shape == "full":
            lo, hi = FULL_RANGE
        bounds.append((lo, hi))
    return RangeQuery(tuple(bounds))


def _events(draw, query: RangeQuery, count: int, start: int) -> list[Event]:
    """Events whose values often sit exactly on the query's bounds."""
    pool = [*query.lowers, *query.uppers, 0.0, 1.0]
    value = st.one_of(st.sampled_from(pool), unit)
    return [
        Event(tuple(draw(value) for _ in range(query.dimensions)), seq=start + i)
        for i in range(count)
    ]


def _row_lists(draw, rows: list[int]) -> list[array[int]]:
    """A shuffled subset of ``rows``, cut into consecutive row arrays."""
    subset = draw(st.permutations(rows))[: draw(st.integers(0, len(rows)))]
    cuts = sorted(draw(st.lists(st.integers(0, len(subset)), max_size=4)))
    bounds = [0, *cuts, len(subset)]
    return [row_array(subset[a:b]) for a, b in zip(bounds, bounds[1:])]


class TestSelect:
    @given(st.data(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=200)
    def test_select_equals_matches(self, data, k):
        # Shuffled row subsets, values on the bounds, and appends
        # interleaved with selects: each select must see every row
        # appended before it, however the appends straddle the column
        # array's capacity doublings.
        table = EventTable(k)
        for step in range(data.draw(st.integers(1, 6))):
            query = data.draw(_query(k))
            batch = _events(data.draw, query, data.draw(st.integers(0, 20)), len(table))
            rows = [table.append(event) for event in batch]
            assert rows == list(range(len(table) - len(batch), len(table)))
            row_lists = _row_lists(data.draw, list(range(len(table))))
            got = table.select(query, row_lists)
            assert _same(got, _reference(table, query, row_lists)), step
            matched = table.matching_rows(query, row_lists)
            assert _same(table.events(matched), got)

    def test_capacity_doubles_and_keeps_old_rows(self):
        table = EventTable(2)
        query = RangeQuery.of((0.0, 0.5), (0.0, 1.0))
        expected: list[Event] = []
        for i in range(100):
            event = Event.of((i % 10) / 10, 0.5, seq=i)
            table.append(event)
            if event.values[0] <= 0.5:
                expected.append(event)
            got = table.select(query, [row_array(range(len(table)))])
            assert _same(got, expected)
        assert table._columns.shape == (2, 128)

    def test_bounds_are_closed(self):
        table = EventTable(1)
        for value in (0.2, 0.3, 0.2 - 1e-12, 0.3 + 1e-12):
            table.append(Event.of(value))
        rows = [row_array(range(4))]
        assert [e.values for e in table.select(RangeQuery.of((0.2, 0.3)), rows)] == [
            (0.2,),
            (0.3,),
        ]
        assert [e.values for e in table.select(RangeQuery.point(0.3), rows)] == [
            (0.3,)
        ]

    def test_rows_may_repeat_and_keep_their_order(self):
        table = EventTable(1)
        low, high = table.append(Event.of(0.1)), table.append(Event.of(0.9))
        query = RangeQuery.of((0.0, 0.5))
        rows = [row_array([low, high, low]), row_array([low])]
        assert table.matching_rows(query, rows) == [low, low, low]
        assert table.matching_rows(RangeQuery.of(FULL_RANGE), [row_array([high, low])]) == [
            high,
            low,
        ]

    def test_empty_inputs(self):
        table = EventTable(3)
        query = RangeQuery.partial(3, {0: (0.1, 0.2)})
        assert table.select(query, []) == []
        assert table.select(query, [row_array(), row_array()]) == []


class TestRowArrays:
    """Stores hand the kernel ``array('q')`` rows, read as int64 bytes."""

    def test_row_array_items_are_the_gather_dtype(self):
        rows = row_array([0, 2**40])
        assert rows.typecode == "q"
        assert rows.itemsize == np.dtype(ROW_DTYPE).itemsize
        assert np.frombuffer(rows, dtype=ROW_DTYPE).tolist() == [0, 2**40]

    @given(st.data(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200)
    def test_select_equals_matches_with_repeats_and_empty_arrays(self, data, k):
        # Row arrays drawn with repeated rows and empty arrays, with
        # appends between selects that straddle the capacity doublings.
        table = EventTable(k)
        for step in range(data.draw(st.integers(1, 6))):
            query = data.draw(_query(k))
            for event in _events(data.draw, query, data.draw(st.integers(0, 12)), len(table)):
                table.append(event)
            size = 8 if len(table) else 0
            rows = st.lists(st.integers(0, max(len(table) - 1, 0)), max_size=size)
            arrays = data.draw(st.lists(rows.map(row_array), max_size=5))
            got = table.select(query, arrays)
            assert _same(got, _reference(table, query, arrays)), step
            assert table.matching_rows(query, arrays) == [
                row
                for rows in arrays
                for row in rows
                if query.matches(table.events([row])[0])
            ]
            assert table._columns.shape[0] == k


class TestFloatValues:
    """Every value and bound is a Python float, so both paths agree."""

    @pytest.mark.parametrize(
        "raw, probe",
        [
            (np.float32(0.1), 0.1),
            (np.float32(0.1), float(np.float32(0.1))),
            (Fraction(1, 3), 1 / 3),
            (Fraction(1, 3), 0.3333333333333333),
            (1, 1.0),
            (0, 0.0),
        ],
    )
    def test_matches_and_select_agree(self, raw, probe):
        event = Event((raw, 0.5))
        assert all(type(v) is float for v in event.values)
        table = EventTable(2)
        table.append(event)
        for query in (
            RangeQuery.point(probe, 0.5),
            RangeQuery.of((raw, raw), (0.0, 1.0)),
            RangeQuery(((raw, 1.0), (0.5, 0.5))),
            RangeQuery(((0.0, raw), FULL_RANGE)),
        ):
            assert all(type(b) is float for bound in query.bounds for b in bound)
            expected = [event] if query.matches(event) else []
            assert table.select(query, [row_array([0])]) == expected

    def test_float32_value_is_its_float64_widening(self):
        # 0.1 has no float32 representation: the stored value is the
        # float32's exact widening, which a float64 point query on 0.1
        # does not hit on either path.
        event = Event((np.float32(0.1),))
        table = EventTable(1)
        table.append(event)
        query = RangeQuery.point(0.1)
        assert not query.matches(event)
        assert table.select(query, [row_array([0])]) == []

    def test_fraction_value_is_rounded_once(self):
        event = Event((Fraction(1, 3),))
        table = EventTable(1)
        table.append(event)
        query = RangeQuery.point(1 / 3)
        assert query.matches(event)
        assert table.select(query, [row_array([0])]) == [event]

    def test_sequence_inputs_convert_too(self):
        assert Event([np.float64(0.25), 1]).values == (0.25, 1.0)
        assert Event.of(Fraction(1, 2)).values == (0.5,)
        assert RangeQuery([[np.float32(0.5), 1]]).bounds == ((0.5, 1.0),)
