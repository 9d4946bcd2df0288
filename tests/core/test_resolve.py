"""Tests for Theorem 3.2 / Algorithm 2, including paper Figures 4 and 5."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Cell
from repro.core.pool import PoolLayout
from repro.core.resolve import (
    query_ranges,
    query_ranges_for_pool,
    relevant_cells,
    relevant_offsets,
)
from repro.events.queries import RangeQuery
from repro.exceptions import ValidationError

#: The paper's three Pools: l = 5, pivots C(1,2), C(2,10), C(7,3).
POOLS = [
    PoolLayout(0, Cell(1, 2), 5),
    PoolLayout(1, Cell(2, 10), 5),
    PoolLayout(2, Cell(7, 3), 5),
]

#: Example 3.1 / Figure 4 query.
Q_FIG4 = RangeQuery.of((0.2, 0.3), (0.25, 0.35), (0.21, 0.24))
#: Example 3.2 / Figure 5 query: <*, *, [0.8, 0.84]>.
Q_FIG5 = RangeQuery.partial(3, {2: (0.8, 0.84)})


class TestTheorem32DerivedRanges:
    def test_example_31_pool1(self):
        derived = query_ranges_for_pool(Q_FIG4, 0)
        assert derived.horizontal == pytest.approx((0.25, 0.3))
        assert derived.vertical == pytest.approx((0.25, 0.3))

    def test_example_31_pool2(self):
        # Theorem 3.2 exactly (the running text's R_H value is a typo;
        # the resulting relevant cells match the paper either way).
        derived = query_ranges_for_pool(Q_FIG4, 1)
        assert derived.horizontal == pytest.approx((0.25, 0.35))
        assert derived.vertical == pytest.approx((0.21, 0.3))

    def test_example_31_pool3_empty(self):
        derived = query_ranges_for_pool(Q_FIG4, 2)
        assert derived.horizontal == pytest.approx((0.25, 0.24))
        assert derived.is_empty

    def test_example_32_all_pools(self):
        d1 = query_ranges_for_pool(Q_FIG5, 0)
        assert d1.horizontal == pytest.approx((0.8, 1.0))
        assert d1.vertical == pytest.approx((0.8, 1.0))
        d3 = query_ranges_for_pool(Q_FIG5, 2)
        assert d3.horizontal == pytest.approx((0.8, 0.84))
        assert d3.vertical == pytest.approx((0.0, 0.84))

    def test_pool_index_validation(self):
        with pytest.raises(ValidationError):
            query_ranges_for_pool(Q_FIG4, 3)

    def test_one_dimensional_degenerate(self):
        derived = query_ranges_for_pool(RangeQuery.of((0.2, 0.6)), 0)
        assert derived.horizontal == derived.vertical == (0.2, 0.6)


def scalar_query_ranges(query: RangeQuery, pool: int):
    """Theorem 3.2 for one Pool with the other bounds filtered out: the oracle."""
    lowers, uppers = query.lowers, query.uppers
    r_h = (max(lowers), uppers[pool])
    other_lowers = [lo for j, lo in enumerate(lowers) if j != pool]
    other_uppers = [hi for j, hi in enumerate(uppers) if j != pool]
    if not other_lowers:
        return r_h, r_h
    return r_h, (max(other_lowers), min(uppers[pool], max(other_uppers)))


class TestQueryRangesAllPools:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            ).map(sorted),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_the_per_pool_formula(self, bounds):
        """Tied bounds included: the runner-up stands in for the top only
        in the Pool that owns it."""
        query = RangeQuery(tuple(tuple(b) for b in bounds))
        derived = query_ranges(query)
        assert [d.pool for d in derived] == list(range(len(bounds)))
        for d in derived:
            assert (d.horizontal, d.vertical) == scalar_query_ranges(query, d.pool)


class TestFigure4:
    def test_pool1_single_cell(self):
        assert relevant_cells(Q_FIG4, POOLS[0]) == [Cell(2, 5)]

    def test_pool2_two_cells(self):
        assert relevant_cells(Q_FIG4, POOLS[1]) == [Cell(3, 12), Cell(3, 13)]

    def test_pool3_pruned(self):
        assert relevant_cells(Q_FIG4, POOLS[2]) == []


class TestFigure5:
    def test_pool1(self):
        assert relevant_cells(Q_FIG5, POOLS[0]) == [Cell(5, 6)]

    def test_pool2(self):
        assert relevant_cells(Q_FIG5, POOLS[1]) == [Cell(6, 14)]

    def test_pool3_column(self):
        assert relevant_cells(Q_FIG5, POOLS[2]) == [
            Cell(11, 3), Cell(11, 4), Cell(11, 5), Cell(11, 6), Cell(11, 7)
        ]


class TestRelevantOffsets:
    def test_full_query_touches_diagonal_band(self):
        # <[0,1],[0,1],[0,1]> admits every cell (any event qualifies).
        offsets = relevant_offsets(RangeQuery.partial(3, {}), 0, 5)
        assert len(offsets) == 25

    def test_point_query_touches_one_cell_per_pool(self):
        q = RangeQuery.point(0.31, 0.22, 0.13)
        for pool in range(3):
            offsets = relevant_offsets(q, pool, 10)
            assert len(offsets) <= 1

    def test_point_query_matching_pool_nonempty(self):
        # The pool of the point's greatest dimension must keep one cell.
        q = RangeQuery.point(0.31, 0.22, 0.13)
        assert len(relevant_offsets(q, 0, 10)) == 1

    def test_empty_pool_returns_no_offsets(self):
        assert relevant_offsets(Q_FIG4, 2, 5) == []

    def test_offsets_within_pool(self):
        for pool in range(3):
            for ho, vo in relevant_offsets(Q_FIG5, pool, 5):
                assert 0 <= ho < 5 and 0 <= vo < 5

    def test_boundary_value_one_query(self):
        # Q with U = 1.0 everywhere must reach the top corner cell.
        q = RangeQuery.of((0.95, 1.0), (0.95, 1.0), (0.95, 1.0))
        offsets = relevant_offsets(q, 0, 10)
        assert (9, 9) in offsets

    def test_pruning_shrinks_with_selectivity(self):
        narrow = RangeQuery.of((0.4, 0.45), (0.1, 0.15), (0.2, 0.25))
        wide = RangeQuery.of((0.1, 0.9), (0.1, 0.9), (0.1, 0.9))
        for pool in range(3):
            assert len(relevant_offsets(narrow, pool, 10)) <= len(
                relevant_offsets(wide, pool, 10)
            )


def scalar_relevant_offsets(
    query: RangeQuery, pool: int, side: int
) -> list[tuple[int, int]]:
    """Algorithm 2 cell by cell, with Equation 1 written out: the oracle."""
    derived = query_ranges_for_pool(query, pool)
    if derived.is_empty:
        return []

    def meets(cell, query_range, closed_top):
        (a, b), (lo, hi) = cell, query_range
        return a <= hi and (lo <= b if closed_top else lo < b)

    offsets = []
    for ho in range(side):
        h_cell = (ho / side, (ho + 1) / side)
        if not meets(h_cell, derived.horizontal, ho == side - 1):
            continue
        for vo in range(side):
            v_cell = (vo * (ho + 1) / side**2, (vo + 1) * (ho + 1) / side**2)
            if meets(v_cell, derived.vertical, vo == side - 1):
                offsets.append((ho, vo))
    return offsets


@st.composite
def edge_queries(draw, side):
    """Queries whose bounds often sit exactly on Equation 1 cell edges."""
    edges = sorted(
        {ho / side for ho in range(side + 1)}
        | {vo * (ho + 1) / side**2 for ho in range(side) for vo in range(side + 1)}
    )
    value = st.one_of(
        st.sampled_from(edges), st.floats(min_value=0.0, max_value=1.0)
    )
    k = draw(st.integers(min_value=1, max_value=4))
    bounds = []
    for _ in range(k):
        lo, hi = sorted((draw(value), draw(value)))
        if draw(st.booleans()):
            lo, hi = 0.0, 1.0
        bounds.append((lo, hi))
    return RangeQuery(tuple(bounds))


class TestResolveEquivalence:
    @settings(max_examples=300)
    @given(st.data(), st.integers(min_value=1, max_value=32))
    def test_matches_cell_by_cell_scan(self, data, side):
        query = data.draw(edge_queries(side))
        for pool in range(query.dimensions):
            assert relevant_offsets(query, pool, side) == scalar_relevant_offsets(
                query, pool, side
            )
