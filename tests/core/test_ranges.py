"""Tests for Equation 1 cell ranges, including the full Figure 3 grid."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ranges import (
    cell_value_ranges,
    ho_for_value,
    horizontal_range,
    meeting_window,
    vertical_range,
    vo_for_value,
)
from repro.exceptions import ConfigurationError, ValidationError

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
sides = st.integers(min_value=1, max_value=25)

#: Figure 3 of the paper: every vertical range of P1 with l = 5, as
#: [column HO][row VO] -> (lo, hi).  Transcribed from the figure.
FIGURE3_VERTICAL = {
    0: [(0.0, 0.04), (0.04, 0.08), (0.08, 0.12), (0.12, 0.16), (0.16, 0.2)],
    1: [(0.0, 0.08), (0.08, 0.16), (0.16, 0.24), (0.24, 0.32), (0.32, 0.4)],
    2: [(0.0, 0.12), (0.12, 0.24), (0.24, 0.36), (0.36, 0.48), (0.48, 0.6)],
    3: [(0.0, 0.16), (0.16, 0.32), (0.32, 0.48), (0.48, 0.64), (0.64, 0.8)],
    4: [(0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0)],
}


class TestFigure3:
    def test_horizontal_ranges(self):
        expected = [(0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0)]
        for ho, (lo, hi) in enumerate(expected):
            assert horizontal_range(ho, 5) == pytest.approx((lo, hi))

    def test_paper_figure3_full_grid(self):
        for ho, column in FIGURE3_VERTICAL.items():
            for vo, (lo, hi) in enumerate(column):
                assert vertical_range(ho, vo, 5) == pytest.approx(
                    (lo, hi)
                ), f"cell (HO={ho}, VO={vo})"

    def test_paper_text_example_second_column(self):
        # "We split the range [0, 0.4) into five partitions..."
        column = [vertical_range(1, vo, 5) for vo in range(5)]
        assert column == [
            pytest.approx((0.0, 0.08)),
            pytest.approx((0.08, 0.16)),
            pytest.approx((0.16, 0.24)),
            pytest.approx((0.24, 0.32)),
            pytest.approx((0.32, 0.4)),
        ]


class TestEquationOneProperties:
    @given(sides)
    def test_columns_tile_unit_interval(self, side):
        previous_hi = 0.0
        for ho in range(side):
            lo, hi = horizontal_range(ho, side)
            assert lo == pytest.approx(previous_hi)
            previous_hi = hi
        assert previous_hi == pytest.approx(1.0)

    @given(sides, st.integers(min_value=0, max_value=24))
    def test_column_rows_tile_column_bound(self, side, ho):
        ho = ho % side
        previous_hi = 0.0
        for vo in range(side):
            lo, hi = vertical_range(ho, vo, side)
            assert lo == pytest.approx(previous_hi)
            previous_hi = hi
        assert previous_hi == pytest.approx((ho + 1) / side)

    def test_cell_value_ranges_combines(self):
        h, v = cell_value_ranges(1, 3, 5)
        assert h == horizontal_range(1, 5)
        assert v == vertical_range(1, 3, 5)

    def test_offset_validation(self):
        with pytest.raises(ValidationError):
            horizontal_range(5, 5)
        with pytest.raises(ValidationError):
            vertical_range(0, -1, 5)
        with pytest.raises(ConfigurationError):
            horizontal_range(0, 0)


class TestInverseMaps:
    def test_theorem_31_paper_example(self):
        # E = <0.4, 0.3, 0.1>: HO from 0.4, VO from 0.3 with l = 5.
        ho = ho_for_value(0.4, 5)
        vo = vo_for_value(0.3, ho, 5)
        assert (ho, vo) == (2, 2)  # third column, third row (0-based)

    def test_boundary_value_one(self):
        assert ho_for_value(1.0, 10) == 9
        assert vo_for_value(1.0, 9, 10) == 9

    def test_boundary_value_zero(self):
        assert ho_for_value(0.0, 10) == 0
        assert vo_for_value(0.0, 0, 10) == 0

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValidationError):
            ho_for_value(1.5, 5)
        with pytest.raises(ValidationError):
            vo_for_value(-0.1, 0, 5)

    @given(unit, sides)
    def test_value_lands_in_its_horizontal_range(self, v, side):
        ho = ho_for_value(v, side)
        lo, hi = horizontal_range(ho, side)
        assert lo <= v <= hi
        if v < 1.0:
            assert v < hi

    @given(unit, unit, sides)
    def test_pair_lands_in_its_cell(self, v1, v2, side):
        """The Theorem 3.1 containment: (V_d1, V_d2) with V_d2 <= V_d1
        always falls inside the selected cell's Equation 1 ranges."""
        v_d1, v_d2 = max(v1, v2), min(v1, v2)
        ho = ho_for_value(v_d1, side)
        vo = vo_for_value(v_d2, ho, side)
        assert 0 <= vo < side
        v_lo, v_hi = vertical_range(ho, vo, side)
        assert v_lo <= v_d2 <= v_hi


class TestRangesIntersect:
    """The cell/query intersection rule, as :func:`meeting_window` applies it."""

    def test_open_top_excludes_boundary(self):
        assert 0 not in meeting_window((0.0, 0.2), (0.2, 1.0), 0.2, 0.5)

    def test_closed_top_includes_boundary(self):
        assert meeting_window((0.0, 0.8), (0.8, 1.0), 1.0, 1.0) == range(1, 2)

    def test_disjoint_below(self):
        assert 1 not in meeting_window((0.0, 0.5), (0.5, 0.6), 0.0, 0.4)

    def test_overlap(self):
        assert 0 in meeting_window((0.2, 0.4), (0.4, 1.0), 0.3, 0.9)

    def test_query_inside_cell(self):
        assert meeting_window((0.0,), (1.0,), 0.4, 0.5) == range(0, 1)
