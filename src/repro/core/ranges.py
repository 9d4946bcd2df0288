"""Equation 1: the value ranges owned by each cell of a Pool.

A Pool of side length ``l`` is a value-space index over two derived
attributes of every event it stores: the greatest value ``V_d1``
(horizontal axis → column) and the second greatest value ``V_d2``
(vertical axis → row).  Equation 1 of the paper assigns each cell at
offsets ``(HO, VO)`` from the pivot:

    Range_H(C) = [ HO / l,            (HO + 1) / l )
    Range_V(C) = [ VO·(HO+1) / l²,    (VO+1)·(HO+1) / l² )

Each column's vertical ranges evenly split ``[0, upper bound of the
column's horizontal range)`` — reflecting the invariant ``V_d2 <= V_d1``:
an event in column ``HO`` has ``V_d1 < (HO+1)/l``, hence its ``V_d2`` also
fits under ``(HO+1)/l``.

Boundary semantics
------------------
Ranges are half-open except at the top of the unit interval: an event with
``V_d1 == 1.0`` belongs to the last column (offset ``l-1``), and likewise
for rows.  The inverse maps (:func:`ho_for_value`, :func:`vo_for_value`)
clamp accordingly, and the intersection predicates used by the resolver
close the upper bound on the top cells so no boundary event can escape a
query (tested property: resolve covers every placement).

Every bound is computed once per side length, in :func:`equation1_table`;
the per-cell accessors and the resolver read that table.  Within a column
(and across columns) the bounds rise monotonically, so the cells meeting a
closed query range form one contiguous window (:func:`meeting_window`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.exceptions import ConfigurationError, ValidationError

__all__ = [
    "Equation1Table",
    "equation1_table",
    "meeting_window",
    "horizontal_range",
    "vertical_range",
    "cell_value_ranges",
    "ho_for_value",
    "vo_for_value",
]


def _check_side(side_length: int) -> None:
    if side_length < 1:
        raise ConfigurationError(f"side_length must be >= 1, got {side_length}")


def _check_offset(offset: int, side_length: int, name: str) -> None:
    if not 0 <= offset <= side_length - 1:
        raise ValidationError(
            f"{name}={offset} outside 0..{side_length - 1} for side length {side_length}"
        )


@dataclass(frozen=True, slots=True)
class Equation1Table:
    """Equation 1 bounds of every cell of a side-``l`` Pool.

    ``column_lows[ho]``/``column_highs[ho]`` bound ``Range_H`` of column
    ``ho``; ``row_lows[ho][vo]``/``row_highs[ho][vo]`` bound ``Range_V``
    of the cell ``(ho, vo)``.  Each sequence is non-decreasing.
    """

    column_lows: tuple[float, ...]
    column_highs: tuple[float, ...]
    row_lows: tuple[tuple[float, ...], ...]
    row_highs: tuple[tuple[float, ...], ...]


@lru_cache(maxsize=64)
def equation1_table(side_length: int) -> Equation1Table:
    """The Equation 1 bounds of a side-``l`` Pool, built once per ``l``."""
    _check_side(side_length)
    sides = range(side_length)
    l_sq = side_length * side_length
    return Equation1Table(
        column_lows=tuple(ho / side_length for ho in sides),
        column_highs=tuple((ho + 1) / side_length for ho in sides),
        row_lows=tuple(
            tuple(vo * (ho + 1) / l_sq for vo in sides) for ho in sides
        ),
        row_highs=tuple(
            tuple((vo + 1) * (ho + 1) / l_sq for vo in sides) for ho in sides
        ),
    )


def meeting_window(
    lows: Sequence[float], highs: Sequence[float], lo: float, hi: float
) -> range:
    """Indices of the cells ``[lows[i], highs[i])`` meeting ``[lo, hi]``.

    A half-open cell ``[a, b)`` meets the closed query range ``[lo, hi]``
    (from Theorem 3.2) iff ``a <= hi`` and ``lo < b``.  The last cell's
    range is closed, ``[a, b]``, so it needs only ``lo <= b``.  With both
    bound sequences non-decreasing, ``a <= hi`` holds on a prefix and
    ``lo < b`` on a suffix, so two bisections find the window.
    """
    start = bisect_right(highs, lo)
    if start == len(highs) and highs[-1] == lo:
        start -= 1
    return range(start, bisect_right(lows, hi))


def horizontal_range(ho: int, side_length: int) -> tuple[float, float]:
    """``Range_H`` of any cell in column offset ``ho`` (Equation 1)."""
    table = equation1_table(side_length)
    _check_offset(ho, side_length, "HO")
    return (table.column_lows[ho], table.column_highs[ho])


def vertical_range(ho: int, vo: int, side_length: int) -> tuple[float, float]:
    """``Range_V`` of the cell at offsets ``(ho, vo)`` (Equation 1)."""
    table = equation1_table(side_length)
    _check_offset(ho, side_length, "HO")
    _check_offset(vo, side_length, "VO")
    return (table.row_lows[ho][vo], table.row_highs[ho][vo])


def cell_value_ranges(
    ho: int, vo: int, side_length: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Both ranges of a cell: ``(Range_H, Range_V)``."""
    return (
        horizontal_range(ho, side_length),
        vertical_range(ho, vo, side_length),
    )


def ho_for_value(v_d1: float, side_length: int) -> int:
    """Column offset for a greatest value: ``HO = floor(V_d1 · l)``.

    Theorem 3.1, clamped so that ``V_d1 == 1.0`` lands in the last column.
    """
    _check_side(side_length)
    if not 0.0 <= v_d1 <= 1.0:
        raise ValidationError(f"V_d1={v_d1} outside [0, 1]")
    return min(int(v_d1 * side_length), side_length - 1)


def vo_for_value(v_d2: float, ho: int, side_length: int) -> int:
    """Row offset: ``VO = floor(V_d2 · l² / (HO + 1))`` (Theorem 3.1).

    Clamped to the top row for the boundary case ``V_d2`` equal to the
    column's horizontal upper bound (only reachable when values tie or
    equal 1.0).
    """
    _check_side(side_length)
    _check_offset(ho, side_length, "HO")
    if not 0.0 <= v_d2 <= 1.0:
        raise ValidationError(f"V_d2={v_d2} outside [0, 1]")
    return min(
        int(v_d2 * side_length * side_length / (ho + 1)),
        side_length - 1,
    )
