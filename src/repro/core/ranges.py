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
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError, ValidationError

__all__ = [
    "horizontal_range",
    "vertical_range",
    "cell_value_ranges",
    "ho_for_value",
    "vo_for_value",
    "ranges_intersect",
]


def _check_side(side_length: int) -> None:
    if side_length < 1:
        raise ConfigurationError(f"side_length must be >= 1, got {side_length}")


def _check_offset(offset: int, side_length: int, name: str) -> None:
    if not 0 <= offset <= side_length - 1:
        raise ValidationError(
            f"{name}={offset} outside 0..{side_length - 1} for side length {side_length}"
        )


def _row_ranges(ho: int, side_length: int) -> list[tuple[float, float]]:
    """Equation 1 ``Range_V`` of every row of column ``ho``, by ``VO``.

    The caller validates; the resolver calls this once per column
    instead of validating every cell.
    """
    l_sq = side_length * side_length
    return [
        (vo * (ho + 1) / l_sq, (vo + 1) * (ho + 1) / l_sq)
        for vo in range(side_length)
    ]


def horizontal_range(ho: int, side_length: int) -> tuple[float, float]:
    """``Range_H`` of any cell in column offset ``ho`` (Equation 1)."""
    _check_side(side_length)
    _check_offset(ho, side_length, "HO")
    return (ho / side_length, (ho + 1) / side_length)


def vertical_range(ho: int, vo: int, side_length: int) -> tuple[float, float]:
    """``Range_V`` of the cell at offsets ``(ho, vo)`` (Equation 1)."""
    _check_side(side_length)
    _check_offset(ho, side_length, "HO")
    _check_offset(vo, side_length, "VO")
    return _row_ranges(ho, side_length)[vo]


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


def ranges_intersect(
    cell_range: tuple[float, float],
    query_range: tuple[float, float],
    *,
    closed_top: bool,
) -> bool:
    """Whether a half-open cell range meets a closed query range.

    ``cell_range`` is ``[a, b)`` — or ``[a, b]`` when ``closed_top`` marks
    a topmost cell — and ``query_range`` is the closed ``[L, U]`` from
    Theorem 3.2.  Intersection requires ``a <= U`` and ``L < b`` (``<=``
    when closed).
    """
    a, b = cell_range
    lo, hi = query_range
    if a > hi:
        return False
    if closed_top:
        return lo <= b
    return lo < b
