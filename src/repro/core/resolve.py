"""Query resolving: Theorem 3.2 and Algorithm 2.

Given a (rewritten) k-dimensional range query ``Q = <[L_1,U_1], ...,
[L_k,U_k]>``, Theorem 3.2 derives — per Pool ``P_i`` — the value ranges a
qualifying event stored there must exhibit on the Pool's two axes:

    R_H^i(Q) = [ max(L_1..L_k),  U_i ]
    R_V^i(Q) = [ max({L_j} \\ {L_i}),  min(U_i, max({U_j} \\ {U_i})) ]

Why: an event lives in ``P_i`` only if ``V_i`` is its greatest value, so
``V_i`` dominates every other value and hence every other lower bound;
and its second-greatest value is some other dimension's value, bounded by
that dimension's upper bound and by ``U_i`` from above.

A cell of ``P_i`` is *relevant* iff its Equation 1 ranges intersect both
derived ranges (Algorithm 2).  The derivation is pure arithmetic on the
query — one step at the sink, no index traversal — which is the paper's
headline pruning mechanism, and it applies unchanged to partial-match
queries after the ``[0, 1]`` rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.grid import Cell
from repro.core.pool import PoolLayout
from repro.core.ranges import equation1_table, meeting_window
from repro.events.queries import RangeQuery
from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.spans import SpanRecorder

__all__ = [
    "PoolQueryRanges",
    "query_ranges",
    "query_ranges_for_pool",
    "resolve_pool",
    "relevant_offsets",
    "relevant_cells",
]


@dataclass(frozen=True, slots=True)
class PoolQueryRanges:
    """The derived ``(R_H^i, R_V^i)`` pair for one Pool."""

    pool: int
    horizontal: tuple[float, float]
    vertical: tuple[float, float]

    @property
    def is_empty(self) -> bool:
        """Whether either derived range is empty (Pool fully pruned)."""
        return (
            self.horizontal[0] > self.horizontal[1]
            or self.vertical[0] > self.vertical[1]
        )


def query_ranges(query: RangeQuery) -> list[PoolQueryRanges]:
    """Apply Theorem 3.2 for every Pool ``P_1 .. P_k`` at once.

    The bounds are read once per query: ``max({L_j} \\ {L_i})`` is the
    largest lower bound unless ``L_i`` is it, and then the runner-up (the
    same for the uppers), so no per-Pool filtered list is built.
    """
    lowers = query.lowers
    uppers = query.uppers
    top_lower = max(lowers)
    if len(lowers) == 1:
        # One-dimensional degenerate case: the vertical axis repeats the
        # horizontal key, so reuse the same range.
        r_h = (top_lower, uppers[0])
        return [PoolQueryRanges(pool=0, horizontal=r_h, vertical=r_h)]
    other_lowers = _max_without_each(lowers)
    other_uppers = _max_without_each(uppers)
    return [
        PoolQueryRanges(
            pool=i,
            horizontal=(top_lower, upper),
            vertical=(other_lowers[i], min(upper, other_uppers[i])),
        )
        for i, upper in enumerate(uppers)
    ]


def _max_without_each(values: tuple[float, ...]) -> list[float]:
    """Per index ``i``, the largest of ``values`` other than ``values[i]``."""
    top = max(values)
    at = values.index(top)
    runner_up = max(values[:at] + values[at + 1 :])
    return [runner_up if i == at else top for i in range(len(values))]


def query_ranges_for_pool(query: RangeQuery, pool: int) -> PoolQueryRanges:
    """Apply Theorem 3.2 for Pool ``P_{pool+1}``.

    Returns the derived ranges; check :attr:`PoolQueryRanges.is_empty` for
    the Algorithm 2 line-1 prune (``max(L) > U_i``).
    """
    if not 0 <= pool < query.dimensions:
        raise ValidationError(
            f"pool index {pool} outside 0..{query.dimensions - 1}"
        )
    return query_ranges(query)[pool]


def resolve_pool(
    derived: PoolQueryRanges,
    side_length: int,
    *,
    recorder: "SpanRecorder | None" = None,
) -> list[tuple[int, range]]:
    """Algorithm 2 for one Pool: its relevant cells, as row windows.

    A cell is relevant iff its Equation 1 horizontal range intersects
    ``R_H^i(Q)`` *and* its vertical range intersects ``R_V^i(Q)``.  Cells
    on the top boundary of an axis use closed-top intersection so events
    with attribute value 1.0 cannot slip through (see
    :mod:`repro.core.ranges`).

    The relevant columns form one window of the Pool's columns, and each
    relevant column's relevant rows one window of its rows; both are
    found by bisecting the cached Equation 1 table, so the cost is one
    step per relevant column rather than one per cell of the Pool.  The
    result lists ``(HO, rows)`` per column with a relevant cell, columns
    ascending, ``rows`` the ``range`` of its relevant ``VO``.

    ``recorder`` (telemetry) logs one zero-message ``resolve`` span per
    call — the sink-local pruning step of the query lifecycle; it never
    causes traffic, which the span's ``messages=0`` makes auditable.
    """
    windows: list[tuple[int, range]] = []
    cells = 0
    if not derived.is_empty:
        table = equation1_table(side_length)
        v_lo, v_hi = derived.vertical
        row_lows = table.row_lows
        row_highs = table.row_highs
        for ho in meeting_window(
            table.column_lows, table.column_highs, *derived.horizontal
        ):
            rows = meeting_window(row_lows[ho], row_highs[ho], v_lo, v_hi)
            if rows:
                windows.append((ho, rows))
                cells += len(rows)
    if recorder is not None:
        recorder.record(
            "resolve",
            phase="resolve",
            pool=derived.pool,
            cells=cells,
            pruned=not cells,
        )
    return windows


def relevant_offsets(
    query: RangeQuery,
    pool: int,
    side_length: int,
    *,
    recorder: "SpanRecorder | None" = None,
) -> list[tuple[int, int]]:
    """Algorithm 2: the ``(HO, VO)`` offsets of relevant cells in a Pool.

    Column by column, rows ascending: :func:`resolve_pool`'s windows
    over :func:`query_ranges_for_pool`, spelled out.
    """
    windows = resolve_pool(
        query_ranges_for_pool(query, pool), side_length, recorder=recorder
    )
    return [(ho, vo) for ho, rows in windows for vo in rows]


def relevant_cells(query: RangeQuery, layout: PoolLayout) -> list[Cell]:
    """Global grid cells of ``layout`` relevant to ``query``.

    Convenience wrapper combining :func:`relevant_offsets` with the Pool's
    pivot anchoring; this is what the examples and figure tests use.
    """
    return [
        layout.cell_at(ho, vo)
        for ho, vo in relevant_offsets(query, layout.index, layout.side_length)
    ]
