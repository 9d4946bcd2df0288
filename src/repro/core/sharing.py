"""Workload sharing (Section 4.2): hotspot relief for index nodes.

The paper defers the mechanism's details to an unavailable technical
report, giving only the contract: *"an index node can transfer its
workload to another sensor when [it] finds that its remaining resource is
below a certain threshold. This index node then switches to a low-power
state"*, and a hot index node *"can share the workload with its
neighbor"*.  We implement that contract concretely (documented as a
substitution in DESIGN.md):

* Each Pool cell's storage is a list of **segments** — disjoint sub-ranges
  of the cell's vertical (``V_d2``) range, each held by one physical node.
  Initially one segment spanning the whole cell, held by the index node.
* When a segment exceeds the policy's ``capacity``, it **splits** at the
  median stored vertical key; the upper half moves to a *delegate* (the
  nearest node not already holding part of the cell).  Moving events costs
  ``SHARING`` messages.
* Future inserts route to the segment owning their vertical key, and
  queries visit only the segments whose sub-range intersects the derived
  ``R_V`` — so sharing splits both storage *and* query load.
* A drained node can also **hand off** an entire segment and sleep
  (energy-threshold rotation).

The net effect matches the paper's claim: per-node load stays bounded
under skewed event distributions at the price of a few sharing messages.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.events.table import row_array
from repro.exceptions import StorageError

__all__ = ["SharingPolicy", "Segment", "CellStore"]


@dataclass(frozen=True, slots=True)
class SharingPolicy:
    """Tunables of the workload-sharing mechanism.

    Attributes
    ----------
    enabled:
        Master switch; the paper's baseline experiments run with sharing
        off (uniform data never triggers it).
    capacity:
        Events one holder stores before attempting to share.
    batch_size:
        Events per sharing transfer message (handoffs move data in
        batches, each batch one radio message per hop).
    search_radius_cells:
        Delegate search radius, in multiples of the grid cell size.
    """

    enabled: bool = False
    capacity: int = 64
    batch_size: int = 4
    search_radius_cells: float = 3.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise StorageError(f"capacity must be >= 1, got {self.capacity}")
        if self.batch_size < 1:
            raise StorageError(f"batch_size must be >= 1, got {self.batch_size}")

    def transfer_messages(self, moved: int, hops: int) -> int:
        """Radio messages to move ``moved`` events over ``hops`` hops."""
        if moved <= 0 or hops <= 0:
            return 0
        batches = -(-moved // self.batch_size)  # ceil division
        return batches * hops


@dataclass(slots=True)
class Segment:
    """One holder's slice of a cell: vertical keys in ``[v_lo, v_hi)``.

    ``rows`` are the stored events' row ids in the system's
    :class:`~repro.events.table.EventTable`, in arrival order, kept as
    the ``array('q')`` the fold gathers.
    """

    v_lo: float
    v_hi: float
    node: int
    rows: array[int] = field(default_factory=row_array)
    #: Vertical key of each stored event, parallel to ``rows``.
    keys: list[float] = field(default_factory=list)

    def covers(self, v_key: float, *, top: bool) -> bool:
        """Whether a vertical key belongs to this segment.

        ``top`` closes the upper bound for the cell's last segment so the
        cell-boundary convention carries through.
        """
        if v_key < self.v_lo:
            return False
        if top:
            return v_key <= self.v_hi
        return v_key < self.v_hi

    def overlaps(self, lo: float, hi: float) -> bool:
        """Whether this segment's sub-range meets the closed range ``[lo, hi]``."""
        return self.v_lo <= hi and lo <= self.v_hi

    def add(self, row: int, v_key: float) -> None:
        self.rows.append(row)
        self.keys.append(v_key)

    def __len__(self) -> int:
        return len(self.rows)


class CellStore:
    """Segmented storage state of one Pool cell.

    Parameters
    ----------
    primary_node:
        The cell's index node (initial sole holder).
    v_range:
        The cell's Equation 1 vertical range.
    """

    def __init__(
        self, primary_node: int, v_range: tuple[float, float]
    ) -> None:
        self.primary_node = primary_node
        self.v_range = v_range
        self.segments: list[Segment] = [
            Segment(v_lo=v_range[0], v_hi=v_range[1], node=primary_node)
        ]

    # ------------------------------------------------------------------ #
    # Lookup                                                             #
    # ------------------------------------------------------------------ #

    def segment_for(self, v_key: float) -> Segment:
        """The segment owning a vertical key (keys are clamped by caller)."""
        last = len(self.segments) - 1
        for index, segment in enumerate(self.segments):
            if segment.covers(v_key, top=index == last):
                return segment
        # Numerical edge (key at/under the cell's lower bound after
        # floating-point drift): fall back to the nearest end segment.
        if v_key < self.segments[0].v_lo:
            return self.segments[0]
        return self.segments[-1]

    def segments_overlapping(
        self, v_query: tuple[float, float]
    ) -> list[Segment]:
        """Segments whose sub-range meets the closed query range."""
        lo, hi = v_query
        return [segment for segment in self.segments if segment.overlaps(lo, hi)]

    def holders(self) -> tuple[int, ...]:
        """Distinct nodes currently holding part of this cell."""
        return tuple(dict.fromkeys(segment.node for segment in self.segments))

    def all_rows(self) -> array[int]:
        """Row ids of every event stored in the cell, segment by segment."""
        return row_array(row for segment in self.segments for row in segment.rows)

    def total_events(self) -> int:
        return sum(len(segment) for segment in self.segments)

    # ------------------------------------------------------------------ #
    # Sharing operations                                                 #
    # ------------------------------------------------------------------ #

    def split_segment(self, segment: Segment, delegate: int) -> Segment | None:
        """Split ``segment`` at its median key; upper half -> ``delegate``.

        Returns the new upper segment, or ``None`` when the segment cannot
        be split (all stored keys identical — a degenerate hotspot the
        median cannot separate).
        """
        if segment not in self.segments:
            raise StorageError("segment does not belong to this cell store")
        if len(segment) < 2:
            return None
        sorted_keys = sorted(segment.keys)
        median = sorted_keys[len(sorted_keys) // 2]
        if median <= segment.v_lo or median > segment.v_hi:
            # All keys below the would-be boundary: try the range midpoint.
            median = (segment.v_lo + segment.v_hi) / 2.0
        stay_rows = row_array()
        stay_keys: list[float] = []
        move_rows = row_array()
        move_keys: list[float] = []
        for row, key in zip(segment.rows, segment.keys):
            if key >= median:
                move_rows.append(row)
                move_keys.append(key)
            else:
                stay_rows.append(row)
                stay_keys.append(key)
        if not move_rows or not stay_rows:
            return None
        upper = Segment(
            v_lo=median,
            v_hi=segment.v_hi,
            node=delegate,
            rows=move_rows,
            keys=move_keys,
        )
        segment.v_hi = median
        segment.rows = stay_rows
        segment.keys = stay_keys
        index = self.segments.index(segment)
        self.segments.insert(index + 1, upper)
        return upper

    def handoff_segment(self, segment: Segment, new_node: int) -> int:
        """Move a whole segment to ``new_node`` (energy rotation).

        Returns the number of events transferred.
        """
        if segment not in self.segments:
            raise StorageError("segment does not belong to this cell store")
        moved = len(segment)
        segment.node = new_node
        if segment is self.segments[0] and self.primary_node not in {
            s.node for s in self.segments
        }:
            self.primary_node = new_node
        return moved
