"""Columnar event storage: the one fold kernel every system shares.

A storage system appends each stored :class:`~repro.events.event.Event`
to its :class:`EventTable` and keeps the returned **row id** wherever it
used to keep the event (a Pool segment, a DIM zone, a DIFS leaf, a
flooding node, the external warehouse), in one ``array('q')`` per store
(:func:`row_array`).  A query's fold hands the answered stores' arrays to
:meth:`EventTable.select` in one call, which reads their joined bytes as
one index with ``np.frombuffer``.

The table keeps the same rows in two forms:

* a Python list of the ``Event`` objects, which ``append`` extends;
* numpy arrays of capacity ``c``: the events as a ``(c,)`` object array,
  which ``select`` gathers its answer from (the stored objects, in the
  caller's row order), and their values as a float64 ``(k, c)`` array,
  one contiguous row per axis.  The first query after any appends writes
  the new rows into both.  Capacity doubles, so the amortised copy cost
  per row is constant even when inserts and queries interleave, and an
  insert itself never touches numpy.

``select`` tests ``lo <= column <= hi`` on every specified axis.  The
values are the events' own float64 values (``Event`` converts every value
with ``float()``) and the bounds the query's own floats, so the IEEE
comparisons are the ones :meth:`RangeQuery.matches` makes one event at a
time.  A full-range axis is skipped: event values lie in ``[0, 1]``.
"""

from __future__ import annotations

from array import array
from typing import Collection, Iterable

import numpy as np

from repro.events.event import Event
from repro.events.queries import RangeQuery

__all__ = ["EventTable", "ROW_DTYPE", "row_array"]

#: The dtype the fold reads row-id bytes as: ``array('q')``'s items.
ROW_DTYPE = np.int64


def row_array(rows: Iterable[int] = ()) -> array[int]:
    """A store's row-id array (typecode ``'q'``), holding ``rows``."""
    return array("q", rows)


class EventTable:
    """Append-only rows of k-dimensional events with lazy float64 columns.

    Parameters
    ----------
    dimensions:
        Event dimensionality ``k`` (the column count).
    """

    __slots__ = ("dimensions", "_events", "_objects", "_columns", "_filled")

    def __init__(self, dimensions: int) -> None:
        self.dimensions = dimensions
        self._events: list[Event] = []
        self._objects = np.empty(0, dtype=object)
        self._columns = np.empty((dimensions, 0), dtype=np.float64)
        self._filled = 0

    def append(self, event: Event) -> int:
        """Store ``event``; returns its row id.  Makes no numpy call."""
        events = self._events
        events.append(event)
        return len(events) - 1

    def __len__(self) -> int:
        return len(self._events)

    def events(self, rows: Iterable[int]) -> list[Event]:
        """The events at ``rows``, in that order (no filtering)."""
        return list(map(self._events.__getitem__, rows))

    def _sync(self) -> None:
        """Write every appended row into the object and column arrays."""
        events = self._events
        count = len(events)
        filled = self._filled
        if filled == count:
            return
        if count > len(self._objects):
            capacity = max(count, 2 * len(self._objects))
            objects = np.empty(capacity, dtype=object)
            objects[:filled] = self._objects[:filled]
            columns = np.empty((self.dimensions, capacity))
            columns[:, :filled] = self._columns[:, :filled]
            self._objects, self._columns = objects, columns
        fresh = events[filled:count]
        # ``fromiter`` keeps each Event whole; assigning the list itself
        # would unpack every Event as a sequence of values.
        self._objects[filled:count] = np.fromiter(fresh, dtype=object, count=len(fresh))
        # The transposed view takes the fresh rows as ``(n, k)`` values.
        self._columns.T[filled:count] = [event.values for event in fresh]
        self._filled = count

    def _match(self, query: RangeQuery, row_arrays: Collection[array[int]]) -> np.ndarray:
        """Index array of the matching rows, in input order: the kernel.

        ``row_arrays`` holds one row-id array per answered store (a
        segment, a zone, a leaf, a node), read in order as one sequence.
        Their bytes are joined and read as one int64 index with
        ``np.frombuffer``; then each specified axis takes its contiguous
        column at those rows and ands in one closed ``lo <= column <= hi``
        mask.  The caller guarantees the query has the table's
        dimensionality: ``plan_query`` rejects a mismatched query before
        any fold.
        """
        index = np.frombuffer(b"".join(row_arrays), dtype=ROW_DTYPE)
        if not index.size:
            return index
        self._sync()
        mask = None
        for axis, (lo, hi) in enumerate(query.bounds):
            if lo > 0.0 or hi < 1.0:
                column = self._columns[axis].take(index)
                test = (column >= lo) & (column <= hi)
                mask = test if mask is None else mask & test
        return index if mask is None else index[mask]

    def matching_rows(self, query: RangeQuery, row_arrays: Collection[array[int]]) -> list[int]:
        """Ids in ``row_arrays`` whose event matches ``query``, in input order."""
        return self._match(query, row_arrays).tolist()

    def select(self, query: RangeQuery, row_arrays: Collection[array[int]]) -> list[Event]:
        """The events in ``row_arrays`` that match ``query``, in input order.

        Returns the stored ``Event`` objects themselves, gathered from the
        object array in one ``take``.
        """
        index = self._match(query, row_arrays)  # syncs ``_objects`` first
        return self._objects.take(index).tolist()

    def select_by_holder(
        self, query: RangeQuery, held: Iterable[tuple[int, array[int]]]
    ) -> dict[int, list[Event]]:
        """Each holder's matching events; ``held`` pairs nodes with rows they store."""
        grouped: dict[int, list[array[int]]] = {}
        for node, rows in held:
            grouped.setdefault(node, []).append(rows)
        return {node: self.select(query, rows) for node, rows in grouped.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventTable(k={self.dimensions}, rows={len(self._events)})"
