"""k-nearest-neighbor queries in value space (paper future work).

The paper's conclusion names nearest-neighbor queries as a planned Pool
extension.  This module implements the classic expanding-box algorithm on
top of *any* :class:`~repro.dcs.DataCentricStore` (Pool or DIM):

1. Issue a range query for the L∞ box of radius ``r`` around the target.
2. If at least ``k`` returned events lie within **Euclidean** distance
   ``r``, the true k nearest neighbors are among them (the Euclidean ball
   of radius ``r`` is contained in the box), so finish.
3. Otherwise double ``r`` and repeat; the box eventually covers the unit
   cube, where the query is exact by definition.

Each round's message cost comes from the underlying store's own range
machinery, so the k-NN cost inherits Pool's pruning advantage over DIM
(``tests/core/test_extensions.py`` checks it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.dcs import DataCentricStore
from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exceptions import QueryError, ValidationError

__all__ = ["KnnResult", "nearest_neighbors", "value_distance"]


def value_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two value vectors."""
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


@dataclass(slots=True)
class KnnResult:
    """Outcome of an expanding-box k-NN search.

    ``neighbors`` are sorted by increasing distance to the target; ties
    break deterministically on the value tuple.
    """

    target: tuple[float, ...]
    k: int
    neighbors: list[Event]
    rounds: int
    final_radius: float
    total_cost: int
    round_costs: list[int] = field(default_factory=list)

    @property
    def distances(self) -> list[float]:
        """Distance of each returned neighbor to the target."""
        return [value_distance(event.values, self.target) for event in self.neighbors]


def _box_query(target: Sequence[float], radius: float) -> RangeQuery:
    bounds = tuple(
        (max(0.0, v - radius), min(1.0, v + radius)) for v in target
    )
    return RangeQuery(bounds)


def nearest_neighbors(
    store: DataCentricStore,
    sink: int,
    target: Sequence[float],
    k: int,
    *,
    initial_radius: float = 0.05,
    max_rounds: int = 12,
) -> KnnResult:
    """Find the ``k`` stored events closest to ``target`` in value space.

    Exact: matches a centralized scan whenever the store holds at least
    ``k`` events (verified against brute force in the tests).  Raises
    :class:`QueryError` if fewer than ``k`` events exist in total.
    """
    target = tuple(float(v) for v in target)
    if not all(0.0 <= v <= 1.0 for v in target):
        raise ValidationError(f"target {target} outside the unit cube")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if initial_radius <= 0:
        raise ValidationError(f"initial_radius must be positive, got {initial_radius}")

    radius = initial_radius
    rounds = 0
    total_cost = 0
    round_costs: list[int] = []
    events: list[Event] = []
    while True:
        rounds += 1
        query = _box_query(target, radius)
        result = store.query(sink, query)
        total_cost += result.total_cost
        round_costs.append(result.total_cost)
        events = result.events
        in_ball = [
            event
            for event in events
            if value_distance(event.values, target) <= radius
        ]
        box_is_everything = all(
            lo == 0.0 and hi == 1.0 for lo, hi in query.bounds
        )
        if len(in_ball) >= k or box_is_everything or rounds >= max_rounds:
            break
        radius *= 2.0
    if box_is_everything and len(events) < k:
        raise QueryError(
            f"store holds only {len(events)} events; cannot return k={k} neighbors"
        )
    ranked = sorted(
        events, key=lambda e: (value_distance(e.values, target), e.values)
    )
    return KnnResult(
        target=target,
        k=k,
        neighbors=ranked[:k],
        rounds=rounds,
        final_radius=radius,
        total_cost=total_cost,
        round_costs=round_costs,
    )
