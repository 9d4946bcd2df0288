"""Multi-dimensional queries (Section 2 of the paper).

A query is ``Q = <[L_1, U_1], ..., [L_h, U_h]>`` over ``h <= k`` attributes.
The paper distinguishes four types:

1. exact match **point** query      — ``h == k`` and ``L_i == U_i`` for all i
2. partial match **point** query    — ``h <  k`` and ``L_i == U_i``
3. exact match **range** query      — ``h == k`` and ``L_i <= U_i``
4. partial match **range** query    — ``h <  k`` and ``L_i <  U_i``

Rather than four classes we model one :class:`RangeQuery` over all ``k``
dimensions where an unspecified ("don't care", written ``*`` in the paper)
dimension carries the full range ``[0, 1]`` — precisely the rewrite the
paper applies before processing (Section 2).  :meth:`RangeQuery.kind`
recovers the paper's taxonomy, and :meth:`RangeQuery.partial` builds a
query with explicit unspecified dimensions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.events.event import Event
from repro.exceptions import DimensionMismatchError, ValidationError

__all__ = ["QueryKind", "RangeQuery", "FULL_RANGE"]

#: The rewritten range of an unspecified ("don't care") attribute.
FULL_RANGE: tuple[float, float] = (0.0, 1.0)


class QueryKind(enum.Enum):
    """The paper's four query categories (Section 2)."""

    EXACT_POINT = "exact-point"
    PARTIAL_POINT = "partial-point"
    EXACT_RANGE = "exact-range"
    PARTIAL_RANGE = "partial-range"


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """A k-dimensional range query with per-dimension ``[L_i, U_i]`` bounds.

    ``bounds[i] == (0.0, 1.0)`` marks dimension ``i`` as unspecified; this
    is both the storage representation and the paper's pre-processing
    rewrite, so the query processing machinery never needs a special case
    for partial-match queries.
    """

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        # Always ``float()``, as ``Event`` does for its values.
        object.__setattr__(
            self,
            "bounds",
            tuple((float(lo), float(hi)) for lo, hi in self.bounds),
        )
        if len(self.bounds) == 0:
            raise ValidationError("a query needs at least one dimension")
        for index, (lo, hi) in enumerate(self.bounds):
            if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
                raise ValidationError(
                    f"dimension {index} bounds [{lo}, {hi}] are outside [0, 1]"
                )
            if lo > hi:
                raise ValidationError(
                    f"dimension {index} has L={lo} > U={hi}; bounds must satisfy L <= U"
                )

    # ------------------------------------------------------------------ #
    # Constructors                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def of(cls, *bounds: tuple[float, float]) -> "RangeQuery":
        """``RangeQuery.of((0.2, 0.3), (0.25, 0.35), (0.21, 0.24))``."""
        return cls(bounds)

    @classmethod
    def point(cls, *values: float) -> "RangeQuery":
        """An exact-match point query: ``L_i == U_i == values[i]``."""
        return cls(tuple((v, v) for v in values))

    @classmethod
    def partial(
        cls,
        dimensions: int,
        specified: Mapping[int, tuple[float, float]],
    ) -> "RangeQuery":
        """A partial-match query with explicit "don't care" dimensions.

        Parameters
        ----------
        dimensions:
            Total dimensionality ``k`` of the event space.
        specified:
            Mapping from 0-based dimension index to its ``(L, U)`` bounds;
            every other dimension is rewritten to ``[0, 1]``.

        Example
        -------
        The paper's ``Q = <*, *, [0.8, 0.84]>``::

            RangeQuery.partial(3, {2: (0.8, 0.84)})
        """
        for dim in specified:
            if not 0 <= dim < dimensions:
                raise ValidationError(
                    f"specified dimension {dim} outside 0..{dimensions - 1}"
                )
        return cls(tuple(specified.get(i, FULL_RANGE) for i in range(dimensions)))

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def dimensions(self) -> int:
        """Number of dimensions ``k``."""
        return len(self.bounds)

    def __len__(self) -> int:
        return len(self.bounds)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.bounds)

    def __getitem__(self, index: int) -> tuple[float, float]:
        return self.bounds[index]

    @property
    def lowers(self) -> tuple[float, ...]:
        """``(L_1, ..., L_k)``."""
        return tuple(lo for lo, _ in self.bounds)

    @property
    def uppers(self) -> tuple[float, ...]:
        """``(U_1, ..., U_k)``."""
        return tuple(hi for _, hi in self.bounds)

    def unspecified_dimensions(self) -> tuple[int, ...]:
        """0-based indices of "don't care" dimensions (full ``[0, 1]`` range)."""
        return tuple(
            i for i, bound in enumerate(self.bounds) if bound == FULL_RANGE
        )

    def specified_dimensions(self) -> tuple[int, ...]:
        """0-based indices of dimensions with a restricted range."""
        return tuple(
            i for i, bound in enumerate(self.bounds) if bound != FULL_RANGE
        )

    @property
    def partial_degree(self) -> int:
        """The paper's ``m``: number of unspecified dimensions (m-partial)."""
        return len(self.unspecified_dimensions())

    def kind(self) -> QueryKind:
        """Classify per the paper's taxonomy (Section 2)."""
        is_partial = self.partial_degree > 0
        is_point = all(lo == hi for lo, hi in self.bounds if (lo, hi) != FULL_RANGE)
        if is_point and not self.specified_dimensions():
            # <*, *, ..., *> degenerates to an (empty-condition) range query.
            is_point = False
        if is_partial:
            return QueryKind.PARTIAL_POINT if is_point else QueryKind.PARTIAL_RANGE
        return QueryKind.EXACT_POINT if is_point else QueryKind.EXACT_RANGE

    @property
    def volume(self) -> float:
        """Product of range widths — the fraction of value space covered."""
        result = 1.0
        for lo, hi in self.bounds:
            result *= hi - lo
        return result

    # ------------------------------------------------------------------ #
    # Matching                                                           #
    # ------------------------------------------------------------------ #

    def matches(self, event: Event | Sequence[float]) -> bool:
        """Whether ``event`` satisfies every per-dimension bound (closed).

        This is the ground-truth predicate every storage system is tested
        against: ``(L_1 <= V_1 <= U_1) and ... and (L_k <= V_k <= U_k)``.
        """
        values = event.values if isinstance(event, Event) else tuple(event)
        if len(values) != len(self.bounds):
            raise DimensionMismatchError(len(self.bounds), len(values), "event")
        return all(lo <= v <= hi for v, (lo, hi) in zip(values, self.bounds))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts: list[str] = []
        for lo, hi in self.bounds:
            if (lo, hi) == FULL_RANGE:
                parts.append("*")
            elif lo == hi:
                parts.append(f"{lo:.4g}")
            else:
                parts.append(f"[{lo:.4g}, {hi:.4g}]")
        return f"RangeQuery(<{', '.join(parts)}>)"
