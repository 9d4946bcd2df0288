"""The k-dimensional event record.

The paper (Section 2) models a sensor reading as an event
``E = <V_1, V_2, ..., V_k>`` of ``k`` normalized attribute values in
``[0, 1]``.  The Pool mapping additionally needs, for each event, the
*dimension order by value*: ``d_1`` is the dimension holding the greatest
value, ``d_2`` the second greatest, and so on (Section 3.1.2).

Tie-breaking
------------
Section 4.1 covers events whose greatest value appears in several
dimensions.  For the *ordering* we break ties by the lower dimension index,
which makes ``d_i`` total and deterministic; the storage layer separately
enumerates *all* tied candidate placements (``greatest_dimensions``) and
stores the event at the closest one, exactly as Section 4.1 prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.exceptions import ValidationError

__all__ = ["Event"]


@dataclass(frozen=True, slots=True)
class Event:
    """A normalized k-dimensional sensor event.

    Parameters
    ----------
    values:
        The attribute values ``V_1 .. V_k``, each in ``[0, 1]``.
    source:
        Optional id of the sensor node that detected the event (used by the
    	insertion mechanism to measure routing cost and to break §4.1 ties
        by proximity).
    seq:
        Optional per-source sequence number for stable identity in tests
        and aggregation.
    """

    values: tuple[float, ...]
    source: int | None = field(default=None, compare=False)
    seq: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        # Always ``float()``: a numpy scalar or a ``Fraction`` compares
        # differently from the float64 it becomes in an event table.
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if len(self.values) == 0:
            raise ValidationError("an event needs at least one attribute value")
        for index, value in enumerate(self.values):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"attribute {index} value {value!r} is outside [0, 1]; "
                    "normalize readings before constructing events"
                )

    # ------------------------------------------------------------------ #
    # Basic container protocol                                           #
    # ------------------------------------------------------------------ #

    @property
    def dimensions(self) -> int:
        """Number of attributes ``k``."""
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]

    # ------------------------------------------------------------------ #
    # Value-order machinery (Section 3.1.2)                              #
    # ------------------------------------------------------------------ #

    def dimension_order(self) -> tuple[int, ...]:
        """Dimensions sorted by decreasing value (``d_1, d_2, ..., d_k``).

        Indices are 0-based.  Ties resolve to the lower dimension index so
        the order is deterministic.
        """
        return tuple(
            sorted(range(len(self.values)), key=lambda i: (-self.values[i], i))
        )

    @property
    def d1(self) -> int:
        """0-based dimension of the greatest attribute value."""
        return self.dimension_order()[0]

    @property
    def d2(self) -> int:
        """0-based dimension of the second greatest attribute value.

        For one-dimensional events this is defined as dimension 0, which
        collapses the Pool mapping to a single column — handy for testing
        against one-dimensional baselines such as GHT.
        """
        order = self.dimension_order()
        return order[1] if len(order) > 1 else order[0]

    @property
    def greatest_value(self) -> float:
        """``V_{d_1}``, the greatest attribute value."""
        return self.values[self.d1]

    @property
    def second_greatest_value(self) -> float:
        """``V_{d_2}``, the second greatest attribute value."""
        return self.values[self.d2]

    def greatest_dimensions(self) -> tuple[int, ...]:
        """All dimensions tied for the greatest value (Section 4.1).

        For an event with a unique maximum this is a 1-tuple ``(d_1,)``; for
        ``<0.4, 0.4, 0.2>`` it is ``(0, 1)``.
        """
        top = max(self.values)
        return tuple(i for i, v in enumerate(self.values) if v == top)

    # ------------------------------------------------------------------ #
    # Convenience                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def of(cls, *values: float, source: int | None = None, seq: int = 0) -> "Event":
        """Build an event from positional values: ``Event.of(0.4, 0.3, 0.1)``."""
        return cls(values, source=source, seq=seq)

    @classmethod
    def from_sequence(
        cls, values: Sequence[float], source: int | None = None, seq: int = 0
    ) -> "Event":
        """Build an event from any float sequence (list, numpy row, ...)."""
        return cls(values, source=source, seq=seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{v:.4g}" for v in self.values)
        suffix = f", source={self.source}" if self.source is not None else ""
        return f"Event(<{body}>{suffix})"
