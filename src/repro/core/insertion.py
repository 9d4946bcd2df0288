"""Event placement: Theorem 3.1 / Algorithm 1 and the Section 4.1 rule.

Deciding where a k-dimensional event lives takes two arithmetic steps and
zero search:

1. **Pool** — the dimension ``d_1`` of the greatest value picks ``P_d1``.
2. **Cell** — the greatest and second-greatest values pick the offsets
   (Theorem 3.1)::

       HO = floor(V_d1 · l)
       VO = floor(V_d2 · l² / (HO + 1))

When several dimensions tie for the greatest value (Section 4.1) the event
has one candidate placement per tied dimension; the system stores a
*single* copy at the candidate closest to the detecting sensor — never
multiple copies, which would inflate communication and corrupt aggregates.
Queries still find the event because the resolver visits every Pool whose
derived ranges admit it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ranges import ho_for_value, vo_for_value
from repro.events.event import Event
from repro.exceptions import ConfigurationError

__all__ = ["Placement", "placement_for", "candidate_placements"]


@dataclass(frozen=True, slots=True)
class Placement:
    """A target location in value space: Pool index plus cell offsets."""

    pool: int
    ho: int
    vo: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Placement(P{self.pool + 1}, HO={self.ho}, VO={self.vo})"


def placement_for(event: Event, side_length: int, order: tuple[int, ...] = ()) -> Placement:
    """The canonical placement of ``event`` (Theorem 3.1).

    Ties for the greatest value resolve to the lowest dimension index; use
    :func:`candidate_placements` when the §4.1 closest-candidate rule
    should apply.  ``order`` is ``event.dimension_order()`` if the caller
    has it.
    """
    if side_length < 1:
        raise ConfigurationError(f"side_length must be >= 1, got {side_length}")
    order = order or event.dimension_order()
    d1 = order[0]
    ho = ho_for_value(event.values[d1], side_length)
    vo = vo_for_value(event.values[order[1 if len(order) > 1 else 0]], ho, side_length)
    return Placement(pool=d1, ho=ho, vo=vo)


def candidate_placements(
    event: Event, side_length: int, order: tuple[int, ...] = ()
) -> list[Placement]:
    """Every legal placement of ``event`` (Section 4.1).

    With a unique greatest value this is the singleton ``[placement_for]``.
    With ``t`` tied greatest dimensions there are ``t`` candidates — one
    per tied Pool — all at the same ``(HO, VO)`` offsets, because in every
    tied Pool both the greatest and the second-greatest value equal the
    tied maximum (e.g. ``<0.4, 0.4, 0.2>`` may live in ``P_1`` or ``P_2``).
    """
    if side_length < 1:
        raise ConfigurationError(f"side_length must be >= 1, got {side_length}")
    tied = event.greatest_dimensions()
    if len(tied) == 1:
        return [placement_for(event, side_length, order)]
    top = event.values[tied[0]]
    ho = ho_for_value(top, side_length)
    # In each tied pool the second-greatest value is the tied maximum
    # itself (it appears in at least one other dimension).
    vo = vo_for_value(top, ho, side_length)
    return [Placement(pool=dim, ho=ho, vo=vo) for dim in tied]
