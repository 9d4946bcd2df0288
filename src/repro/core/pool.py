"""Pool layouts: where the k Pools sit in the grid (Section 2).

A deployment with k-dimensional events hosts exactly ``k`` Pools
``P_1 .. P_k``, each an ``l × l`` block of grid cells anchored at a
randomly chosen *pivot cell* (its lower-left cell).  A Pool's cell at
offsets ``(HO, VO)`` from the pivot owns the value ranges of Equation 1;
the number of index nodes is therefore ``k · l²`` — independent of the
network size, which is the root of Pool's scalability advantage
(Section 1, feature 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.grid import Cell, Grid
from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, ensure_generator

__all__ = ["PoolLayout", "choose_pivots"]


@dataclass(frozen=True, slots=True)
class PoolLayout:
    """One Pool: an ``l × l`` block of cells anchored at ``pivot``.

    Attributes
    ----------
    index:
        0-based Pool number (``P_{index+1}`` in the paper's notation).
    pivot:
        The lower-left cell ``PC_i``.
    side_length:
        The paper's ``l`` — cells per side.
    cells_by_offset:
        All ``l²`` global cells, built once: the cell at ``(HO, VO)``
        is entry ``HO · l + VO``.
    offsets:
        Every ``(HO, VO)`` pair, in the same order.
    keys_by_offset:
        The ``(index, HO, VO)`` store key of each cell, in the same order.
    """

    index: int
    pivot: Cell
    side_length: int
    cells_by_offset: tuple[Cell, ...] = field(
        init=False, repr=False, compare=False
    )
    offsets: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False
    )
    keys_by_offset: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.side_length < 1:
            raise ConfigurationError(
                f"side_length must be >= 1, got {self.side_length}"
            )
        if self.index < 0:
            raise ConfigurationError(f"pool index must be >= 0, got {self.index}")
        x, y = self.pivot
        sides = range(self.side_length)
        object.__setattr__(
            self,
            "cells_by_offset",
            tuple(Cell(x + ho, y + vo) for ho in sides for vo in sides),
        )
        offsets = tuple((ho, vo) for ho in sides for vo in sides)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(
            self, "keys_by_offset", tuple((self.index, ho, vo) for ho, vo in offsets)
        )

    # ------------------------------------------------------------------ #
    # Cell addressing                                                    #
    # ------------------------------------------------------------------ #

    def cell_at(self, ho: int, vo: int) -> Cell:
        """Global cell at offsets ``(HO, VO)`` from the pivot."""
        if not (0 <= ho < self.side_length and 0 <= vo < self.side_length):
            raise ConfigurationError(
                f"offsets ({ho},{vo}) outside pool of side {self.side_length}"
            )
        return self.cells_by_offset[ho * self.side_length + vo]

    def offsets_of(self, cell: Cell) -> tuple[int, int] | None:
        """``(HO, VO)`` of a global cell, or ``None`` if outside the Pool.

        Definition 2.1: ``HO = z - x``, ``VO = w - y`` for cell ``C_(z,w)``
        and pivot ``C_(x,y)``.
        """
        ho = cell.x - self.pivot.x
        vo = cell.y - self.pivot.y
        if 0 <= ho < self.side_length and 0 <= vo < self.side_length:
            return (ho, vo)
        return None

    def __contains__(self, cell: Cell) -> bool:
        return self.offsets_of(cell) is not None

    def cells(self) -> Iterator[Cell]:
        """All ``l²`` cells, column-major from the pivot."""
        return iter(self.cells_by_offset)

    @property
    def cell_count(self) -> int:
        """``l²``."""
        return self.side_length * self.side_length

    def overlaps(self, other: "PoolLayout") -> bool:
        """Whether two Pool footprints share any cell."""
        return _blocks_overlap(
            self.pivot, self.side_length, other.pivot, other.side_length
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"P{self.index + 1}(pivot={self.pivot!r}, l={self.side_length})"


def _blocks_overlap(a: Cell, a_side: int, b: Cell, b_side: int) -> bool:
    """Whether the cell blocks anchored at ``a`` and ``b`` share a cell."""
    return not (
        a.x + a_side <= b.x
        or b.x + b_side <= a.x
        or a.y + a_side <= b.y
        or b.y + b_side <= a.y
    )


def choose_pivots(
    grid: Grid,
    pools: int,
    side_length: int,
    *,
    seed: SeedLike = None,
    avoid_overlap: bool = True,
    max_attempts: int = 500,
) -> list[Cell]:
    """Randomly place ``pools`` pivot cells so every Pool fits the grid.

    The paper chooses pivot locations randomly (Section 2, citing the GHT
    practice).  We additionally keep Pool footprints disjoint when the
    grid has room — overlapping Pools are legal but make one physical
    index node serve several value regions, which muddies the hotspot
    analysis.  If the grid is too small to fit ``pools`` disjoint blocks,
    overlap is permitted after ``max_attempts`` rejections.

    Raises
    ------
    ConfigurationError
        If a single Pool cannot fit in the grid at all.
    """
    if pools < 1:
        raise ConfigurationError(f"pools must be >= 1, got {pools}")
    if side_length > grid.columns or side_length > grid.rows:
        raise ConfigurationError(
            f"a {side_length}x{side_length}-cell pool cannot fit a "
            f"{grid.columns}x{grid.rows} grid; shrink side_length or the "
            "cell size"
        )
    rng = ensure_generator(seed)
    max_x = grid.columns - side_length
    max_y = grid.rows - side_length

    def draw() -> Cell:
        return Cell(
            int(rng.integers(0, max_x + 1)),
            int(rng.integers(0, max_y + 1)),
        )

    chosen: list[Cell] = []
    for _ in range(pools):
        pivot = draw()
        if avoid_overlap:
            attempts = 0
            while (
                any(
                    _blocks_overlap(pivot, side_length, existing, side_length)
                    for existing in chosen
                )
                and attempts < max_attempts
            ):
                pivot = draw()
                attempts += 1
        chosen.append(pivot)
    return chosen
