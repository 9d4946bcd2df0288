"""Spatial partitioning of a deployment field into owned tiles + halos.

A :class:`ShardPlan` cuts the deployment rectangle into a
``tiles_x x tiles_y`` grid.  Every node is *owned* by exactly one tile
(the one containing its position; ties on tile boundaries resolve by
coordinate truncation).
A tile's *members* are its owned nodes plus a halo: every node within
``halo`` meters of the tile rectangle.  With ``halo >= radio_range``,
the halo contains every radio neighbor of every owned node *and* every
planarization witness of every edge incident to an owned node (Gabriel /
RNG witnesses of an edge lie inside the lens of its endpoints, hence
within one radio range of both) — which is the geometric fact that makes
a shard's local forwarding decisions equal the global router's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geometry import Rect

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """An immutable tiling of ``field`` into ``tiles_x * tiles_y`` shards.

    Shard ids are row-major: shard ``iy * tiles_x + ix`` owns the tile at
    grid coordinates ``(ix, iy)``.
    """

    field: Rect
    tiles_x: int
    tiles_y: int
    halo: float

    def __post_init__(self) -> None:
        if self.tiles_x < 1 or self.tiles_y < 1:
            raise ConfigurationError(
                f"tile grid must be at least 1x1, got {self.tiles_x}x{self.tiles_y}"
            )
        if self.halo < 0:
            raise ConfigurationError(f"halo must be >= 0, got {self.halo}")
        if self.field.width < 0 or self.field.height < 0:
            raise ConfigurationError(f"degenerate field rectangle {self.field}")

    @classmethod
    def grid(cls, field: Rect, shards: int, *, halo: float) -> "ShardPlan":
        """The most-square ``shards``-tile grid over ``field``.

        Deterministic: among all factorizations ``tiles_x * tiles_y ==
        shards``, picks the one minimizing the tile aspect-ratio mismatch
        (ties resolve toward the smaller ``tiles_x``).
        """
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        best: tuple[float, int, int] | None = None
        for tiles_x in range(1, shards + 1):
            if shards % tiles_x:
                continue
            tiles_y = shards // tiles_x
            tile_w = field.width / tiles_x if field.width else 0.0
            tile_h = field.height / tiles_y if field.height else 0.0
            score = abs(tile_w - tile_h)
            if best is None or score < best[0]:
                best = (score, tiles_x, tiles_y)
        assert best is not None
        return cls(field=field, tiles_x=best[1], tiles_y=best[2], halo=halo)

    # ------------------------------------------------------------------ #
    # Geometry                                                           #
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> int:
        """Number of tiles."""
        return self.tiles_x * self.tiles_y

    @property
    def tile_width(self) -> float:
        return self.field.width / self.tiles_x

    @property
    def tile_height(self) -> float:
        return self.field.height / self.tiles_y

    def tile_rect(self, shard: int) -> Rect:
        """The owned rectangle of ``shard`` (halo not included)."""
        self._validate_shard(shard)
        ix = shard % self.tiles_x
        iy = shard // self.tiles_x
        return Rect(
            self.field.x_min + ix * self.tile_width,
            self.field.y_min + iy * self.tile_height,
            self.field.x_min + (ix + 1) * self.tile_width,
            self.field.y_min + (iy + 1) * self.tile_height,
        )

    def owner_of_nodes(self, positions: np.ndarray) -> np.ndarray:
        """Owning shard id per node, as an ``(n,)`` int array.

        A node on an interior tile boundary belongs to the higher tile
        (coordinate truncation), except on the field's far edges where it
        clips back into the last tile — every node has exactly one owner.
        """
        xs = positions[:, 0] - self.field.x_min
        ys = positions[:, 1] - self.field.y_min
        with np.errstate(divide="ignore", invalid="ignore"):
            ix = (
                np.clip((xs / self.tile_width).astype(int), 0, self.tiles_x - 1)
                if self.field.width
                else np.zeros(len(positions), dtype=int)
            )
            iy = (
                np.clip((ys / self.tile_height).astype(int), 0, self.tiles_y - 1)
                if self.field.height
                else np.zeros(len(positions), dtype=int)
            )
        return iy * self.tiles_x + ix

    def member_mask(self, shard: int, positions: np.ndarray) -> np.ndarray:
        """Boolean mask of the shard's members: owned nodes plus halo.

        A node is a member iff its distance to the tile rectangle is at
        most ``halo`` (owned nodes are at distance zero).
        """
        rect = self.tile_rect(shard)
        xs = positions[:, 0]
        ys = positions[:, 1]
        dx = np.maximum(np.maximum(rect.x_min - xs, xs - rect.x_max), 0.0)
        dy = np.maximum(np.maximum(rect.y_min - ys, ys - rect.y_max), 0.0)
        mask: np.ndarray = dx * dx + dy * dy <= self.halo * self.halo
        return mask

    def _validate_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise ConfigurationError(
                f"shard id {shard} outside plan of {self.shards} tiles"
            )
