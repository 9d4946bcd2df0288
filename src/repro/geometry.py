"""Planar geometry primitives shared by the routing and storage layers.

The module is deliberately dependency-light (pure Python + ``math``) because
these helpers sit on the hot path of GPSR forwarding decisions.  Everything
operates on simple ``(x, y)`` float pairs exposed through the :class:`Point`
named tuple, so callers may also pass plain tuples.

Conventions
-----------
* Coordinates are meters in a Euclidean plane.
* Angles are radians in ``[0, 2*pi)`` measured counterclockwise from +x.
* Rectangles are axis-aligned and half-open on no side: a :class:`Rect`
  contains its boundary (the storage layer applies half-open semantics on
  top where the paper requires them).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

__all__ = [
    "Point",
    "Rect",
    "distance",
    "distance_sq",
    "midpoint",
    "angle_of",
    "ccw_angle_from",
    "orientation",
    "segments_properly_intersect",
    "segment_intersection_point",
    "bounding_box",
]

_TWO_PI = 2.0 * math.pi


class Point(NamedTuple):
    """A point (or vector) in the deployment plane, in meters."""

    x: float
    y: float

    def __add__(self, other: object) -> "Point":  # type: ignore[override]
        if not isinstance(other, tuple):
            return NotImplemented
        ox, oy = other
        return Point(self.x + ox, self.y + oy)

    def __sub__(self, other: object) -> "Point":
        if not isinstance(other, tuple):
            return NotImplemented
        ox, oy = other
        return Point(self.x - ox, self.y - oy)

    def scaled(self, factor: float) -> "Point":
        """Return this point scaled about the origin by ``factor``."""
        return Point(self.x * factor, self.y * factor)


class Rect(NamedTuple):
    """An axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> Point:
        return Point(
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
        )

    @property
    def area(self) -> float:
        return max(0.0, self.width) * max(0.0, self.height)

    def contains(self, point: tuple[float, float]) -> bool:
        """Whether ``point`` lies in the rectangle (boundary inclusive)."""
        px, py = point
        return self.x_min <= px <= self.x_max and self.y_min <= py <= self.y_max

    def intersects(self, other: "Rect") -> bool:
        """Whether the closed rectangles share at least a boundary point."""
        return not (
            self.x_max < other.x_min
            or other.x_max < self.x_min
            or self.y_max < other.y_min
            or other.y_max < self.y_min
        )

    def clamp(self, point: tuple[float, float]) -> Point:
        """Return the point of the rectangle closest to ``point``."""
        px, py = point
        return Point(
            min(max(px, self.x_min), self.x_max),
            min(max(py, self.y_min), self.y_max),
        )

    def split_x(self) -> tuple["Rect", "Rect"]:
        """Split at the vertical midline: (left half, right half)."""
        mid = (self.x_min + self.x_max) / 2.0
        return (
            Rect(self.x_min, self.y_min, mid, self.y_max),
            Rect(mid, self.y_min, self.x_max, self.y_max),
        )

    def split_y(self) -> tuple["Rect", "Rect"]:
        """Split at the horizontal midline: (bottom half, top half)."""
        mid = (self.y_min + self.y_max) / 2.0
        return (
            Rect(self.x_min, self.y_min, self.x_max, mid),
            Rect(self.x_min, mid, self.x_max, self.y_max),
        )


def distance_sq(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Squared Euclidean distance (no sqrt; use for comparisons)."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Euclidean distance between two points."""
    return math.sqrt(distance_sq(a, b))


def midpoint(a: tuple[float, float], b: tuple[float, float]) -> Point:
    """Midpoint of segment ``ab``."""
    return Point((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)


def angle_of(origin: tuple[float, float], target: tuple[float, float]) -> float:
    """Angle of the vector ``origin -> target`` in ``[0, 2*pi)``."""
    angle = math.atan2(target[1] - origin[1], target[0] - origin[0])
    if angle < 0.0:
        angle += _TWO_PI
    if angle >= _TWO_PI:  # -epsilon wrapped to exactly 2*pi in float
        angle = 0.0
    return angle


def ccw_angle_from(reference: float, angle: float) -> float:
    """Counterclockwise sweep from ``reference`` to ``angle``, in ``(0, 2*pi]``.

    GPSR's right-hand rule picks the neighbor whose edge is the *first one
    counterclockwise* from the incoming edge; a sweep of exactly ``0`` is
    mapped to ``2*pi`` so the incoming edge itself sorts last.
    """
    sweep = (angle - reference) % _TWO_PI
    # Exact sentinel: % can return exactly 0.0, which must map to 2*pi.
    if sweep == 0.0:  # repro-lint: ignore[REP004]
        sweep = _TWO_PI
    return sweep


def orientation(
    a: tuple[float, float], b: tuple[float, float], c: tuple[float, float]
) -> int:
    """Orientation of the triple ``(a, b, c)``.

    Returns ``1`` for counterclockwise, ``-1`` for clockwise and ``0`` for
    collinear points.
    """
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if cross > 0.0:
        return 1
    if cross < 0.0:
        return -1
    return 0


def segments_properly_intersect(
    p1: tuple[float, float],
    p2: tuple[float, float],
    q1: tuple[float, float],
    q2: tuple[float, float],
) -> bool:
    """Whether segments ``p1p2`` and ``q1q2`` cross at an interior point.

    Shared endpoints do **not** count as an intersection; GPSR's face-change
    test needs proper crossings only (a perimeter edge that merely touches
    the ``Lp -> destination`` line must not trigger a face change).
    """
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def segment_intersection_point(
    p1: tuple[float, float],
    p2: tuple[float, float],
    q1: tuple[float, float],
    q2: tuple[float, float],
) -> Point | None:
    """Intersection point of segments ``p1p2`` and ``q1q2``, or ``None``.

    Unlike :func:`segments_properly_intersect` this also reports touching
    intersections when the lines are not parallel; collinear overlaps return
    ``None`` (GPSR treats those as no crossing).
    """
    r_x, r_y = p2[0] - p1[0], p2[1] - p1[1]
    s_x, s_y = q2[0] - q1[0], q2[1] - q1[1]
    denom = r_x * s_y - r_y * s_x
    # Exact zero guard against the division below, not a tolerance test.
    if denom == 0.0:  # repro-lint: ignore[REP004]
        return None
    qp_x, qp_y = q1[0] - p1[0], q1[1] - p1[1]
    t = (qp_x * s_y - qp_y * s_x) / denom
    u = (qp_x * r_y - qp_y * r_x) / denom
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return Point(p1[0] + t * r_x, p1[1] + t * r_y)
    return None


def bounding_box(points: Iterable[tuple[float, float]]) -> Rect:
    """Tight axis-aligned bounding box of a non-empty point collection."""
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("bounding_box() requires at least one point") from None
    x_min = x_max = first[0]
    y_min = y_max = first[1]
    for px, py in iterator:
        x_min = min(x_min, px)
        x_max = max(x_max, px)
        y_min = min(y_min, py)
        y_max = max(y_max, py)
    return Rect(x_min, y_min, x_max, y_max)
