"""The Trajectory type and its distance measures.

A trajectory is an ordered sequence of sampled positions.  Two measures
matter for joins:

- :func:`min_distance` — how close the two trajectories ever get
  (the *proximity join* predicate: "vehicles that passed within eps");
- :func:`hausdorff_distance` — how similar the paths are as shapes
  (the *similarity join* predicate).

Both are computed over the sample points, which is the standard discrete
approximation in the trajectory-join literature.
"""

from __future__ import annotations

from repro.geometry import Point, Rectangle
from repro.geometry.polygon import _segments_intersect


class Trajectory:
    """An immutable, ordered sequence of at least one sample point.

    The MBR is precomputed — grid partitioning touches it per record.
    """

    __slots__ = ("points", "_mbr")

    def __init__(self, points) -> None:
        self.points = tuple(
            p if isinstance(p, Point) else Point(p[0], p[1]) for p in points
        )
        if not self.points:
            raise ValueError("a trajectory needs at least one point")
        self._mbr = Rectangle.from_points(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trajectory) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"Trajectory({len(self.points)} points, mbr={self._mbr.as_tuple()})"

    def mbr(self) -> Rectangle:
        """The precomputed minimum bounding rectangle."""
        return self._mbr

    def length(self) -> float:
        """Total path length along the samples."""
        return sum(
            self.points[i].distance_to(self.points[i + 1])
            for i in range(len(self.points) - 1)
        )

    def as_tuple(self) -> tuple:
        """The sample points as ``(x, y)`` pairs (serialization form)."""
        return tuple(p.as_tuple() for p in self.points)


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from ``p`` to the closed segment ``a-b``."""
    dx, dy = b.x - a.x, b.y - a.y
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return p.distance_to(a)
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / length_sq
    # An endpoint is measured to as given: ``a + 1 * (b - a)`` can lose
    # ``b``'s bits when ``a`` is far larger (``1.0 + (2.4e-26 - 1.0)`` is
    # ``0.0``).
    if t <= 0.0:
        return p.distance_to(a)
    if t >= 1.0:
        return p.distance_to(b)
    return p.distance_to(Point(a.x + t * dx, a.y + t * dy))


def segment_distance(a1: Point, a2: Point, b1: Point, b2: Point) -> float:
    """Distance between two closed segments (0.0 when they cross)."""
    if _segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(
        _point_segment_distance(a1, b1, b2),
        _point_segment_distance(a2, b1, b2),
        _point_segment_distance(b1, a1, a2),
        _point_segment_distance(b2, a1, a2),
    )


def min_distance(a: Trajectory, b: Trajectory) -> float:
    """Smallest distance between the two polylines.

    Computed segment-to-segment (not just over the sample points), so two
    routes that *cross* between samples correctly measure 0 — the case a
    point-sample approximation misses.  Degenerate single-point
    trajectories fall back to point-segment distance.  A segment pair
    whose bounding boxes are already farther apart than the best distance
    so far cannot improve on it and is skipped.
    """
    boxed_b = _boxed_segments(b)
    best = best_sq = float("inf")
    for a1, a2, ax0, ax1, ay0, ay1 in _boxed_segments(a):
        for b1, b2, bx0, bx1, by0, by1 in boxed_b:
            gap_x = max(bx0 - ax1, ax0 - bx1, 0.0)
            gap_y = max(by0 - ay1, ay0 - by1, 0.0)
            if gap_x * gap_x + gap_y * gap_y > best_sq:
                continue
            d = segment_distance(a1, a2, b1, b2)
            if d < best:
                if d == 0.0:
                    return 0.0
                best, best_sq = d, d * d
    return best


def _segments_of(t: Trajectory) -> list:
    """The polyline's segments; a single point yields one degenerate
    segment so distance code has a uniform shape to work with."""
    if len(t.points) == 1:
        return [(t.points[0], t.points[0])]
    return [(t.points[i], t.points[i + 1]) for i in range(len(t.points) - 1)]


def _boxed_segments(t: Trajectory) -> list:
    """Each segment with its bounding box: ``(p, q, x0, x1, y0, y1)``."""
    return [(p, q, min(p.x, q.x), max(p.x, q.x), min(p.y, q.y), max(p.y, q.y))
            for p, q in _segments_of(t)]


def hausdorff_distance(a: Trajectory, b: Trajectory) -> float:
    """Discrete Hausdorff distance between the two sample sets.

    ``max(h(a, b), h(b, a))`` where ``h(x, y)`` is the largest
    nearest-neighbour distance from a sample of ``x`` to ``y``.
    """

    def directed(xs, ys) -> float:
        worst = 0.0
        for p in xs:
            nearest = min(p.distance_to(q) for q in ys)
            if nearest > worst:
                worst = nearest
        return worst

    return max(directed(a.points, b.points), directed(b.points, a.points))
