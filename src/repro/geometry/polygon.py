"""Simple polygons with ray-casting containment and edge intersection."""

from __future__ import annotations

import math

from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle


class Polygon:
    """A simple (non-self-intersecting) polygon given by its vertex ring.

    The ring does not need to be explicitly closed: an edge from the last
    vertex back to the first is implied.  The MBR is precomputed because
    the PBSM partitioning phase touches it for every record.
    """

    __slots__ = ("vertices", "_mbr")

    def __init__(self, vertices) -> None:
        self.vertices = tuple(
            v if isinstance(v, Point) else Point(v[0], v[1]) for v in vertices
        )
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")
        self._mbr = Rectangle.from_points(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self.vertices)} vertices, mbr={self._mbr.as_tuple()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def mbr(self) -> Rectangle:
        """The precomputed minimum bounding rectangle."""
        return self._mbr

    def contains_point(self, p: Point) -> bool:
        """Ray-casting point-in-polygon test (boundary counts as inside)."""
        if not self._mbr.contains_point(p):
            return False
        inside = False
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if _on_segment(a, b, p):
                return True
            if (a.y > p.y) != (b.y > p.y):
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if p.x < x_cross:
                    inside = not inside
        return inside

    def edges(self):
        """Yield the polygon's edges as ``(Point, Point)`` pairs."""
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def intersects_polygon(self, other: "Polygon") -> bool:
        """True if the polygons share any point (edge crossing or nesting)."""
        if not self._mbr.intersects(other._mbr):
            return False
        for a1, a2 in self.edges():
            for b1, b2 in other.edges():
                if _segments_intersect(a1, a2, b1, b2):
                    return True
        # No edge crossings: one polygon may be nested inside the other.
        return self.contains_point(other.vertices[0]) or other.contains_point(
            self.vertices[0]
        )

    def as_tuple(self) -> tuple:
        """Return the vertex ring as a tuple of ``(x, y)`` pairs."""
        return tuple(v.as_tuple() for v in self.vertices)

    @staticmethod
    def regular(center: Point, radius: float, sides: int = 6) -> "Polygon":
        """Build a regular polygon, handy for synthetic park boundaries."""
        if sides < 3:
            raise ValueError("a polygon needs at least three sides")
        step = 2.0 * math.pi / sides
        return Polygon(
            Point(
                center.x + radius * math.cos(i * step),
                center.y + radius * math.sin(i * step),
            )
            for i in range(sides)
        )


def _orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b - a) x (c - a): -1, 0, or 1."""
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """True if ``p`` lies on the closed segment ``a-b``."""
    if _orientation(a, b, p) != 0:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(
        a.y, b.y
    )


def _segments_intersect(a1: Point, a2: Point, b1: Point, b2: Point) -> bool:
    """Closed-segment intersection test, including collinear overlap."""
    o1 = _orientation(a1, a2, b1)
    o2 = _orientation(a1, a2, b2)
    o3 = _orientation(b1, b2, a1)
    o4 = _orientation(b1, b2, a2)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and _on_segment(a1, a2, b1))
        or (o2 == 0 and _on_segment(a1, a2, b2))
        or (o3 == 0 and _on_segment(b1, b2, a1))
        or (o4 == 0 and _on_segment(b1, b2, a2))
    )
