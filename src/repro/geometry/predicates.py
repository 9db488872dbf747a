"""Type-dispatched spatial predicates (the ``ST_*`` functions of the paper).

These are the predicates that appear in the motivating queries:
``ST_Contains``, ``ST_Distance`` (via :func:`distance`) and the implicit
``intersects`` used by the Spatial FUDJ ``verify`` function.  They accept
any mix of :class:`Point`, :class:`Rectangle`, and :class:`Polygon`.
"""

from __future__ import annotations

import math

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon, _segments_intersect
from repro.geometry.rectangle import Rectangle

Geometry = object  # Point | Rectangle | Polygon


def mbr_of(geom) -> Rectangle:
    """Minimum bounding rectangle of any supported geometry.

    Anything exposing an ``mbr()`` method qualifies (trajectories and
    user-defined shapes included), so grid partitioning works for every
    spatially-extended type.
    """
    mbr = getattr(geom, "mbr", None)
    if callable(mbr):
        box = mbr()
        if isinstance(box, Rectangle):
            return box
    raise TypeError(f"not a geometry: {geom!r}")


def intersects(a, b) -> bool:
    """True if geometries ``a`` and ``b`` share at least one point."""
    if isinstance(a, Point) and isinstance(b, Point):
        return a == b
    if isinstance(a, Point):
        return contains(b, a)
    if isinstance(b, Point):
        return contains(a, b)
    if isinstance(a, Rectangle) and isinstance(b, Rectangle):
        return a.intersects(b)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return a.intersects_polygon(b)
    # Rectangle vs Polygon: convert the rectangle to a polygon ring once.
    if isinstance(a, Rectangle) and isinstance(b, Polygon):
        return _rect_polygon_intersects(a, b)
    if isinstance(a, Polygon) and isinstance(b, Rectangle):
        return _rect_polygon_intersects(b, a)
    raise TypeError(f"unsupported geometry pair: {type(a)}, {type(b)}")


def contains(outer, inner) -> bool:
    """True if ``outer`` fully contains ``inner`` (the paper's ST_Contains)."""
    if isinstance(outer, Rectangle):
        if isinstance(inner, Point):
            return outer.contains_point(inner)
        if isinstance(inner, Rectangle):
            return outer.contains_rectangle(inner)
        if isinstance(inner, Polygon):
            return outer.contains_rectangle(inner.mbr())
    if isinstance(outer, Polygon):
        if isinstance(inner, Point):
            return outer.contains_point(inner)
        if isinstance(inner, (Rectangle, Polygon)):
            # Sufficient test for simple polygons: every vertex inside and
            # no boundary crossing.
            verts = (
                _rect_vertices(inner) if isinstance(inner, Rectangle) else inner.vertices
            )
            if not all(outer.contains_point(v) for v in verts):
                return False
            inner_poly = (
                Polygon(_rect_vertices(inner)) if isinstance(inner, Rectangle) else inner
            )
            for a1, a2 in outer.edges():
                for b1, b2 in inner_poly.edges():
                    if _segments_intersect(a1, a2, b1, b2):
                        return False
            return True
    if isinstance(outer, Point):
        return isinstance(inner, Point) and outer == inner
    raise TypeError(f"unsupported geometry pair: {type(outer)}, {type(inner)}")


def distance(a, b) -> float:
    """Distance between two geometries (0.0 when they intersect).

    Point-point is exact Euclidean distance; for extended geometries we use
    the distance between their MBRs, which is what the paper's partitioning
    layer needs (the exact predicate runs in ``verify``).
    """
    if isinstance(a, Point) and isinstance(b, Point):
        return a.distance_to(b)
    ra, rb = mbr_of(a), mbr_of(b)
    dx = max(ra.x1 - rb.x2, rb.x1 - ra.x2, 0.0)
    dy = max(ra.y1 - rb.y2, rb.y1 - ra.y2, 0.0)
    return math.hypot(dx, dy)


def _rect_vertices(rect: Rectangle) -> tuple:
    return (
        Point(rect.x1, rect.y1),
        Point(rect.x2, rect.y1),
        Point(rect.x2, rect.y2),
        Point(rect.x1, rect.y2),
    )


def _rect_polygon_intersects(rect: Rectangle, poly: Polygon) -> bool:
    if not rect.intersects(poly.mbr()):
        return False
    # Any polygon vertex inside the rectangle, or any rectangle corner
    # inside the polygon, or any edge crossing.
    if any(rect.contains_point(v) for v in poly.vertices):
        return True
    if any(poly.contains_point(v) for v in _rect_vertices(rect)):
        return True
    rect_poly = Polygon(_rect_vertices(rect))
    return rect_poly.intersects_polygon(poly)
