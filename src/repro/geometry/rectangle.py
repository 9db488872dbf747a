"""Axis-aligned rectangles (minimum bounding rectangles)."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

from repro.geometry.point import Point


class Rectangle:
    """A closed, axis-aligned rectangle ``[x1, x2] x [y1, y2]``.

    Degenerate rectangles (zero width and/or height) are allowed; a point's
    MBR is one of those.  Construction validates that the bounds are
    ordered.  Equality, hash and ``repr`` are those of a frozen dataclass
    over ``(x1, y1, x2, y2)``; the fields live in ``__slots__``.
    """

    __slots__ = ("x1", "y1", "x2", "y2")

    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        if x2 < x1 or y2 < y1:
            raise ValueError(f"invalid rectangle: ({x1}, {y1}, {x2}, {y2})")
        _set_x1(self, x1)
        _set_y1(self, y1)
        _set_x2(self, x2)
        _set_y2(self, y2)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.x1, self.y1, self.x2, self.y2)
                    == (other.x1, other.y1, other.x2, other.y2))
        return NotImplemented

    def __hash__(self):
        return hash((self.x1, self.y1, self.x2, self.y2))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(x1={self.x1!r}, "
                f"y1={self.y1!r}, x2={self.x2!r}, y2={self.y2!r})")

    def __reduce__(self):
        return (self.__class__, (self.x1, self.y1, self.x2, self.y2))

    # -- basic measures ----------------------------------------------------

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def center(self) -> Point:
        """Return the center point of the rectangle."""
        return Point((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def mbr(self) -> "Rectangle":
        """A rectangle is its own MBR."""
        return self

    # -- predicates ---------------------------------------------------------

    def intersects(self, other: "Rectangle") -> bool:
        """True if the two (closed) rectangles share at least one point."""
        return (
            self.x1 <= other.x2
            and self.x2 >= other.x1
            and self.y1 <= other.y2
            and self.y2 >= other.y1
        )

    def contains_point(self, p: Point) -> bool:
        """True if ``p`` lies inside or on the boundary of this rectangle."""
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2

    def contains_rectangle(self, other: "Rectangle") -> bool:
        """True if ``other`` is completely inside this rectangle."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    # -- constructive operations ---------------------------------------------

    def union(self, other: "Rectangle") -> "Rectangle":
        """Smallest rectangle covering both rectangles (the MBR merge)."""
        return Rectangle(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def cover(self, geometry) -> "Rectangle":
        """``self.union(mbr_of(geometry))``, building nothing it can skip.

        A :class:`Point` is bounded from its coordinates (an exact
        ``Point``: a subclass may define its own ``mbr()``), and ``self``
        is returned as it is when it already covers the geometry, so
        folding a side's keys into its MBR allocates only when it grows.
        """
        if type(geometry) is Point:
            x1 = x2 = geometry.x
            y1 = y2 = geometry.y
        else:
            box = mbr_of(geometry)
            x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
        if x1 < self.x1 or y1 < self.y1 or x2 > self.x2 or y2 > self.y2:
            return Rectangle(min(self.x1, x1), min(self.y1, y1),
                             max(self.x2, x2), max(self.y2, y2))
        return self

    def intersection(self, other: "Rectangle") -> "Rectangle | None":
        """The overlap region, or ``None`` when the rectangles are disjoint."""
        if not self.intersects(other):
            return None
        return Rectangle(
            max(self.x1, other.x1),
            max(self.y1, other.y1),
            min(self.x2, other.x2),
            min(self.y2, other.y2),
        )

    def expand(self, margin: float) -> "Rectangle":
        """Grow the rectangle by ``margin`` on every side."""
        return Rectangle(
            self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin
        )

    def as_tuple(self) -> tuple:
        """Return ``(x1, y1, x2, y2)``, useful for serialization."""
        return (self.x1, self.y1, self.x2, self.y2)

    @staticmethod
    def from_points(points) -> "Rectangle":
        """MBR of a non-empty iterable of :class:`Point`."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("cannot compute the MBR of zero points") from None
        x1 = x2 = first.x
        y1 = y2 = first.y
        for p in it:
            x1 = min(x1, p.x)
            y1 = min(y1, p.y)
            x2 = max(x2, p.x)
            y2 = max(y2, p.y)
        return Rectangle(x1, y1, x2, y2)


_set_x1 = Rectangle.x1.__set__
_set_y1 = Rectangle.y1.__set__
_set_x2 = Rectangle.x2.__set__
_set_y2 = Rectangle.y2.__set__


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
