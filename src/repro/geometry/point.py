"""A 2D point geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: ``rectangle.py`` imports this module, so :meth:`Point.mbr` binds the
#: class here on its first call instead of importing it on every one.
_Rectangle = None


@dataclass(frozen=True, order=True)
class Point:
    """An immutable point in the plane.

    Points are ordered lexicographically by ``(x, y)`` so they can be used
    directly as sort keys in plane-sweep algorithms.
    """

    x: float
    y: float

    def mbr(self) -> "Rectangle":
        """Return the degenerate minimum bounding rectangle of this point."""
        global _Rectangle
        if _Rectangle is None:
            from repro.geometry.rectangle import Rectangle as _Rectangle
        return _Rectangle(self.x, self.y, self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translate(self, dx: float, dy: float) -> "Point":
        """Return this point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple:
        """Return ``(x, y)``, useful for serialization."""
        return (self.x, self.y)
