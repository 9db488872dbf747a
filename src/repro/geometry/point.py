"""A 2D point geometry."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError

#: ``rectangle.py`` imports this module, so :meth:`Point.mbr` binds the
#: class here on its first call instead of importing it on every one.
_Rectangle = None


class Point:
    """An immutable point in the plane.

    Points are ordered lexicographically by ``(x, y)`` so they can be used
    directly as sort keys in plane-sweep algorithms.  Equality, ordering,
    hash and ``repr`` are those of a frozen, ordered dataclass over
    ``(x, y)``; the fields live in ``__slots__``.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        _set_x(self, x)
        _set_y(self, y)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) < (other.x, other.y)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) <= (other.x, other.y)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) > (other.x, other.y)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) >= (other.x, other.y)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        return (self.__class__, (self.x, self.y))

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


_set_x = Point.x.__set__
_set_y = Point.y.__set__
