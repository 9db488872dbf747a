"""Half-open time intervals and their overlap predicate.

The paper treats intervals as ``(start, end)`` pairs (converted internally
to long arrays, §VI-B) with the overlap condition
``i1.start < i2.end and i1.end > i2.start``.  We keep the same convention:
intervals are half-open-ish in the sense that merely touching endpoints do
NOT overlap, matching the paper's ``verify`` pseudocode.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Interval:
    """An immutable time interval with ``start <= end``.

    Ordering is by ``(start, end)`` so lists of intervals can be sorted for
    merge-style algorithms.  Equality, ordering, hash and ``repr`` are
    those of a frozen, ordered dataclass over ``(start, end)``; the
    fields live in ``__slots__``.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"interval end before start: ({start}, {end})")
        _set_start(self, start)
        _set_end(self, end)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) == (other.start, other.end)
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) < (other.start, other.end)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) <= (other.start, other.end)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) > (other.start, other.end)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) >= (other.start, other.end)
        return NotImplemented

    def __hash__(self):
        return hash((self.start, self.end))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(start={self.start!r}, "
                f"end={self.end!r})")

    def __reduce__(self):
        return (self.__class__, (self.start, self.end))

    @property
    def length(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """Paper's overlap predicate: strict on both sides."""
        return self.start < other.end and self.end > other.start

    def contains_point(self, t: float) -> bool:
        """True if ``t`` lies in the closed interval."""
        return self.start <= t <= self.end

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlapping sub-interval, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        return Interval(max(self.start, other.start), min(self.end, other.end))

    def shift(self, delta: float) -> "Interval":
        """Return this interval translated by ``delta``."""
        return Interval(self.start + delta, self.end + delta)

    def as_tuple(self) -> tuple:
        """Return ``(start, end)`` — the long-array form of paper §VI-B."""
        return (self.start, self.end)


_set_start = Interval.start.__set__
_set_end = Interval.end.__set__


def intervals_overlap(a: Interval, b: Interval) -> bool:
    """Module-level alias of :meth:`Interval.overlaps` for the function
    registry (the SQL ``interval_overlapping`` builtin)."""
    return a.overlaps(b)
