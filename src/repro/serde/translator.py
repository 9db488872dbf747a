"""The FUDJ translation layer (paper Figure 7).

A *proxy built-in function* sits between the engine and the user's FUDJ
library: engine-internal boxed values are converted into plain Python
values before each FUDJ callback, and results are boxed back on return.
The translator counts conversions so that the FUDJ-vs-built-in overhead of
paper §VII-B is measurable rather than asserted.
"""

from __future__ import annotations

from repro.serde.values import AValue, box, unbox


class Translator:
    """Converts values at the engine/FUDJ boundary and counts the work.

    Attributes:
        unbox_count: number of engine→Python conversions performed.
        box_count: number of Python→engine conversions performed.
    """

    __slots__ = ("unbox_count", "box_count")

    def __init__(self) -> None:
        self.unbox_count = 0
        self.box_count = 0

    def to_external(self, value):
        """Engine value → plain Python value for the FUDJ library."""
        self.unbox_count += 1
        return unbox(value)

    def to_external_all(self, values) -> list:
        """:meth:`to_external` over a whole column (an iterable of engine
        values), counted as one batch."""
        column = [value.to_python() if isinstance(value, AValue) else value
                  for value in values]
        self.unbox_count += len(column)
        return column

    def to_internal(self, value) -> AValue:
        """Plain Python value → engine value."""
        self.box_count += 1
        return box(value)

    @property
    def total_conversions(self) -> int:
        return self.unbox_count + self.box_count

    def reset(self) -> None:
        self.unbox_count = 0
        self.box_count = 0
