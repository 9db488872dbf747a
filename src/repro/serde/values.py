"""Boxed engine value types (the AsterixDB ``AInt64``-style internals).

Inside the engine every field value is an :class:`AValue` subclass carrying
a type tag.  The FUDJ boundary unboxes these into plain Python objects
(ints, floats, strings, geometry/interval objects) and boxes results back;
that conversion is the translation-layer cost the paper measures in
§VII-B.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

from repro.errors import SerdeError
from repro.geometry import Point, Polygon, Rectangle
from repro.interval import Interval
from repro.trajectory import Trajectory


class AValue:
    """Base class of all boxed engine values.

    A value is immutable and carries its fields in ``__slots__``: no
    per-instance ``__dict__``.  Equality, hash and ``repr`` are what a
    frozen dataclass over the same fields gives (equal only to the same
    class, ``hash((field, ...))``, ``AInt64(value=5)``), so a boxed key
    routes an exchange exactly as it always did.
    """

    __slots__ = ()
    type_tag = "any"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def to_python(self):
        """Return the plain Python value this box wraps."""
        raise NotImplementedError


class ANull(AValue):
    """The SQL NULL value."""

    __slots__ = ()
    type_tag = "null"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self):
        return f"{self.__class__.__qualname__}()"

    def __reduce__(self):
        return (self.__class__, ())

    def to_python(self):
        return None


class _Scalar(AValue):
    """A value with one field, ``value``, which unboxes as it is."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        _set_value(self, value)

    def __eq__(self, other):
        # A tuple compare tests identity first: a NaN equals itself.
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(value={self.value!r})"

    def __reduce__(self):
        return (self.__class__, (self.value,))

    def to_python(self):
        return self.value


#: Sets the field of a new :class:`_Scalar` past the frozen ``__setattr__``.
_set_value = _Scalar.value.__set__


class ABoolean(_Scalar):
    __slots__ = ()
    type_tag = "boolean"


class AInt64(_Scalar):
    __slots__ = ()
    type_tag = "int64"


class ADouble(_Scalar):
    __slots__ = ()
    type_tag = "double"


class AString(_Scalar):
    __slots__ = ()
    type_tag = "string"


class AGeometry(_Scalar):
    """A boxed geometry (Point, Rectangle, or Polygon)."""

    __slots__ = ()
    type_tag = "geometry"


class AInterval(_Scalar):
    """A boxed interval; crosses the FUDJ boundary as an Interval object
    (the paper's "long array" of start/end, §VI-B, with structure kept)."""

    __slots__ = ()
    type_tag = "interval"


class AList(AValue):
    """A boxed ordered list of boxed values."""

    __slots__ = ("items",)
    type_tag = "list"

    def __init__(self, items: tuple) -> None:
        _set_items(self, items)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.items,) == (other.items,)
        return NotImplemented

    def __hash__(self):
        return hash((self.items,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(items={self.items!r})"

    def __reduce__(self):
        return (self.__class__, (self.items,))

    def to_python(self):
        return [item.to_python() for item in self.items]


_set_items = AList.items.__set__

NULL = ANull()
TRUE = ABoolean(True)
FALSE = ABoolean(False)

#: The box of each exact plain type that needs no other test (``bool`` is
#: not here: it boxes to the two shared constants).
_BOX_OF_TYPE = {
    int: AInt64,
    float: ADouble,
    str: AString,
    Point: AGeometry,
    Rectangle: AGeometry,
    Polygon: AGeometry,
    Trajectory: AGeometry,
    Interval: AInterval,
}


def box(value) -> AValue:
    """Box a plain Python value into the matching engine value type."""
    boxed = _BOX_OF_TYPE.get(type(value))
    if boxed is not None:
        return boxed(value)
    if value is None:
        return NULL
    if isinstance(value, AValue):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, int):
        return AInt64(value)
    if isinstance(value, float):
        return ADouble(value)
    if isinstance(value, str):
        return AString(value)
    if isinstance(value, (Point, Rectangle, Polygon, Trajectory)):
        return AGeometry(value)
    if isinstance(value, Interval):
        return AInterval(value)
    if isinstance(value, (list, tuple)):
        return AList(tuple(box(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return AList(tuple(box(v) for v in sorted(value)))
    raise SerdeError(f"cannot box value of type {type(value).__name__}: {value!r}")


def unbox(value):
    """Unbox an engine value to plain Python; passes plain values through.

    Accepting plain values makes operator code robust when literals are
    injected mid-plan without an explicit boxing step.
    """
    if isinstance(value, AValue):
        return value.to_python()
    return value
