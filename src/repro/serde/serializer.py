"""Compact binary wire format for boxed values and records.

Spill files, saved datasets and the process pool's pipes carry records in
this format.  The exchange operators size every record they move by it:
:func:`encoded_size` counts a value's bytes from the layout, equal to the
length :func:`serialize_value` would write, and those counts feed the
network term of the cost model.

Layout: one type byte followed by a type-specific body.  Variable-length
bodies carry a 4-byte big-endian length prefix.
"""

from __future__ import annotations

import struct

from repro.errors import SerdeError
from repro.geometry import Point, Polygon, Rectangle
from repro.interval import Interval
from repro.trajectory import Trajectory
from repro.serde.values import (
    ABoolean,
    ADouble,
    AGeometry,
    AInt64,
    AInterval,
    AList,
    ANull,
    AString,
    AValue,
    NULL,
)

_TAG_NULL = b"\x00"
_TAG_TRUE = b"\x01"
_TAG_FALSE = b"\x02"
_TAG_INT64 = b"\x03"
_TAG_DOUBLE = b"\x04"
_TAG_STRING = b"\x05"
_TAG_POINT = b"\x06"
_TAG_RECTANGLE = b"\x07"
_TAG_POLYGON = b"\x08"
_TAG_INTERVAL = b"\x09"
_TAG_LIST = b"\x0a"
_TAG_TRAJECTORY = b"\x0b"

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_POINT = struct.Struct(">dd")
_RECT = struct.Struct(">dddd")
_INTERVAL = struct.Struct(">dd")
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: What a value the format cannot encode (an opaque intra-engine value:
#: a partial aggregate state, a PPlan handle) counts for on the wire.
_OPAQUE_SIZE = 16
#: Encoded size of each value type whose size the type alone fixes.
_FIXED_SIZE = {ANull: 1, ABoolean: 1, ADouble: 1 + 8, AInterval: 1 + 16}


def serialize_value(value: AValue, out: bytearray) -> None:
    """Append the binary encoding of ``value`` to ``out``."""
    if isinstance(value, ANull):
        out += _TAG_NULL
    elif isinstance(value, ABoolean):
        out += _TAG_TRUE if value.value else _TAG_FALSE
    elif isinstance(value, AInt64):
        try:  # packed before the tag, so a refused int writes nothing
            body = _I64.pack(value.value)
        except struct.error as exc:  # outside the int64 range
            raise SerdeError(
                f"cannot serialize {value.value} as int64: {exc}") from None
        out += _TAG_INT64
        out += body
    elif isinstance(value, ADouble):
        out += _TAG_DOUBLE
        out += _F64.pack(value.value)
    elif isinstance(value, AString):
        data = value.value.encode("utf-8")
        out += _TAG_STRING
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, AGeometry):
        _serialize_geometry(value.value, out)
    elif isinstance(value, AInterval):
        out += _TAG_INTERVAL
        out += _INTERVAL.pack(value.value.start, value.value.end)
    elif isinstance(value, AList):
        out += _TAG_LIST
        out += _U32.pack(len(value.items))
        for item in value.items:
            serialize_value(item, out)
    else:
        raise SerdeError(f"cannot serialize value of type {type(value).__name__}")


def _serialize_geometry(geom, out: bytearray) -> None:
    if isinstance(geom, Point):
        out += _TAG_POINT
        out += _POINT.pack(geom.x, geom.y)
    elif isinstance(geom, Rectangle):
        out += _TAG_RECTANGLE
        out += _RECT.pack(geom.x1, geom.y1, geom.x2, geom.y2)
    elif isinstance(geom, Polygon):
        out += _TAG_POLYGON
        out += _U32.pack(len(geom.vertices))
        for v in geom.vertices:
            out += _POINT.pack(v.x, v.y)
    elif isinstance(geom, Trajectory):
        out += _TAG_TRAJECTORY
        out += _U32.pack(len(geom.points))
        for v in geom.points:
            out += _POINT.pack(v.x, v.y)
    else:
        raise SerdeError(f"cannot serialize geometry of type {type(geom).__name__}")


def encoded_size(value) -> int:
    """Bytes ``value`` adds to a row on the wire, counted from the layout.

    Equal to the length :func:`serialize_value` writes.  A value it
    cannot encode counts as a 16-byte blob, after whatever bytes were
    written before it failed (a list holding one).  Only a value whose
    size its type does not fix (a list, a subclass) is serialized into a
    scratch buffer to be measured.
    """
    kind = type(value)
    size = _FIXED_SIZE.get(kind)
    if size is not None:
        return size
    if kind is AString:
        text = value.value
        return 5 + (len(text) if text.isascii() else len(text.encode("utf-8")))
    if kind is AInt64:
        if _INT64_MIN <= value.value <= _INT64_MAX:
            return 1 + 8
    elif kind is AGeometry:
        geom = value.value
        shape = type(geom)
        if shape is Point:
            return 1 + 16
        if shape is Rectangle:
            return 1 + 32
        if shape is Polygon:
            return 5 + 16 * len(geom.vertices)
        if shape is Trajectory:
            return 5 + 16 * len(geom.points)
    elif not isinstance(value, AValue):
        return _OPAQUE_SIZE
    buf = bytearray()
    try:
        serialize_value(value, buf)
    except SerdeError:
        return len(buf) + _OPAQUE_SIZE
    return len(buf)


def deserialize_value(data, offset: int = 0):
    """Decode one value from ``data`` at ``offset``.

    Returns:
        ``(AValue, next_offset)``.
    """
    tag = data[offset : offset + 1]
    offset += 1
    if tag == _TAG_NULL:
        return NULL, offset
    if tag == _TAG_TRUE:
        return ABoolean(True), offset
    if tag == _TAG_FALSE:
        return ABoolean(False), offset
    if tag == _TAG_INT64:
        (v,) = _I64.unpack_from(data, offset)
        return AInt64(v), offset + 8
    if tag == _TAG_DOUBLE:
        (v,) = _F64.unpack_from(data, offset)
        return ADouble(v), offset + 8
    if tag == _TAG_STRING:
        (n,) = _U32.unpack_from(data, offset)
        offset += 4
        text = bytes(data[offset : offset + n]).decode("utf-8")
        return AString(text), offset + n
    if tag == _TAG_POINT:
        x, y = _POINT.unpack_from(data, offset)
        return AGeometry(Point(x, y)), offset + 16
    if tag == _TAG_RECTANGLE:
        x1, y1, x2, y2 = _RECT.unpack_from(data, offset)
        return AGeometry(Rectangle(x1, y1, x2, y2)), offset + 32
    if tag == _TAG_POLYGON:
        (n,) = _U32.unpack_from(data, offset)
        offset += 4
        vertices = []
        for _ in range(n):
            x, y = _POINT.unpack_from(data, offset)
            vertices.append(Point(x, y))
            offset += 16
        return AGeometry(Polygon(vertices)), offset
    if tag == _TAG_TRAJECTORY:
        (n,) = _U32.unpack_from(data, offset)
        offset += 4
        points = []
        for _ in range(n):
            x, y = _POINT.unpack_from(data, offset)
            points.append(Point(x, y))
            offset += 16
        return AGeometry(Trajectory(points)), offset
    if tag == _TAG_INTERVAL:
        start, end = _INTERVAL.unpack_from(data, offset)
        return AInterval(Interval(start, end)), offset + 16
    if tag == _TAG_LIST:
        (n,) = _U32.unpack_from(data, offset)
        offset += 4
        items = []
        for _ in range(n):
            item, offset = deserialize_value(data, offset)
            items.append(item)
        return AList(tuple(items)), offset
    raise SerdeError(f"unknown type tag: {tag!r} at offset {offset - 1}")
