"""Serialization substrate: boxed engine values and the FUDJ boundary.

A real DBMS stores typed, serialized values (AsterixDB's ``AInt64`` etc.).
FUDJ user code, by contrast, wants plain language values (paper Figure 7).
This package provides:

- :mod:`repro.serde.values` — the engine's boxed value types,
- :mod:`repro.serde.serializer` — a compact binary wire format; the
  exchange operators count shuffle bytes from it,
- :mod:`repro.serde.translator` — the proxy built-in function translation
  layer that unboxes engine values into plain Python values for the FUDJ
  library and boxes results back.
"""

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
    box,
    unbox,
)
from repro.serde.serializer import (
    deserialize_value,
    encoded_size,
    serialize_value,
)
from repro.serde.translator import Translator

__all__ = [
    "AValue",
    "ANull",
    "ABoolean",
    "AInt64",
    "ADouble",
    "AString",
    "AGeometry",
    "AInterval",
    "AList",
    "box",
    "unbox",
    "serialize_value",
    "deserialize_value",
    "encoded_size",
    "Translator",
]
