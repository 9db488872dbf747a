"""Unit tests for the binary wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.record import serialized_values_size
from repro.errors import SerdeError
from repro.geometry import Point, Polygon, Rectangle
from repro.interval import Interval
from repro.serde import (
    ADouble,
    AGeometry,
    AInt64,
    AInterval,
    AList,
    AString,
    box,
    deserialize_value,
    encoded_size,
    serialize_value,
)
from repro.serde import serializer
from repro.serde.values import FALSE, NULL, TRUE
from repro.trajectory import Trajectory


def roundtrip(value):
    boxed = box(value)
    buf = bytearray()
    serialize_value(boxed, buf)
    decoded, offset = deserialize_value(bytes(buf))
    assert offset == len(buf)
    return decoded.to_python()


class TestRoundtrip:
    @pytest.mark.parametrize("value", [
        None,
        True,
        False,
        0,
        -1,
        2 ** 40,
        -(2 ** 40),
        0.0,
        -1.5,
        3.141592653589793,
        "",
        "hello",
        "unicode: żółć 漢字",
        "quote 'inside'",
    ])
    def test_scalars(self, value):
        assert roundtrip(value) == value

    def test_point(self):
        assert roundtrip(Point(1.25, -2.5)) == Point(1.25, -2.5)

    def test_rectangle(self):
        r = Rectangle(0.0, -1.0, 2.5, 3.5)
        assert roundtrip(r) == r

    def test_polygon(self):
        poly = Polygon([(0, 0), (4, 0), (2, 3.5)])
        assert roundtrip(poly) == poly

    def test_interval(self):
        assert roundtrip(Interval(1.5, 9.5)) == Interval(1.5, 9.5)

    def test_list(self):
        assert roundtrip([1, "two", 3.0]) == [1, "two", 3.0]

    def test_nested_list(self):
        assert roundtrip([[1, 2], ["a"]]) == [[1, 2], ["a"]]

    def test_empty_list(self):
        assert roundtrip([]) == []


class TestSizes:
    def test_null_is_one_byte(self):
        assert encoded_size(box(None)) == 1

    def test_int_is_nine_bytes(self):
        assert encoded_size(box(7)) == 9

    def test_string_size_scales(self):
        assert encoded_size(box("aaaa")) - encoded_size(box("aa")) == 2

    def test_polygon_size_scales_with_vertices(self):
        small = Polygon([(0, 0), (1, 0), (0, 1)])
        big = Polygon([(0, 0), (1, 0), (1, 1), (0.5, 1.5), (0, 1)])
        assert encoded_size(box(big)) > encoded_size(box(small))


class TestErrors:
    def test_unknown_tag(self):
        with pytest.raises(SerdeError):
            deserialize_value(b"\xff")

    def test_multiple_values_in_one_buffer(self):
        buf = bytearray()
        serialize_value(box(1), buf)
        serialize_value(box("two"), buf)
        first, offset = deserialize_value(bytes(buf))
        second, end = deserialize_value(bytes(buf), offset)
        assert first.to_python() == 1
        assert second.to_python() == "two"
        assert end == len(buf)

    def test_an_int_outside_int64_raises_before_writing(self):
        for value in (2 ** 63, -(2 ** 63) - 1, 2 ** 70):
            buf = bytearray(b"kept")
            with pytest.raises(SerdeError, match="as int64"):
                serialize_value(box(value), buf)
            assert buf == b"kept"

    def test_the_int64_bounds_serialize(self):
        for value in (2 ** 63 - 1, -(2 ** 63)):
            assert roundtrip(value) == value


# -- encoded_size: the wire size counted from the format --------------------------


def scratch_buffer_size(values) -> int:
    """How a row was sized before ``encoded_size``: serialized into a
    scratch buffer, a value the format cannot encode counted as a
    16-byte blob after whatever bytes it had written."""
    buf = bytearray()
    opaque = 0
    for value in values:
        try:
            serialize_value(value, buf)
        except SerdeError:
            opaque += 1
    return len(buf) + 16 * opaque


def outcome(function, argument):
    """The value ``function(argument)`` returns, or the class it raises."""
    try:
        return function(argument)
    except Exception as exc:  # noqa: BLE001 - the class is the answer
        return type(exc)


class Opaque:
    """An intra-engine value the wire format has no tag for."""


class TaggedString(AString):
    """A subclass: sized through the scratch buffer, as before."""


any_float = st.floats()
int64_edges = st.sampled_from([-(2 ** 63), 2 ** 63 - 1, -(2 ** 63) - 1, 2 ** 63])
points = st.builds(Point, any_float, any_float)


@st.composite
def rectangles(draw):
    x1, y1 = draw(any_float), draw(any_float)
    x2, y2 = draw(any_float), draw(any_float)
    if x2 < x1:
        x1, x2 = x2, x1
    if y2 < y1:
        y1, y2 = y2, y1
    return Rectangle(x1, y1, x2, y2)


@st.composite
def intervals(draw):
    start, end = sorted(draw(st.lists(
        st.floats(allow_nan=False), min_size=2, max_size=2)))
    return Interval(start, end)


opaque_values = st.one_of(
    st.none(), st.integers(), st.text(max_size=5), st.just(Opaque()),
    st.tuples(st.integers()), st.builds(AGeometry, st.integers()))

leaf_values = st.one_of(
    st.just(NULL), st.just(TRUE), st.just(FALSE),
    st.builds(AInt64, st.one_of(st.integers(), int64_edges)),
    st.builds(ADouble, any_float),
    st.builds(AString, st.text(max_size=20)),
    st.builds(AString, st.text(st.characters(codec="ascii"), max_size=20)),
    st.builds(AString, st.text(st.characters(categories=["Cs"]),
                               min_size=1, max_size=3)),
    st.builds(TaggedString, st.text(max_size=8)),
    st.builds(AGeometry, points),
    st.builds(AGeometry, rectangles()),
    st.builds(AGeometry, st.builds(Polygon, st.lists(points, min_size=3,
                                                     max_size=8))),
    st.builds(AGeometry, st.builds(Trajectory, st.lists(points, min_size=1,
                                                        max_size=8))),
    st.builds(AInterval, intervals()),
    opaque_values,
)

wire_values = st.recursive(
    leaf_values,
    lambda items: st.builds(AList, st.lists(items, max_size=4).map(tuple)),
    max_leaves=12)


class TestEncodedSize:
    @settings(max_examples=400, deadline=None)
    @given(value=wire_values)
    def test_equals_the_scratch_buffer_size(self, value):
        assert outcome(encoded_size, value) == outcome(
            scratch_buffer_size, [value])

    @settings(max_examples=150, deadline=None)
    @given(row=st.lists(wire_values, max_size=6))
    def test_a_row_is_the_sum_of_its_values(self, row):
        assert outcome(serialized_values_size, row) == outcome(
            scratch_buffer_size, row)

    @pytest.mark.parametrize("value", [
        NULL, TRUE, FALSE, AInt64(2 ** 63 - 1), AInt64(-(2 ** 63)),
        ADouble(float("nan")), ADouble(float("-inf")), AString(""),
        AString("żółć 漢字"), AGeometry(Point(1.0, 2.0)),
        AGeometry(Polygon([(0, 0), (4, 0), (2, 3.5)])),
        AGeometry(Trajectory([(0, 0)])), AInterval(Interval(1.0, 2.0)),
        AList((AInt64(1), AList((AString("a"),)))),
    ])
    def test_equals_the_serialized_length(self, value):
        buf = bytearray()
        serialize_value(value, buf)
        assert encoded_size(value) == len(buf)

    def test_a_list_holding_an_opaque_value_keeps_its_partial_bytes(self):
        # List tag + count, the int before it, then the 16-byte blob.
        assert encoded_size(AList((AInt64(1), Opaque(), AInt64(2)))) == (
            5 + 9 + 16)

    def test_an_int_outside_int64_is_sized_as_opaque(self):
        assert encoded_size(AInt64(2 ** 70)) == 16
        assert serialized_values_size((AInt64(1), AInt64(2 ** 70))) == 9 + 16

    def test_a_lone_surrogate_raises_as_serializing_does(self):
        with pytest.raises(UnicodeEncodeError):
            serialize_value(AString("\ud800"), bytearray())
        with pytest.raises(UnicodeEncodeError):
            encoded_size(AString("\ud800"))

    def test_serializes_nothing_it_can_count(self, monkeypatch):
        def refuse(value, out):
            raise AssertionError(f"serialized {value!r}")

        monkeypatch.setattr(serializer, "serialize_value", refuse)
        row = (NULL, TRUE, AInt64(7), ADouble(0.5), AString("abc"),
               AGeometry(Point(0.0, 0.0)), AInterval(Interval(0.0, 1.0)),
               Opaque())
        assert serialized_values_size(row) == 1 + 1 + 9 + 9 + 8 + 17 + 17 + 16
