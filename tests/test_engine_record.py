"""Unit tests for records and schemas."""

import pickle

import pytest

from repro.engine import Record, Schema
from repro.engine.operators.aggregate import RawState
from repro.engine.record import entry_sizes, serialized_values_size
from repro.engine.resources import EntrySpillCodec, RecordSpillCodec
from repro.errors import ExecutionError
from repro.geometry import Point, Polygon, Rectangle
from repro.interval import Interval
from repro.serde import (
    ABoolean,
    ADouble,
    AGeometry,
    AInt64,
    AInterval,
    AList,
    ANull,
    AString,
    box,
)
from repro.trajectory import Trajectory


class TestSchema:
    def test_fields_and_lookup(self):
        s = Schema(["a", "b", "c"])
        assert len(s) == 3
        assert s.index_of("b") == 1
        assert "c" in s
        assert "z" not in s

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ExecutionError):
            Schema(["a", "a"])

    def test_unknown_field(self):
        with pytest.raises(ExecutionError):
            Schema(["a"]).index_of("b")

    def test_qualify(self):
        s = Schema(["id", "name"]).qualify("p")
        assert s.fields == ("p.id", "p.name")

    def test_concat(self):
        s = Schema(["a"]).concat(Schema(["b", "c"]))
        assert s.fields == ("a", "b", "c")

    def test_equality(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert Schema(["a", "b"]) != Schema(["b", "a"])


class TestRecord:
    def setup_method(self):
        self.schema = Schema(["id", "name"])

    def test_from_dict(self):
        r = Record.from_dict(self.schema, {"id": 1, "name": "x"})
        assert r["id"] == box(1)
        assert r["name"] == box("x")

    def test_arity_mismatch(self):
        with pytest.raises(ExecutionError):
            Record(self.schema, (box(1),))

    def test_get_with_default(self):
        r = Record.from_dict(self.schema, {"id": 1, "name": "x"})
        assert r.get("missing", "fallback") == "fallback"
        assert r.get("id") == box(1)

    def test_to_dict_unboxes(self):
        r = Record.from_dict(self.schema, {"id": 7, "name": "y"})
        assert r.to_dict() == {"id": 7, "name": "y"}

    def test_concat(self):
        left = Record.from_dict(Schema(["a"]), {"a": 1})
        right = Record.from_dict(Schema(["b"]), {"b": 2})
        joined = left.concat(right)
        assert joined.schema.fields == ("a", "b")
        assert joined.to_dict() == {"a": 1, "b": 2}

    def test_concat_with_precomputed_schema(self):
        left = Record.from_dict(Schema(["a"]), {"a": 1})
        right = Record.from_dict(Schema(["b"]), {"b": 2})
        schema = left.schema.concat(right.schema)
        assert left.concat(right, schema).schema is schema

    def test_equality_and_hash(self):
        a = Record.from_dict(self.schema, {"id": 1, "name": "x"})
        b = Record.from_dict(self.schema, {"id": 1, "name": "x"})
        assert a == b
        assert hash(a) == hash(b)

    def test_serialized_size_positive(self):
        r = Record.from_dict(self.schema, {"id": 1, "name": "hello"})
        assert r.serialized_size() > 0

    def test_serialized_size_opaque_values(self):
        class Opaque:
            pass

        r = Record(Schema(["x"]), (Opaque(),))
        assert r.serialized_size() == 16

    def test_serialized_size_of_an_int_outside_int64(self):
        # The wire format cannot encode it, so it counts as an opaque blob.
        r = Record.from_dict(self.schema, {"id": 2 ** 70, "name": "x"})
        assert r.serialized_size() == 16 + 6


class TestSizedOnce:
    """``serialized_size`` is computed on the first call and kept; it
    must stay equal to sizing the values, wherever a record came from."""

    SCHEMA = Schema(["id", "name", "at"])

    def record(self, i=1, name="x"):
        return Record.from_dict(
            self.SCHEMA, {"id": i, "name": name, "at": Point(i, 2.5)})

    def check(self, record):
        assert record.serialized_size() == serialized_values_size(
            record.values)
        assert record.serialized_size() == serialized_values_size(
            record.values)  # second call: the kept value

    def test_fresh_and_repeated(self):
        self.check(self.record())

    def test_concat_is_sized_on_its_own_values(self):
        left, right = self.record(1, "left"), self.record(2, "rightmost")
        left.serialized_size()  # kept sizes of the inputs must not leak
        joined = left.concat(
            right, self.SCHEMA.qualify("l").concat(self.SCHEMA.qualify("r")))
        self.check(joined)
        assert joined.serialized_size() == (
            left.serialized_size() + right.serialized_size())

    def test_opaque_values_count_as_blobs(self):
        partial = Record(Schema(["k", "state"]), (box(1), RawState([2])))
        self.check(partial)

    def test_spill_round_trip(self):
        record = self.record(3, "spilled")
        record.serialized_size()
        codec = RecordSpillCodec()
        clone = codec.decode(codec.encode(record))
        assert clone is not record
        self.check(clone)
        assert clone.serialized_size() == record.serialized_size()
        entries = EntrySpillCodec(lambda row: "key")
        _, _, replayed = entries.decode(entries.encode(
            (4, "key", record.values, 9 + record.serialized_size(), -1)))
        assert replayed == record.values

    def test_pickle_round_trip(self):
        for sized_first in (False, True):
            record = self.record(5, "shipped")
            if sized_first:
                record.serialized_size()
            clone = pickle.loads(pickle.dumps(record))
            assert clone == record
            self.check(clone)


#: One value of every kind a row may hold: the fixed-size ones, an int
#: past the int64 range (serialized to be measured), non-ASCII text,
#: every geometry, a nested list and an opaque partial state.
EVERY_KIND = (
    ANull(), ABoolean(True), AInt64(2 ** 70), AInt64(-3), ADouble(1.5),
    AString("héllo ✓"), AString(""), AGeometry(Point(1.0, 2.0)),
    AGeometry(Rectangle(0.0, 0.0, 1.0, 1.0)),
    AGeometry(Polygon([(0, 0), (4, 0), (2, 3.5)])),
    AGeometry(Trajectory([(0, 0), (1, 1), (2, 0)])),
    AInterval(Interval(1.0, 2.0)),
    AList((AInt64(1), AString("x"), AList(()))), RawState([2]),
)


class TestEntrySizes:
    """``entry_sizes`` sizes rows column by column; each row's entry size
    is what sizing it whole gives, plus the 9 bytes of its bucket id."""

    def test_every_value_kind_in_every_column(self):
        width = len(EVERY_KIND)
        rows = [EVERY_KIND[shift:] + EVERY_KIND[:shift]
                for shift in range(width)]
        rows.append(tuple(reversed(EVERY_KIND)))
        assert entry_sizes(rows) == [9 + serialized_values_size(row)
                                     for row in rows]

    def test_one_column_and_a_mixed_column(self):
        rows = [(value,) for value in EVERY_KIND]
        assert entry_sizes(rows) == [9 + serialized_values_size(row)
                                     for row in rows]

    def test_an_empty_schema_and_no_rows(self):
        assert entry_sizes([(), (), ()]) == [9, 9, 9]
        assert entry_sizes([]) == []
