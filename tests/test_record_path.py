"""What a record costs on its way in and through the FUDJ phases.

- The boxed values and the geometry / interval objects keep their fields
  in ``__slots__`` and behave exactly as the frozen dataclasses they
  replace: hash (which routes every hash exchange and places every
  ingested row), equality, ``repr``, ordering, immutability and pickling
  are compared here against a dataclass with the same fields.
- PARTITION checks what ``assign`` returns in one loop: the batched path
  and the record-by-record path (taken when some call raised) give the
  same entries and the same errors for every return shape.
"""

import pickle
from collections import defaultdict
from contextlib import closing
from dataclasses import FrozenInstanceError, make_dataclass

import pytest

from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.database import Database
from repro.engine.operators import fudj_join
from repro.engine.operators.fudj_join import FudjJoin
from repro.engine.record import Record, Schema
from repro.errors import ExecutionError
from repro.geometry import Point, Rectangle
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

NAN = float("nan")

#: class, its fields, ordered like ``dataclass(order=True)``, and sample
#: field tuples (two equal by value, a NaN, a -0.0, a different one).
VALUE_CLASSES = [
    (ANull, (), False, [()]),
    (ABoolean, ("value",), False, [(True,), (False,), (1,)]),
    (AInt64, ("value",), False, [(1,), (1,), (-2,), (2 ** 70,)]),
    (ADouble, ("value",), False, [(1.0,), (1.0,), (NAN,), (-0.0,), (0.0,)]),
    (AString, ("value",), False, [("a",), ("a",), ("",), ("é",)]),
    (AGeometry, ("value",), False,
     [(Point(1.0, 2.0),), (Point(1.0, 2.0),), (Rectangle(0, 0, 1, 1),)]),
    (AInterval, ("value",), False,
     [(Interval(0.0, 1.0),), (Interval(0.0, 1.0),), (Interval(1.0, 2.0),)]),
    (AList, ("items",), False,
     [((AInt64(1),),), ((AInt64(1),),), ((),), ((ADouble(NAN),),)]),
    (Point, ("x", "y"), True,
     [(1.0, 2.0), (1.0, 2.0), (1.0, -0.0), (NAN, 0.0), (0.5, 9.0)]),
    (Rectangle, ("x1", "y1", "x2", "y2"), False,
     [(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0), (NAN, 0.0, 1.0, 1.0)]),
    (Interval, ("start", "end"), True,
     [(0.0, 1.0), (0.0, 1.0), (-1.0, 3.0), (0.0, NAN)]),
]


def _reference(cls, fields, order):
    """The frozen dataclass ``cls`` used to be, under the same name."""
    return make_dataclass(cls.__name__, list(fields), frozen=True,
                          order=order)


def _outcome(function, *args):
    try:
        return function(*args)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, fields, order, samples", VALUE_CLASSES,
                         ids=[entry[0].__name__ for entry in VALUE_CLASSES])
class TestSlottedValues:
    def test_hash_is_the_field_tuple_hash(self, cls, fields, order, samples):
        ref = _reference(cls, fields, order)
        for args in samples:
            assert hash(cls(*args)) == hash(ref(*args)) == hash(args)

    def test_equality_repr_and_ordering_match_the_dataclass(
            self, cls, fields, order, samples):
        ref = _reference(cls, fields, order)
        new = [cls(*args) for args in samples]
        old = [ref(*args) for args in samples]
        for a, ra in zip(new, old):
            assert repr(a) == repr(ra)
            for b, rb in zip(new, old):
                assert (a == b) == (ra == rb)
                assert (a != b) == (ra != rb)
                for compare in (lambda x, y: x < y, lambda x, y: x <= y,
                                lambda x, y: x > y, lambda x, y: x >= y):
                    assert _outcome(compare, a, b) == _outcome(compare, ra, rb)

    def test_assigning_a_field_raises(self, cls, fields, order, samples):
        value = cls(*samples[0])
        for name in fields or ("value",):
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)

    def test_pickle_round_trips(self, cls, fields, order, samples):
        for args in samples:
            value = cls(*args)
            again = pickle.loads(pickle.dumps(value))
            assert type(again) is cls
            assert repr(again) == repr(value)
            if "nan" not in repr(value):  # a NaN unpickles as a new float
                assert again == value

    def test_no_instance_dict(self, cls, fields, order, samples):
        assert not hasattr(cls(*samples[0]), "__dict__")


class TestValueSemantics:
    def test_an_int_is_not_a_double(self):
        assert AInt64(1) != ADouble(1.0)
        assert ADouble(1.0) != AInt64(1)

    def test_a_nan_equals_itself_not_another_nan(self):
        value = ADouble(NAN)
        assert value == value
        assert ADouble(NAN) == ADouble(NAN)  # one float object, as before
        assert ADouble(float("nan")) != ADouble(float("nan"))

    def test_a_value_is_not_its_plain_twin(self):
        assert AInt64(5) != 5
        assert Point(1.0, 2.0) != (1.0, 2.0)

    def test_a_subclass_still_boxes_by_isinstance(self):
        class Flag(int):
            pass

        class Spot(Point):
            pass

        assert box(Flag(3)) == AInt64(Flag(3))
        assert type(box(Spot(1.0, 2.0))) is AGeometry
        assert box(True) is box(True) and box(True).value is True

    def test_the_checks_of_the_constructors_hold(self):
        with pytest.raises(ValueError):
            Rectangle(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)


# -- Record ----------------------------------------------------------------------


class TestRecordConstructor:
    def test_a_tuple_is_kept_as_it_is(self):
        values = (AInt64(1), AString("a"))
        assert Record(Schema(["a", "b"]), values).values is values

    def test_any_iterable_becomes_a_tuple(self):
        record = Record(Schema(["a", "b"]), iter([AInt64(1), ANull()]))
        assert record.values == (AInt64(1), ANull())

    def test_arity_is_checked(self):
        with pytest.raises(ExecutionError, match="arity 1 != schema arity 2"):
            Record(Schema(["a", "b"]), (AInt64(1),))


# -- PARTITION: what assign returns ----------------------------------------------


def _shape(key):
    """``assign``'s answer for ``key``: each shape it may take."""
    if key == 99:
        return [1, "x"]  # a non-int in second place
    kind = key % 4
    if kind == 0:
        return key % 3
    if kind == 1:
        return [key % 3, 3]
    if kind == 2:
        return (key % 3, 4)
    return []


class ShapeJoin(FlexibleJoin):
    """Equality on small ints; ``assign`` answers in every shape."""

    name = "shapes"

    def local_aggregate(self, key, summary, side):
        return None

    def global_aggregate(self, summary1, summary2, side):
        return None

    def divide(self, summary1, summary2):
        return None

    def assign(self, key, pplan, side):
        return _shape(key)

    def verify(self, key1, key2, pplan):
        return key1 == key2


class ReusingShapeJoin(ShapeJoin):
    """Hands back one list, refilled on every call."""

    def __init__(self, *parameters):
        super().__init__(*parameters)
        self.reused = []

    def assign(self, key, pplan, side):
        answer = _shape(key)
        self.reused[:] = [answer] if isinstance(answer, int) else answer
        return self.reused


SQL = "SELECT a.id, b.id FROM A a, B b WHERE shapes(a.k, b.k)"


def _run(join_class, keys, on_error, monkeypatch):
    """Rows, PARTITION's entries per side and the metrics of one query
    over one partition (so one task holds every record)."""
    entries = defaultdict(list)
    assign_side = FudjJoin._assign_side

    def capturing(self, side_rows, column, ids, side, pplan, ctx):
        out = assign_side(self, side_rows, column, ids, side, pplan, ctx)
        entries[side].append([(entry[0], entry[1], entry[3], entry[5],
                               entry[6], entry[2][0].value)
                              for part in out for entry in part])
        return out

    monkeypatch.setattr(FudjJoin, "_assign_side", capturing)
    db = Database(num_partitions=1, on_error=on_error)
    with closing(db):
        db.execute("CREATE TYPE T { id: int, k: int }")
        for name in ("A", "B"):
            db.execute(f"CREATE DATASET {name}(T) PRIMARY KEY id")
            db.load(name, [{"id": i, "k": key} for i, key in enumerate(keys)])
        db.create_join("shapes", join_class)
        result = db.execute(SQL)
    monkeypatch.setattr(FudjJoin, "_assign_side", assign_side)
    rows = sorted((row["a.id"], row["b.id"]) for row in result.rows)
    return rows, dict(entries), result.metrics


KEYS = list(range(24))


class TestAssignReturnShapes:
    @pytest.mark.parametrize("on_error", ["skip", "quarantine"])
    def test_the_batched_and_the_per_record_path_agree(self, on_error,
                                                       monkeypatch):
        batched, batched_entries, clean = _run(ShapeJoin, KEYS, on_error,
                                               monkeypatch)
        # One poison key sends the task down the record-by-record path.
        single, single_entries, poisoned = _run(
            ShapeJoin, KEYS + [99], on_error, monkeypatch)
        assert clean.records_quarantined == 0
        assert batched == single
        assert batched == [(i, i) for i in KEYS if _shape(i) != []]
        assert batched_entries == single_entries
        # The poison key is dropped on each side, with the error the
        # batched check raises.
        assert poisoned.records_quarantined == 2
        if on_error == "quarantine":
            report = poisoned.quarantine_report()["assign"]
            assert report["count"] == 2
            assert set(report["errors"]) == {
                "TypeError: bucket ids must be ints, got str: 'x'"}

    def test_each_shape_gives_the_same_list_or_error_on_both_paths(self):
        join = ShapeJoin()
        for key in KEYS + [99]:
            try:
                batched = fudj_join._assign_all(
                    join.assign_list, [key], None, JoinSide.LEFT, None)
            except TypeError as exc:
                with pytest.raises(TypeError, match=str(exc)):
                    fudj_join._assign_one(key, join.assign_list, None,
                                          JoinSide.LEFT)
                continue
            assert batched == [fudj_join._assign_one(
                key, join.assign_list, None, JoinSide.LEFT)]

    def test_a_reused_list_cannot_change_an_entry(self, monkeypatch):
        fresh = _run(ShapeJoin, KEYS, "fail", monkeypatch)
        reused = _run(ReusingShapeJoin, KEYS, "fail", monkeypatch)
        assert reused[:2] == fresh[:2]
