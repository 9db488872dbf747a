"""Tests for the packaged numeric band join."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.contract import check_library
from repro.database import Database
from repro.joins.band import NumericBandJoin


class TestStandalone:
    @pytest.mark.parametrize("band,buckets", [(0.5, 4), (2.0, 32), (0.0, 8)])
    def test_matches_nested_loop(self, band, buckets):
        rng = random.Random(int(band * 10) + buckets)
        left = [round(rng.uniform(0, 40), 2) for _ in range(60)]
        right = [round(rng.uniform(0, 40), 2) for _ in range(60)]
        check_library(NumericBandJoin(band, buckets), left, right)

    def test_zero_band_is_equality(self):
        assert check_library(NumericBandJoin(0.0, 8), [1.0, 2.0],
                             [2.0, 3.0]) == [(2.0, 2.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericBandJoin(-1.0)
        with pytest.raises(ValueError):
            NumericBandJoin(1.0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        left=st.lists(st.integers(-50, 50), max_size=20),
        right=st.lists(st.integers(-50, 50), max_size=20),
        band=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        buckets=st.integers(1, 40),
    )
    def test_property_equals_nested_loop(self, left, right, band, buckets):
        check_library(NumericBandJoin(band, buckets), left, right)


class TestSql:
    @pytest.fixture()
    def db(self):
        db = Database(num_partitions=4)
        db.execute("CREATE TYPE S { id: int, reading: double }")
        db.execute("CREATE DATASET SensorA(S) PRIMARY KEY id")
        db.execute("CREATE DATASET SensorB(S) PRIMARY KEY id")
        rng = random.Random(3)
        db.load("SensorA", [{"id": i, "reading": round(rng.uniform(0, 30), 2)}
                            for i in range(80)])
        db.load("SensorB", [{"id": i, "reading": round(rng.uniform(0, 30), 2)}
                            for i in range(80)])
        db.create_join("within_band", NumericBandJoin, defaults=(1.0, 32))
        return db

    SQL = ("SELECT COUNT(1) AS n FROM SensorA a, SensorB b "
           "WHERE within_band(a.reading, b.reading, 0.5)")

    def test_fudj_matches_ontop(self, db):
        db.register_udf("within_band_check",
                        lambda a, b, eps: abs(a - b) <= eps, arity=3)
        fudj = db.execute(self.SQL, mode="fudj")
        ontop = db.execute(
            "SELECT COUNT(1) AS n FROM SensorA a, SensorB b "
            "WHERE within_band_check(a.reading, b.reading, 0.5)",
            mode="ontop",
        )
        assert fudj.rows == ontop.rows
        assert fudj.rows[0]["n"] > 0

    def test_call_site_parameter_beats_default(self, db):
        wide = db.execute(
            "SELECT COUNT(1) AS n FROM SensorA a, SensorB b "
            "WHERE within_band(a.reading, b.reading, 5.0)"
        )
        narrow = db.execute(self.SQL)
        assert wide.rows[0]["n"] > narrow.rows[0]["n"]

    def test_plan_is_single_join(self, db):
        plan = db.explain(self.SQL)
        assert "single-join" in plan
