"""Tests for the trajectory substrate and the trajectory proximity FUDJ."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JoinSide, StandaloneRunner
from repro.database import Database
from repro.datagen import generate_trajectories
from repro.geometry import Point, Rectangle
from repro.joins import TrajectoryProximityJoin
from repro.serde import box, deserialize_value, serialize_value
from repro.trajectory import Trajectory, hausdorff_distance, min_distance


class TestTrajectoryType:
    def test_construction(self):
        t = Trajectory([(0, 0), (3, 4)])
        assert len(t) == 2
        assert t.points[1] == Point(3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([])

    def test_mbr(self):
        t = Trajectory([(1, 5), (-2, 3), (4, 4)])
        assert t.mbr() == Rectangle(-2, 3, 4, 5)

    def test_length(self):
        t = Trajectory([(0, 0), (3, 4), (3, 4)])
        assert t.length() == 5.0

    def test_single_point_trajectory(self):
        t = Trajectory([(2, 2)])
        assert t.length() == 0.0
        assert t.mbr().area == 0.0

    def test_equality_and_hash(self):
        a = Trajectory([(0, 0), (1, 1)])
        b = Trajectory([(0, 0), (1, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_serde_roundtrip(self):
        t = Trajectory([(0.5, 1.5), (2.5, -3.0), (7.0, 7.0)])
        buf = bytearray()
        serialize_value(box(t), buf)
        decoded, offset = deserialize_value(bytes(buf))
        assert offset == len(buf)
        assert decoded.to_python() == t


class TestDistances:
    def test_min_distance_touching(self):
        a = Trajectory([(0, 0), (1, 0)])
        b = Trajectory([(1, 0), (2, 0)])
        assert min_distance(a, b) == 0.0

    def test_min_distance_parallel(self):
        a = Trajectory([(0, 0), (10, 0)])
        b = Trajectory([(0, 3), (10, 3)])
        assert min_distance(a, b) == 3.0

    def test_min_distance_symmetric(self):
        rng = random.Random(1)
        a = Trajectory([(rng.uniform(0, 10), rng.uniform(0, 10))
                        for _ in range(5)])
        b = Trajectory([(rng.uniform(0, 10), rng.uniform(0, 10))
                        for _ in range(5)])
        assert min_distance(a, b) == min_distance(b, a)

    def test_hausdorff_identical_is_zero(self):
        t = Trajectory([(0, 0), (5, 5)])
        assert hausdorff_distance(t, t) == 0.0

    def test_hausdorff_dominates_min_distance(self):
        a = Trajectory([(0, 0), (10, 0)])
        b = Trajectory([(0, 1), (30, 1)])
        assert hausdorff_distance(a, b) >= min_distance(a, b)

    def test_hausdorff_symmetric(self):
        a = Trajectory([(0, 0), (4, 4)])
        b = Trajectory([(1, 0), (9, 9), (2, 2)])
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


def random_trajectory(rng, extent=60.0, max_points=6):
    n = rng.randint(1, max_points)
    x, y = rng.uniform(0, extent), rng.uniform(0, extent)
    points = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(-4, 4)
        y += rng.uniform(-4, 4)
        points.append((x, y))
    return Trajectory(points)


class TestProximityJoin:
    @pytest.mark.parametrize("eps,n", [(1.0, 8), (5.0, 16), (0.0, 4)])
    def test_matches_nested_loop(self, eps, n):
        rng = random.Random(int(eps * 7) + n)
        left = [random_trajectory(rng) for _ in range(40)]
        right = [random_trajectory(rng) for _ in range(40)]
        runner = StandaloneRunner(TrajectoryProximityJoin(eps, n))
        got = sorted(runner.run(left, right), key=repr)
        expected = sorted(runner.run_nested_loop(left, right), key=repr)
        assert got == expected

    def test_one_sided_expansion_covers_eps(self):
        # Two trajectories exactly eps apart, far from tile boundaries of
        # the unexpanded grid: the left-side expansion must co-locate them.
        join = TrajectoryProximityJoin(2.0, 10)
        a = Trajectory([(10.0, 10.0)])
        b = Trajectory([(12.0, 10.0)])
        runner = StandaloneRunner(join)
        assert runner.run([a], [b]) == [(a, b)]

    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryProximityJoin(-1.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), eps=st.floats(0.0, 8.0, allow_nan=False),
           n=st.integers(1, 20))
    def test_property_equals_nested_loop(self, seed, eps, n):
        rng = random.Random(seed)
        left = [random_trajectory(rng) for _ in range(12)]
        right = [random_trajectory(rng) for _ in range(12)]
        runner = StandaloneRunner(TrajectoryProximityJoin(eps, n))
        assert sorted(runner.run(left, right), key=repr) == sorted(
            runner.run_nested_loop(left, right), key=repr
        )


class TestTrajectorySql:
    @pytest.fixture(scope="class")
    def db(self):
        db = Database(num_partitions=4)
        db.execute("CREATE TYPE TripType { id: int, vehicle: int, "
                   "route: trajectory }")
        db.execute("CREATE DATASET Trips(TripType) PRIMARY KEY id")
        db.load("Trips", generate_trajectories(150, seed=2))
        db.create_join("routes_near", TrajectoryProximityJoin,
                       defaults=(2.0, 24))
        return db

    def test_fudj_matches_ontop(self, db):
        fudj = db.execute(
            "SELECT COUNT(1) AS c FROM Trips a, Trips b "
            "WHERE a.vehicle = 1 AND b.vehicle = 2 "
            "AND routes_near(a.route, b.route, 3.0)"
        )
        ontop = db.execute(
            "SELECT COUNT(1) AS c FROM Trips a, Trips b "
            "WHERE a.vehicle = 1 AND b.vehicle = 2 "
            "AND trajectory_min_distance(a.route, b.route) <= 3.0",
            mode="ontop",
        )
        assert fudj.rows == ontop.rows
        assert fudj.rows[0]["c"] > 0

    def test_prunes_pairs(self, db):
        fudj = db.execute(
            "SELECT COUNT(1) AS c FROM Trips a, Trips b "
            "WHERE routes_near(a.route, b.route, 1.0)"
        )
        assert fudj.metrics.comparisons < 150 * 150 / 2


class TestGenerator:
    def test_schema_and_determinism(self):
        rows = generate_trajectories(30, seed=5)
        assert len(rows) == 30
        assert all(isinstance(row["route"], Trajectory) for row in rows)
        assert rows == generate_trajectories(30, seed=5)

    def test_point_counts_in_range(self):
        rows = generate_trajectories(100, seed=6,
                                     points_per_trajectory=(3, 7))
        assert all(3 <= len(row["route"]) <= 7 for row in rows)

    def test_within_extent(self):
        from repro.datagen.trajectories import WORLD

        rows = generate_trajectories(60, seed=7)
        for row in rows:
            assert WORLD.contains_rectangle(row["route"].mbr())


class TestSegmentDistance:
    def test_crossing_segments_zero(self):
        from repro.trajectory import segment_distance

        assert segment_distance(Point(0, 0), Point(2, 2),
                                Point(0, 2), Point(2, 0)) == 0.0

    def test_parallel_segments(self):
        from repro.trajectory import segment_distance

        assert segment_distance(Point(0, 0), Point(10, 0),
                                Point(0, 2), Point(10, 2)) == 2.0

    def test_perpendicular_gap(self):
        from repro.trajectory import segment_distance

        # Vertical segment ending 1 above a horizontal one.
        assert segment_distance(Point(5, 1), Point(5, 4),
                                Point(0, 0), Point(10, 0)) == 1.0

    def test_degenerate_point_segments(self):
        from repro.trajectory import segment_distance

        assert segment_distance(Point(0, 0), Point(0, 0),
                                Point(3, 4), Point(3, 4)) == 5.0

    def test_crossing_trajectories_measure_zero(self):
        # The case point sampling misses: an X whose sample points are
        # all far apart but whose segments cross.
        a = Trajectory([(0, 0), (10, 10)])
        b = Trajectory([(0, 10), (10, 0)])
        assert min_distance(a, b) == 0.0

    def test_crossing_trajectories_join(self):
        a = Trajectory([(0, 0), (10, 10)])
        b = Trajectory([(0, 10), (10, 0)])
        runner = StandaloneRunner(TrajectoryProximityJoin(0.5, 8))
        assert runner.run([a], [b]) == [(a, b)]

    def test_min_distance_never_exceeds_point_sample_minimum(self):
        rng = random.Random(9)
        for _ in range(30):
            a = random_trajectory(rng)
            b = random_trajectory(rng)
            point_min = min(p.distance_to(q)
                            for p in a.points for q in b.points)
            assert min_distance(a, b) <= point_min + 1e-12


def reference_min_distance(a: Trajectory, b: Trajectory) -> float:
    """Every segment pair, none skipped: what ``min_distance`` computed
    before it pruned on bounding boxes."""
    from repro.trajectory import segment_distance
    from repro.trajectory.trajectory import _segments_of

    best = None
    for a1, a2 in _segments_of(a):
        for b1, b2 in _segments_of(b):
            d = segment_distance(a1, a2, b1, b2)
            if best is None or d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


COORDS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
ROUTES = st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=8).map(
    Trajectory)


class TestMinDistanceAgainstTheReference:
    @settings(max_examples=200, deadline=None)
    @given(a=ROUTES, b=ROUTES)
    def test_random_routes(self, a, b):
        assert min_distance(a, b) == reference_min_distance(a, b)

    def test_generated_routes(self):
        routes = [row["route"] for row in generate_trajectories(40, seed=7)]
        for a in routes:
            for b in routes:
                assert min_distance(a, b) == reference_min_distance(a, b)
