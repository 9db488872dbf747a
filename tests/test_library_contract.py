"""Every FUDJ library keeps the contract the engine relies on.

One row per library: :func:`repro.core.contract.check_library` runs it
over random keys — FUDJ against the nested loop through the standalone
runner and the engine at one and several partitions, under default
dedup and elimination, plus the laws of summaries, assignment, ``match``
and the extension hooks.  A row is the library class, a strategy for
its parameters, one for each side's keys, and the edge cases its own
tests met (touching or identical keys, empty texts, far-apart inputs).
A new library is one more row.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import DuplicateElimination, JoinSide, StandaloneRunner
from repro.core.contract import _engine_pairs, check_library
from repro.errors import FudjCallbackError
from repro.geometry import Point, Polygon, Rectangle
from repro.interval import Interval
from repro.joins import (
    AutoTuneSpatialJoin,
    IntervalJoin,
    LengthFilteredTextJoin,
    NumericBandJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    SortMergeIntervalJoin,
    SpatialContainsJoin,
    SpatialJoin,
    TextSimilarityJoin,
    TrajectoryProximityJoin,
)
from repro.trajectory import Trajectory
from tests.helpers import BandJoin, ModEquiJoin, ThetaBandJoin

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)
sizes = st.floats(min_value=0.0, max_value=15.0, allow_nan=False,
                  allow_infinity=False)
rectangles = st.builds(lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
                       coords, coords, sizes, sizes)
points = st.builds(Point, coords, coords)
polygons = st.builds(Polygon.regular, points,
                     st.floats(min_value=1.0, max_value=10.0),
                     st.integers(3, 7))
intervals = st.builds(lambda start, length: Interval(start, start + length),
                      coords, sizes)
tokens = st.sampled_from(["red", "blue", "green", "fast", "slow", "big",
                          "small", "hot", "cold", "new"])
texts = st.lists(tokens, max_size=6).map(" ".join)
steps = st.floats(min_value=-4.0, max_value=4.0)


def _walk(start, moves):
    points = [start]
    for dx, dy in moves:
        points.append((points[-1][0] + dx, points[-1][1] + dy))
    return Trajectory(points)


routes = st.builds(_walk, st.tuples(coords, coords),
                   st.lists(st.tuples(steps, steps), max_size=5))
readings = st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
                     allow_infinity=False).map(lambda v: round(v, 3))

grid = st.tuples(st.integers(1, 20))
buckets = st.tuples(st.integers(1, 300))
threshold = st.tuples(st.floats(min_value=0.05, max_value=1.0))
band = st.tuples(st.floats(min_value=0.1, max_value=5.0),
                 st.integers(1, 12))


def contract(join_class, params, left, right, *examples, cases=40,
             size=25):
    """A hypothesis test that ``join_class(*params)`` keeps the contract
    on ``cases`` random pairs of key lists, up to ``size`` keys a side.
    ``examples`` are edge cases run first, ``(params, left keys, right
    keys, answer)``: the join must also answer exactly ``answer``.
    ``cases`` is at least what the library's own random tests drew
    before this harness checked it."""

    @settings(max_examples=cases, deadline=None)
    @given(params=params, left=st.lists(left, max_size=size),
           right=st.lists(right, max_size=size), answer=st.none())
    def test(params, left, right, answer):
        pairs = check_library(join_class(*params), left, right)
        assert answer is None or pairs == answer

    for params, left, right, answer in examples:
        test = example(params=params, left=left, right=right,
                       answer=answer)(test)
    return test


test_spatial_contains = contract(SpatialContainsJoin, grid, polygons, points,
                                 cases=20)
test_plane_sweep = contract(PlaneSweepSpatialJoin, grid, polygons, points,
                            cases=20)
test_autotune = contract(
    AutoTuneSpatialJoin, st.tuples(st.floats(min_value=0.5, max_value=8.0)),
    polygons, points, cases=20)
far = (Rectangle(0, 0, 1, 1), Rectangle(100, 100, 101, 101))
touching = (Rectangle(0, 0, 1, 1), Rectangle(1, 1, 2, 2))
square = Rectangle(5, 5, 6, 6)
test_spatial_intersects = contract(
    SpatialJoin, grid, rectangles, rectangles,
    ((4,), [far[0]], [far[1]], []),
    ((4,), [touching[0]], [touching[1]], [touching]),
    ((4,), [square, square], [square], [(square, square)] * 2),
)
span, inside, late = Interval(0, 100), Interval(3, 4), Interval(90, 99)
test_interval = contract(
    IntervalJoin, buckets, intervals, intervals,
    ((10,), [Interval(0, 5)], [Interval(5, 9)], []),  # touching
    # Identical, and a point inside.
    ((10,), [Interval(3, 7)], [Interval(3, 7), Interval(5, 5)],
     [(Interval(3, 7), Interval(3, 7)), (Interval(3, 7), Interval(5, 5))]),
    ((20,), [span], [inside, late], [(span, inside), (span, late)]),
)
test_partitioned_interval = contract(PartitionedIntervalJoin, buckets,
                                     intervals, intervals, cases=20)
test_sort_merge_interval = contract(
    SortMergeIntervalJoin, buckets, intervals, intervals,
    ((8,), [Interval(1, 2)] * 2, [Interval(1, 2)],
     [(Interval(1, 2), Interval(1, 2))] * 2),
    cases=20,
)
test_text = contract(
    TextSimilarityJoin, threshold, texts, texts,
    ((0.9,), [""], ["", "red"], [("", "")]),  # empty texts join each other
    ((1.0,), ["red blue"], ["blue red"], [("red blue", "blue red")]),
)
test_length_filtered_text = contract(
    LengthFilteredTextJoin, threshold, texts, texts,
    ((0.9,), [""], ["", "red"], [("", "")]),
    cases=20,
)
test_numeric_band = contract(
    NumericBandJoin,
    st.tuples(st.floats(min_value=0.0, max_value=10.0), st.integers(1, 40)),
    readings, readings,
    ((0.0, 8), [1.0, 2.0], [2.0, 3.0], [(2.0, 2.0)]),  # zero band: equality
)
apart = (Trajectory([(10.0, 10.0)]), Trajectory([(12.0, 10.0)]))
crossing = (Trajectory([(0, 0), (10, 10)]), Trajectory([(0, 10), (10, 0)]))
test_trajectory = contract(
    TrajectoryProximityJoin,
    st.tuples(st.floats(min_value=0.0, max_value=8.0), st.integers(1, 20)),
    routes, routes,
    # Exactly eps apart: the left side's expansion must co-locate them.
    ((2.0, 10), [apart[0]], [apart[1]], [apart]),
    # Crossing segments whose points are all far apart.
    ((0.5, 8), [crossing[0]], [crossing[1]], [crossing]),
    cases=30, size=12,
)
test_mod_equi = contract(ModEquiJoin, st.tuples(st.integers(1, 12)),
                         st.integers(0, 40), st.integers(0, 40), cases=30)
test_band = contract(
    BandJoin, band, readings, readings,
    # Two records with one key: elimination keeps both pairs.
    ((1.0, 4), [5.0, 5.0], [5.2], [(5.0, 5.2)] * 2),
    # A window over several buckets: the pair still comes once.
    ((5.0, 8), [10.0], [10.1], [(10.0, 10.1)]),
)
test_theta_band = contract(ThetaBandJoin, band, readings, readings, cases=30)


class StringBucketJoin(ModEquiJoin):
    """Answers a bucket id that is not an int."""

    def assign(self, key, pplan, side):
        return ["1"]


NOT_AN_INT = "bucket ids must be ints, got str: '1'"


def test_a_bucket_id_that_is_not_an_int_is_refused_everywhere():
    join = StringBucketJoin()
    with pytest.raises(AssertionError, match="assign answers int bucket ids"):
        check_library(join, [1], [1])
    with pytest.raises(TypeError, match=NOT_AN_INT):
        StandaloneRunner(join).run([1], [1])
    with pytest.raises(TypeError, match=NOT_AN_INT):
        join.first_matching_buckets(1, 1, 8)
    with pytest.raises(FudjCallbackError, match=NOT_AN_INT):
        _engine_pairs(join, [1], [1], 2, None)


def test_the_standalone_phases_tell_records_apart_by_key():
    # ``partition`` hands back keys and ``combine`` takes them: equal
    # keys are one record there, so elimination keeps one pair for both
    # (``run`` keeps two: the band row's first example).
    runner = StandaloneRunner(BandJoin(1.0, 4), DuplicateElimination())
    pplan = runner.join.divide((5.0, 5.2), (5.0, 5.2))
    left = runner.partition([5.0, 5.0], pplan, JoinSide.LEFT)
    right = runner.partition([5.2], pplan, JoinSide.RIGHT)
    assert runner.combine(left, right, pplan) == [(5.0, 5.2)]
