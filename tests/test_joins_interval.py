"""Tests for the Overlapping-Interval FUDJ library (OIPJoin, paper §V-C)."""

import random

import pytest

from repro.core import JoinSide
from repro.core.contract import check_library
from repro.interval import Interval
from repro.joins import IntervalJoin


def random_intervals(rng, count, span=1000.0, max_len=40.0):
    out = []
    for _ in range(count):
        start = rng.uniform(0, span)
        out.append(Interval(start, start + rng.uniform(0, max_len)))
    return out


class TestPhases:
    def test_summary_tracks_min_max(self):
        join = IntervalJoin(10)
        summary = None
        for interval in (Interval(5, 8), Interval(1, 3), Interval(7, 20)):
            summary = join.local_aggregate(interval, summary, JoinSide.LEFT)
        assert summary.min_start == 1
        assert summary.max_end == 20

    def test_divide_unifies_timelines(self):
        join = IntervalJoin(10)
        s1 = join.local_aggregate(Interval(0, 10), None, JoinSide.LEFT)
        s2 = join.local_aggregate(Interval(50, 100), None, JoinSide.RIGHT)
        pplan = join.divide(s1, s2)
        assert pplan.min_start == 0
        assert pplan.granule == 10.0
        assert pplan.num_buckets == 10

    def test_assign_is_single_assign(self):
        join = IntervalJoin(10)
        pplan = join.divide(
            join.local_aggregate(Interval(0, 100), None, JoinSide.LEFT),
            join.local_aggregate(Interval(0, 100), None, JoinSide.RIGHT),
        )
        bucket = join.assign(Interval(15, 35), pplan, JoinSide.LEFT)
        assert isinstance(bucket, int)

    def test_bucket_packs_granule_range(self):
        join = IntervalJoin(10)
        pplan = join.divide(
            join.local_aggregate(Interval(0, 100), None, JoinSide.LEFT),
            join.local_aggregate(Interval(0, 100), None, JoinSide.RIGHT),
        )
        bucket = join.assign(Interval(15, 35), pplan, JoinSide.LEFT)
        start, end = bucket >> 16, bucket & 0xFFFF
        assert start == 1  # 15 falls in granule [10, 20)
        assert end == 3  # ceil(35/10) - 1: 35 falls in granule [30, 40)

    def test_match_is_overridden_multi_join(self):
        join = IntervalJoin(10)
        assert not join.uses_default_match()
        b1 = (1 << 16) | 3  # granules 1..3
        b2 = (3 << 16) | 5  # granules 3..5
        b3 = (4 << 16) | 6  # granules 4..6
        assert join.match(b1, b2)
        assert join.match(b2, b3)
        assert not join.match(b1, b3)

    def test_verify_strict_endpoints(self):
        join = IntervalJoin(10)
        assert not join.verify(Interval(0, 1), Interval(1, 2), None)
        assert join.verify(Interval(0, 2), Interval(1, 3), None)

    def test_no_dedup_needed(self):
        assert not IntervalJoin(10).uses_dedup()


class TestValidation:
    def test_bucket_limits(self):
        with pytest.raises(ValueError):
            IntervalJoin(0)
        with pytest.raises(ValueError):
            IntervalJoin(1 << 16)
        IntervalJoin((1 << 16) - 1)  # boundary ok

    def test_degenerate_timeline(self):
        join = IntervalJoin(10)
        s = join.local_aggregate(Interval(5, 5), None, JoinSide.LEFT)
        pplan = join.divide(s, s)
        bucket = join.assign(Interval(5, 5), pplan, JoinSide.LEFT)
        assert bucket >= 0


class TestAgainstGroundTruth:
    """Seeded cases of the library contract (tests/test_library_contract.py)."""

    @pytest.mark.parametrize("num_buckets", [1, 5, 50, 500])
    def test_matches_nested_loop(self, num_buckets):
        rng = random.Random(200 + num_buckets)
        left = random_intervals(rng, 60)
        right = random_intervals(rng, 60)
        check_library(IntervalJoin(num_buckets), left, right)

    def test_long_spanning_intervals(self):
        left = [Interval(0, 1000)]  # spans the whole timeline
        rng = random.Random(3)
        right = random_intervals(rng, 50)
        check_library(IntervalJoin(20), left, right)

    def test_touching_intervals_not_joined(self):
        assert check_library(IntervalJoin(10), [Interval(0, 5)],
                             [Interval(5, 9)]) == []

    def test_identical_intervals(self):
        i = Interval(3, 7)
        assert check_library(IntervalJoin(10), [i], [i]) == [(i, i)]
