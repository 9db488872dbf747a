"""Tests for the §VIII future-work extensions.

Covers the partitioned theta join (``partition_buckets``), the local-join
hook (``local_join``), and automatic bucket tuning.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import INTERVAL_SQL, SPATIAL_SQL, interval_database, spatial_database
from repro.core.contract import check_library
from repro.joins import (
    AutoTuneSpatialJoin,
    IntervalJoin,
    LengthFilteredTextJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    SpatialContainsJoin,
)


def normalized(result):
    return sorted(map(repr, result.rows))


class TestCapabilityProbes:
    def test_partitioned_matching_detection(self):
        assert not IntervalJoin(10).supports_partitioned_matching()
        assert PartitionedIntervalJoin(10).supports_partitioned_matching()

    def test_local_join_detection(self):
        assert not SpatialContainsJoin(8).has_local_join()
        assert PlaneSweepSpatialJoin(8).has_local_join()

    def test_extensions_keep_other_capabilities(self):
        join = PartitionedIntervalJoin(10)
        assert not join.uses_default_match()
        assert not join.uses_dedup()
        sweep = PlaneSweepSpatialJoin(8)
        assert sweep.uses_default_match()
        assert sweep.uses_dedup()


class TestPartitionedIntervalJoin:
    def _dbs(self, seed=3):
        db = interval_database(700, partitions=6, num_buckets=64, seed=seed)
        return db

    def test_same_result_as_broadcast(self):
        db = self._dbs()
        base = db.execute(INTERVAL_SQL, mode="fudj")
        db.drop_join("overlapping_interval")
        db.create_join("overlapping_interval", PartitionedIntervalJoin,
                       defaults=(64,))
        partitioned = db.execute(INTERVAL_SQL, mode="fudj")
        assert base.rows == partitioned.rows

    def test_no_broadcast_traffic(self):
        db = self._dbs()
        base = db.execute(INTERVAL_SQL, mode="fudj")
        db.drop_join("overlapping_interval")
        db.create_join("overlapping_interval", PartitionedIntervalJoin,
                       defaults=(64,))
        partitioned = db.execute(INTERVAL_SQL, mode="fudj")
        assert sum(s.fabric_bytes for s in base.metrics.stages) > 0
        assert sum(s.fabric_bytes for s in partitioned.metrics.stages) == 0

    def test_scales_better_than_broadcast(self):
        def time_at(join_class, cores):
            db = interval_database(1500, partitions=cores, num_buckets=128,
                                   seed=4)
            db.drop_join("overlapping_interval")
            db.create_join("overlapping_interval", join_class, defaults=(128,))
            return db.execute(INTERVAL_SQL, mode="fudj"
                              ).metrics.simulated_seconds(cores)

        broadcast_speedup = time_at(IntervalJoin, 12) / time_at(IntervalJoin, 96)
        partitioned_speedup = (
            time_at(PartitionedIntervalJoin, 12)
            / time_at(PartitionedIntervalJoin, 96)
        )
        assert partitioned_speedup > broadcast_speedup

    @settings(max_examples=60, deadline=None)
    @given(
        s1=st.integers(0, 99), l1=st.integers(0, 30),
        s2=st.integers(0, 99), l2=st.integers(0, 30),
        num_partitions=st.integers(1, 16),
    )
    def test_matching_buckets_share_a_partition(self, s1, l1, s2, l2,
                                                num_partitions):
        # The correctness invariant of partition_buckets: match => shared
        # partition.
        from repro.joins.interval import IntervalPPlan

        join = PartitionedIntervalJoin(100)
        pplan = IntervalPPlan(0.0, 1.0, 100)
        b1 = (s1 << 16) | min(99, s1 + l1)
        b2 = (s2 << 16) | min(99, s2 + l2)
        p1 = set(join.partition_buckets(b1, num_partitions, pplan))
        p2 = set(join.partition_buckets(b2, num_partitions, pplan))
        assert p1 and p2
        assert all(0 <= p < num_partitions for p in p1 | p2)
        if join.match(b1, b2):
            assert p1 & p2


class TestPlaneSweepSpatialJoin:
    def test_same_result_fewer_comparisons(self):
        db = spatial_database(150, 1500, partitions=6, grid_n=20, seed=5)
        base = db.execute(SPATIAL_SQL, mode="fudj")
        db.drop_join("st_contains")
        db.create_join("st_contains", PlaneSweepSpatialJoin, defaults=(20,))
        sweep = db.execute(SPATIAL_SQL, mode="fudj")
        assert normalized(base) == normalized(sweep)
        assert sweep.metrics.comparisons < base.metrics.comparisons

    def test_local_join_yields_index_pairs(self):
        from repro.geometry import Rectangle

        join = PlaneSweepSpatialJoin(4)
        keys1 = [Rectangle(0, 0, 2, 2), Rectangle(10, 10, 11, 11)]
        keys2 = [Rectangle(1, 1, 3, 3)]
        pairs = list(join.local_join(keys1, keys2, None))
        assert pairs == [(0, 0)]


class TestAutoTuneSpatialJoin:
    def test_same_result_as_hand_tuned(self):
        db = spatial_database(150, 1500, partitions=6, grid_n=20, seed=6)
        base = db.execute(SPATIAL_SQL, mode="fudj")
        db.drop_join("st_contains")
        db.create_join("st_contains", AutoTuneSpatialJoin)
        auto = db.execute(SPATIAL_SQL, mode="fudj")
        assert normalized(base) == normalized(auto)

    def test_grid_grows_with_data(self):
        from repro.geometry import Rectangle

        small = AutoTuneSpatialJoin()
        small.divide((Rectangle(0, 0, 1, 1), 50), (Rectangle(0, 0, 1, 1), 50))
        big = AutoTuneSpatialJoin()
        big.divide((Rectangle(0, 0, 1, 1), 50000),
                   (Rectangle(0, 0, 1, 1), 50000))
        assert big.n > small.n

    def test_grid_bounded(self):
        from repro.geometry import Rectangle

        join = AutoTuneSpatialJoin(target_per_tile=0.001, max_n=64)
        join.divide((Rectangle(0, 0, 1, 1), 10**9), (Rectangle(0, 0, 1, 1), 1))
        assert join.n == 64

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            AutoTuneSpatialJoin(target_per_tile=0.0)


class TestLengthFilteredTextJoin:
    def test_same_results_fewer_candidates(self):
        from repro.bench import TEXT_SQL, text_database

        db = text_database(500, partitions=4, seed=8)
        sql = TEXT_SQL.format(threshold=0.7)
        base = db.execute(sql, mode="fudj")
        db.drop_join("similarity_jaccard")
        db.create_join("similarity_jaccard", LengthFilteredTextJoin)
        filtered = db.execute(sql, mode="fudj")
        assert base.rows == filtered.rows
        assert filtered.metrics.comparisons <= base.metrics.comparisons

    def test_standalone_equals_nested_loop(self):
        # check_library runs the engine too, where local_join is used.
        rng = random.Random(6)
        vocab = ["a", "b", "c", "d", "e", "f", "g", "h"]
        texts = lambda: [" ".join(rng.sample(vocab, rng.randint(1, 6)))
                         for _ in range(40)]
        left, right = texts(), texts()
        check_library(LengthFilteredTextJoin(0.6), left, right)

    def test_empty_texts_still_pair(self):
        assert check_library(LengthFilteredTextJoin(0.9), [""],
                             ["", "word"]) == [("", "")]
