"""Unit tests for the standalone single-machine FUDJ runner (§VI-D2)."""

import random

from repro.core import DuplicateElimination, StandaloneRunner
from repro.core.contract import check_library
from tests.helpers import BandJoin, ModEquiJoin, ThetaBandJoin


class TestStandaloneRunner:
    def test_equi_join(self):
        runner = StandaloneRunner(ModEquiJoin(4))
        left = [1, 2, 3, 4, 5]
        right = [3, 4, 5, 6, 7]
        result = sorted(runner.run(left, right))
        assert result == [(3, 3), (4, 4), (5, 5)]

    def test_band_join_matches_nested_loop(self):
        rng = random.Random(77)
        left = [rng.uniform(0, 50) for _ in range(60)]
        right = [rng.uniform(0, 50) for _ in range(60)]
        check_library(BandJoin(1.5, 10), left, right)

    def test_no_duplicates_from_multi_assign(self):
        left = [5.0, 5.0]  # duplicates in data are fine; pair duplicates are not
        right = [5.2]
        # Two left records each pair once with the right record, under
        # avoidance and under elimination, which keeps one pair per pair
        # of records, not per pair of key values.
        for dedup in (None, DuplicateElimination()):
            result = StandaloneRunner(BandJoin(1.0, 4), dedup).run(left, right)
            assert result == [(5.0, 5.2), (5.0, 5.2)]

    def test_elimination_strategy_same_result(self):
        # check_library runs default avoidance and elimination both.
        rng = random.Random(5)
        left = [rng.uniform(0, 20) for _ in range(40)]
        right = [rng.uniform(0, 20) for _ in range(40)]
        check_library(BandJoin(1.0, 8), left, right)

    def test_empty_sides(self):
        runner = StandaloneRunner(BandJoin(1.0, 4))
        assert runner.run([], [1.0, 2.0]) == []
        assert runner.run([1.0], []) == []
        assert runner.run([], []) == []

    def test_trace_stats(self):
        runner = StandaloneRunner(BandJoin(1.0, 4), trace=True)
        runner.run([1.0, 2.0, 3.0], [2.5])
        assert runner.stats["left_keys"] == 3
        assert runner.stats["right_keys"] == 1
        assert runner.stats["left_buckets"] >= 1
        assert "verify_calls" in runner.stats

    def test_run_nested_loop_ground_truth(self):
        # check_library answers the nested loop over ``verify``.
        assert check_library(BandJoin(2.0, 4), [1.0, 5.0],
                             [2.0, 9.0]) == [(1.0, 2.0)]

    def test_phases_exposed_individually(self):
        from repro.core import JoinSide

        join = BandJoin(1.0, 4)
        runner = StandaloneRunner(join)
        summary = runner.summarize([1.0, 9.0], JoinSide.LEFT)
        assert summary == (1.0, 9.0)
        pplan = join.divide(summary, summary)
        buckets = runner.partition([1.0, 9.0], pplan, JoinSide.LEFT)
        assert sum(len(v) for v in buckets.values()) >= 2

    def test_multi_join_combination(self):
        rng = random.Random(13)
        left = [rng.uniform(0, 30) for _ in range(40)]
        right = [rng.uniform(0, 30) for _ in range(40)]
        check_library(ThetaBandJoin(1.0, 8), left, right)


class TestBucketHistogram:
    def test_reports_spread(self):
        from repro.core import JoinSide

        runner = StandaloneRunner(BandJoin(1.0, 8))
        text = runner.bucket_histogram([float(i) for i in range(40)],
                                       JoinSide.LEFT)
        assert "40 keys" in text
        assert "buckets" in text
        assert "#" in text

    def test_replication_factor_shown(self):
        from repro.core import JoinSide

        # A wide band replicates every key into several buckets.
        runner = StandaloneRunner(BandJoin(10.0, 8))
        text = runner.bucket_histogram([float(i) for i in range(20)],
                                       JoinSide.LEFT)
        factor = float(text.split("(x")[1].split(" ")[0])
        assert factor > 1.5

    def test_empty_input(self):
        from repro.core import JoinSide

        runner = StandaloneRunner(BandJoin(1.0, 4))
        assert "empty input" in runner.bucket_histogram([], JoinSide.LEFT)

    def test_skew_visible(self):
        from repro.core import JoinSide

        runner = StandaloneRunner(BandJoin(0.1, 16))
        # All keys identical: one hot bucket.
        text = runner.bucket_histogram([5.0] * 30, JoinSide.LEFT)
        assert "max=30" in text
