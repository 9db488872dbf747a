"""Three-mode equivalence and overhead-shape tests on realistic workloads.

These are the correctness backbone of the benchmark claims: FUDJ,
built-in, and on-top execution must produce identical results, and the
cost relationships the paper reports (on-top >> FUDJ >= built-in) must
hold on the synthetic workloads.
"""

import pytest

from repro.bench.workloads import (
    INTERVAL_SQL,
    SPATIAL_SQL,
    TEXT_SQL,
    interval_database,
    spatial_database,
    text_database,
)

MODES = ("fudj", "builtin", "ontop")


def normalized(result):
    return sorted(tuple(sorted(row.items())) for row in result.rows)


class TestSpatialWorkload:
    @pytest.fixture(scope="class")
    def db(self):
        return spatial_database(100, 600, partitions=4, grid_n=16, seed=21)

    def test_all_modes_agree(self, db):
        results = {m: db.execute(SPATIAL_SQL, mode=m) for m in MODES}
        assert normalized(results["fudj"]) == normalized(results["builtin"])
        assert normalized(results["fudj"]) == normalized(results["ontop"])

    def test_ontop_does_quadratic_comparisons(self, db):
        ontop = db.execute(SPATIAL_SQL, mode="ontop")
        assert ontop.metrics.comparisons == 100 * 600

    def test_fudj_prunes_most_pairs(self, db):
        fudj = db.execute(SPATIAL_SQL, mode="fudj")
        assert fudj.metrics.comparisons < 100 * 600 / 20

    def test_simulated_time_ordering(self, db):
        sim = {
            m: db.execute(SPATIAL_SQL, mode=m).metrics.simulated_seconds(12)
            for m in MODES
        }
        assert sim["ontop"] > sim["fudj"] * 5
        assert sim["builtin"] <= sim["fudj"]

    def test_dedup_strategies_agree(self, db):
        avoid = db.execute(SPATIAL_SQL, mode="fudj", dedup="avoidance")
        elim = db.execute(SPATIAL_SQL, mode="fudj", dedup="elimination")
        assert normalized(avoid) == normalized(elim)

    def test_reference_point_variant_agrees(self):
        default = spatial_database(60, 300, partitions=4, grid_n=12, seed=3)
        refpoint = spatial_database(60, 300, partitions=4, grid_n=12, seed=3,
                                    reference_point=True)
        a = default.execute(SPATIAL_SQL, mode="fudj")
        b = refpoint.execute(SPATIAL_SQL, mode="fudj")
        assert normalized(a) == normalized(b)


class TestIntervalWorkload:
    @pytest.fixture(scope="class")
    def db(self):
        return interval_database(500, partitions=4, num_buckets=60, seed=22)

    def test_all_modes_agree(self, db):
        results = {m: db.execute(INTERVAL_SQL, mode=m) for m in MODES}
        counts = {m: r.rows[0]["c"] for m, r in results.items()}
        assert counts["fudj"] == counts["builtin"] == counts["ontop"]
        assert counts["fudj"] > 0

    def test_multi_join_broadcast_bytes(self, db):
        # The theta fallback broadcasts one side: network bytes grow with
        # the partition count (the §VII-C scalability limitation).
        fudj = db.execute(INTERVAL_SQL, mode="fudj")
        assert fudj.metrics.total_network_bytes() > 0

    def test_bucket_count_affects_comparisons(self):
        coarse = interval_database(400, partitions=4, num_buckets=2, seed=5)
        fine = interval_database(400, partitions=4, num_buckets=200, seed=5)
        c = coarse.execute(INTERVAL_SQL, mode="fudj").metrics.comparisons
        f = fine.execute(INTERVAL_SQL, mode="fudj").metrics.comparisons
        assert f < c  # finer buckets prune more pairs


class TestTextWorkload:
    @pytest.fixture(scope="class")
    def db(self):
        return text_database(400, partitions=4, seed=23)

    @pytest.mark.parametrize("threshold", [0.5, 0.8, 0.9])
    def test_all_modes_agree(self, db, threshold):
        sql = TEXT_SQL.format(threshold=threshold)
        results = {m: db.execute(sql, mode=m) for m in MODES}
        counts = {m: r.rows[0]["c"] for m, r in results.items()}
        assert counts["fudj"] == counts["builtin"] == counts["ontop"]

    def test_near_duplicates_exist(self, db):
        # The generator must produce similar cross-rating pairs, or the
        # t=0.9 experiments would measure empty joins.
        sql = TEXT_SQL.format(threshold=0.9)
        assert db.execute(sql, mode="fudj").rows[0]["c"] > 0

    def test_lower_threshold_verifies_more(self, db):
        high = db.execute(TEXT_SQL.format(threshold=0.9), mode="fudj")
        low = db.execute(TEXT_SQL.format(threshold=0.5), mode="fudj")
        assert low.metrics.comparisons > high.metrics.comparisons

    def test_elimination_shuffles_more(self, db):
        sql = TEXT_SQL.format(threshold=0.8)
        avoid = db.execute(sql, mode="fudj", dedup="avoidance")
        elim = db.execute(sql, mode="fudj", dedup="elimination")
        assert elim.metrics.total_network_bytes() >= avoid.metrics.total_network_bytes()
        assert avoid.rows == elim.rows
