"""Tests for projection pushdown (column pruning above scans)."""

import pytest

from repro.bench import SPATIAL_SQL, spatial_database
from repro.database import Database


@pytest.fixture()
def db():
    db = Database(num_partitions=4)
    db.execute("CREATE TYPE Wide { id: int, a: int, b: int, c: string, "
               "d: string }")
    db.execute("CREATE DATASET W(Wide) PRIMARY KEY id")
    db.load("W", [
        {"id": i, "a": i % 5, "b": i * 2, "c": f"text{i}" * 10, "d": "pad" * 30}
        for i in range(40)
    ])
    return db


class TestPruning:
    def test_plan_shows_pruned_fields(self, db):
        plan = db.explain("SELECT w.a FROM W w WHERE w.b > 10")
        assert "PROJECT w.a, w.b" in plan
        assert "w.c" not in plan
        assert "w.d" not in plan

    def test_prune_below_filter(self, db):
        plan = db.explain("SELECT w.a FROM W w WHERE w.b > 10")
        lines = plan.splitlines()
        project_at = next(i for i, l in enumerate(lines) if "PROJECT" in l)
        filter_at = next(i for i, l in enumerate(lines) if "FILTER" in l)
        scan_at = next(i for i, l in enumerate(lines) if "SCAN" in l)
        assert filter_at < project_at < scan_at

    def test_results_unchanged(self, db):
        result = db.execute("SELECT w.a, COUNT(1) AS n FROM W w "
                            "WHERE w.b > 10 GROUP BY w.a")
        assert sum(row["n"] for row in result.rows) == len(
            [i for i in range(40) if i * 2 > 10]
        )

    def test_count_star_keeps_unpruned_scan(self, db):
        # No field is referenced; the scan must not be pruned to nothing.
        result = db.execute("SELECT COUNT(1) AS n FROM W w")
        assert result.rows == [{"n": 40}]
        assert "PROJECT" not in db.explain("SELECT COUNT(1) AS n FROM W w")

    def test_order_by_expression_fields_kept(self, db):
        result = db.execute("SELECT w.a FROM W w ORDER BY w.b DESC LIMIT 1")
        assert result.rows == [{"w.a": 39 % 5}]

    def test_having_fields_kept(self, db):
        result = db.execute(
            "SELECT w.a, COUNT(1) AS n FROM W w GROUP BY w.a "
            "HAVING MAX(w.b) > 70"
        )
        assert len(result) > 0


class TestPruningShrinksShuffles:
    def test_fudj_join_moves_fewer_bytes(self):
        # The spatial workload carries a `tags` string never referenced by
        # the bench query; pruning must drop it before the shuffle.
        db = spatial_database(100, 800, partitions=4, grid_n=12, seed=4)
        pruned = db.execute(SPATIAL_SQL, mode="fudj")
        plan = db.explain(SPATIAL_SQL)
        assert "p.tags" not in plan
        # Rough upper bound: shuffled bytes stay below the full dataset
        # wire size (which includes the pruned tags strings).
        total_bytes = sum(
            record.serialized_size()
            for name in ("Parks", "Wildfires")
            for record in db.cluster.dataset(name).scan()
        )
        assert pruned.metrics.total_network_bytes() < 2 * total_bytes

    def test_three_mode_agreement_with_pruning(self):
        db = spatial_database(80, 500, partitions=4, grid_n=10, seed=5)
        rows = {mode: sorted(map(repr, db.execute(SPATIAL_SQL, mode=mode).rows))
                for mode in ("fudj", "builtin", "ontop")}
        assert rows["fudj"] == rows["builtin"] == rows["ontop"]


class TestEliminationWithPruning:
    def test_value_identical_pairs_survive_elimination(self):
        """Regression: duplicate elimination dedups by *pair identity*,
        not row value — after pruning, two distinct input pairs can have
        identical remaining field values and must both be counted."""
        from repro.database import Database
        from repro.joins import TextSimilarityJoin

        db = Database(num_partitions=4)
        db.execute("CREATE TYPE R { id: int, overall: int, review: text }")
        db.execute("CREATE DATASET Reviews(R) PRIMARY KEY id")
        # Two identical 5-star reviews and one 4-star twin: two distinct
        # (5-star, 4-star) pairs whose pruned rows are value-identical.
        db.load("Reviews", [
            {"id": 1, "overall": 5, "review": "great phone battery"},
            {"id": 2, "overall": 5, "review": "great phone battery"},
            {"id": 3, "overall": 4, "review": "great phone battery"},
        ])
        db.create_join("similarity_jaccard", TextSimilarityJoin)
        sql = ("SELECT COUNT(1) AS c FROM Reviews r1, Reviews r2 "
               "WHERE r1.overall = 5 AND r2.overall = 4 AND "
               "similarity_jaccard(r1.review, r2.review) >= 0.9")
        avoid = db.execute(sql, mode="fudj", dedup="avoidance")
        elim = db.execute(sql, mode="fudj", dedup="elimination")
        assert avoid.rows == [{"c": 2}]
        assert elim.rows == [{"c": 2}]
