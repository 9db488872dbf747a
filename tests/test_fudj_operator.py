"""Tests for the FudjJoin physical operator (the Figure 8 plan)."""

import random

from repro.core import DuplicateElimination
from repro.core.contract import check_library
from repro.engine import Cluster, Schema
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan
from repro.engine.operators import FudjJoin, Scan
from repro.serde.values import unbox
from tests.helpers import BandJoin, ThetaBandJoin


def band_cluster(left_keys, right_keys, partitions=4):
    cluster = Cluster(num_partitions=partitions)
    left = cluster.create_dataset("L", Schema(["id", "k"]), "id")
    left.bulk_load({"id": i, "k": k} for i, k in enumerate(left_keys))
    right = cluster.create_dataset("R", Schema(["id", "k"]), "id")
    right.bulk_load({"id": i, "k": k} for i, k in enumerate(right_keys))
    return cluster


def lkey(record):
    return unbox(record["l.k"])


def rkey(record):
    return unbox(record["r.k"])


class TestSingleJoinPath:
    """Through the operator: check_library runs ``FudjJoin`` on one
    partition and on several, under avoidance and elimination."""

    def test_matches_ground_truth(self):
        rng = random.Random(42)
        left = [round(rng.uniform(0, 40), 3) for _ in range(80)]
        right = [round(rng.uniform(0, 40), 3) for _ in range(80)]
        check_library(BandJoin(1.0, 8), left, right)

    def test_no_duplicates_despite_multi_assign(self):
        # Band window spans several buckets; pair must appear exactly once.
        assert check_library(BandJoin(5.0, 8), [10.0],
                             [10.1]) == [(10.0, 10.1)]

    def test_elimination_strategy_same_result(self):
        rng = random.Random(43)
        left = [round(rng.uniform(0, 20), 3) for _ in range(50)]
        right = [round(rng.uniform(0, 20), 3) for _ in range(50)]
        check_library(BandJoin(1.0, 8), left, right)

    def test_elimination_adds_a_shuffle_stage(self):
        cluster = band_cluster([1.0, 2.0], [1.5])
        op = FudjJoin(Scan("L", "l"), Scan("R", "r"), BandJoin(1.0, 4),
                      lkey, rkey, dedup=DuplicateElimination())
        ctx = ExecutionContext(cluster)
        op.execute(ctx)
        stage_names = [s.name for s in ctx.metrics.stages]
        assert any("dedup-shuffle" in name for name in stage_names)

    def test_empty_sides(self):
        assert check_library(BandJoin(1.0, 4), [], [1.0]) == []
        assert check_library(BandJoin(1.0, 4), [1.0], []) == []


class TestMultiJoinPath:
    def test_matches_ground_truth(self):
        rng = random.Random(44)
        left = [round(rng.uniform(0, 30), 3) for _ in range(60)]
        right = [round(rng.uniform(0, 30), 3) for _ in range(60)]
        check_library(ThetaBandJoin(1.0, 8), left, right)

    def test_uses_broadcast_plan(self):
        cluster = band_cluster([1.0], [2.0])
        op = FudjJoin(Scan("L", "l"), Scan("R", "r"), ThetaBandJoin(1.0, 4),
                      lkey, rkey)
        ctx = ExecutionContext(cluster)
        op.execute(ctx)
        stage_names = [s.name for s in ctx.metrics.stages]
        assert any("broadcast" in name for name in stage_names)
        assert any("spread" in name for name in stage_names)


class TestTranslationLayer:
    def test_translate_counts_conversions(self):
        cluster = band_cluster([1.0, 2.0, 3.0], [1.5, 2.5])
        op = FudjJoin(Scan("L", "l"), Scan("R", "r"), BandJoin(1.0, 4),
                      lkey, rkey, translate=True)
        ctx = ExecutionContext(cluster)
        op.execute(ctx)
        metrics = ctx.finish()
        # One per input record: a key is made once and every phase reads it.
        assert metrics.translation_conversions == 5

    def test_no_translate_counts_nothing(self):
        cluster = band_cluster([1.0, 2.0, 3.0], [1.5, 2.5])
        op = FudjJoin(Scan("L", "l"), Scan("R", "r"), BandJoin(1.0, 4),
                      lkey, rkey, translate=False)
        ctx = ExecutionContext(cluster)
        op.execute(ctx)
        assert ctx.finish().translation_conversions == 0

    def test_translate_costs_more_cpu(self):
        keys = [float(i) for i in range(100)]
        cluster = band_cluster(keys, keys)
        ctx_a = ExecutionContext(cluster)
        FudjJoin(Scan("L", "l"), Scan("R", "r"), BandJoin(0.5, 8),
                 lkey, rkey, translate=True).execute(ctx_a)
        ctx_b = ExecutionContext(cluster)
        FudjJoin(Scan("L", "l"), Scan("R", "r"), BandJoin(0.5, 8),
                 lkey, rkey, translate=False).execute(ctx_b)
        assert ctx_a.metrics.total_cpu_units() > ctx_b.metrics.total_cpu_units()


class TestSelfJoinOptimization:
    def test_summarize_once_produces_same_result(self):
        keys = [float(i) for i in range(40)]
        cluster = band_cluster(keys, keys)
        normal = FudjJoin(Scan("L", "l"), Scan("R", "r"), BandJoin(1.0, 8),
                          lkey, rkey, self_join=False)
        once = FudjJoin(Scan("L", "l"), Scan("R", "r"), BandJoin(1.0, 8),
                        lkey, rkey, self_join=True)
        a = execute_plan(normal, cluster)
        b = execute_plan(once, cluster)
        assert sorted(map(tuple, (r.items() for r in a.rows))) == sorted(
            map(tuple, (r.items() for r in b.rows))
        )

    def test_summarize_once_skips_a_stage(self):
        keys = [float(i) for i in range(10)]
        cluster = band_cluster(keys, keys)
        op = FudjJoin(Scan("L", "l"), Scan("R", "r"), BandJoin(1.0, 4),
                      lkey, rkey, self_join=True)
        ctx = ExecutionContext(cluster)
        op.execute(ctx)
        names = [s.name for s in ctx.metrics.stages]
        assert not any("summarize-right" in n for n in names)
