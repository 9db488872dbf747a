"""Randomized engine-level equivalence for the extension joins.

The StandaloneRunner does not exercise ``partition_buckets``/``local_join``
(those are engine hooks), so these tests run the full distributed operator
over random data and compare each extension against the stock library.
"""

import random

import pytest

from repro.engine import Cluster, Schema
from repro.engine.executor import execute_plan
from repro.engine.operators import FudjJoin, Scan
from repro.interval import Interval
from repro.geometry import Point, Polygon
from repro.joins import (
    AutoTuneSpatialJoin,
    IntervalJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    SortMergeIntervalJoin,
    SpatialContainsJoin,
)
from repro.serde.values import unbox


def interval_cluster(rng, count, partitions):
    cluster = Cluster(num_partitions=partitions)
    for name in ("L", "R"):
        ds = cluster.create_dataset(name, Schema(["id", "iv"]), "id")
        rows = []
        for i in range(count):
            start = rng.uniform(0, 500)
            rows.append({"id": i, "iv": Interval(start, start + rng.uniform(0, 25))})
        ds.bulk_load(rows)
    return cluster


def spatial_cluster(rng, count, partitions):
    cluster = Cluster(num_partitions=partitions)
    parks = cluster.create_dataset("L", Schema(["id", "g"]), "id")
    parks.bulk_load(
        {
            "id": i,
            "g": Polygon.regular(
                Point(rng.uniform(0, 80), rng.uniform(0, 80)),
                rng.uniform(1, 6), rng.randint(3, 7),
            ),
        }
        for i in range(count // 4)
    )
    points = cluster.create_dataset("R", Schema(["id", "g"]), "id")
    points.bulk_load(
        {"id": i, "g": Point(rng.uniform(0, 80), rng.uniform(0, 80))}
        for i in range(count)
    )
    return cluster


def run_join(cluster, join, key_field="iv"):
    op = FudjJoin(
        Scan("L", "l"), Scan("R", "r"), join,
        lambda rec: unbox(rec[f"l.{key_field}"]),
        lambda rec: unbox(rec[f"r.{key_field}"]),
    )
    result = execute_plan(op, cluster)
    return sorted(
        (row["l.id"], row["r.id"]) for row in result.rows
    )


@pytest.mark.parametrize("seed", [1, 7, 42, 1234])
@pytest.mark.parametrize("extension_class", [
    PartitionedIntervalJoin, SortMergeIntervalJoin,
])
def test_interval_extensions_match_stock(seed, extension_class):
    rng = random.Random(seed)
    cluster = interval_cluster(rng, 80, partitions=5)
    base = run_join(cluster, IntervalJoin(32))
    extended = run_join(cluster, extension_class(32))
    assert base == extended
    assert len(base) > 0


@pytest.mark.parametrize("seed", [3, 9, 77])
def test_plane_sweep_matches_stock(seed):
    rng = random.Random(seed)
    cluster = spatial_cluster(rng, 120, partitions=5)
    base = run_join(cluster, SpatialContainsJoin(12), key_field="g")
    swept = run_join(cluster, PlaneSweepSpatialJoin(12), key_field="g")
    assert base == swept


@pytest.mark.parametrize("seed", [4, 11])
def test_autotune_matches_stock(seed):
    rng = random.Random(seed)
    cluster = spatial_cluster(rng, 120, partitions=5)
    base = run_join(cluster, SpatialContainsJoin(12), key_field="g")
    auto = run_join(cluster, AutoTuneSpatialJoin(), key_field="g")
    assert base == auto


def test_sort_merge_candidates_cover_all_overlaps():
    # Direct check of the forward-scan enumeration: candidates must be a
    # superset of truly overlapping pairs.
    rng = random.Random(5)
    join = SortMergeIntervalJoin(16)
    for _ in range(20):
        left = [Interval(s := rng.uniform(0, 100), s + rng.uniform(0, 10))
                for _ in range(30)]
        right = [Interval(s := rng.uniform(0, 100), s + rng.uniform(0, 10))
                 for _ in range(30)]
        candidates = set(join.local_join(left, right, None))
        truth = {
            (i, j)
            for i, a in enumerate(left)
            for j, b in enumerate(right)
            if a.overlaps(b)
        }
        assert truth <= candidates
