"""Seeded engine-level cases of the extension joins.

The ``partition_buckets`` / ``local_join`` hooks only run on the
engine: :func:`repro.core.contract.check_library` runs each extension
through ``FudjJoin`` on one partition and on several and holds it to
the nested loop (which the stock library it extends must match too)
and to the hook's own law.  The random cases are rows of
``tests/test_library_contract.py``; these keep the seeded inputs.
"""

import random

import pytest

from repro.core.contract import check_library
from repro.geometry import Point, Polygon
from repro.interval import Interval
from repro.joins import (
    AutoTuneSpatialJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    SortMergeIntervalJoin,
)


def random_intervals(rng, count, span=500, max_length=25):
    return [Interval(start, start + rng.uniform(0, max_length))
            for start in (rng.uniform(0, span) for _ in range(count))]


def parks_and_points(rng, count):
    parks = [Polygon.regular(Point(rng.uniform(0, 80), rng.uniform(0, 80)),
                             rng.uniform(1, 6), rng.randint(3, 7))
             for _ in range(count // 4)]
    points = [Point(rng.uniform(0, 80), rng.uniform(0, 80))
              for _ in range(count)]
    return parks, points


@pytest.mark.parametrize("seed", [1, 7, 42, 1234])
@pytest.mark.parametrize("extension_class", [
    PartitionedIntervalJoin, SortMergeIntervalJoin,
])
def test_interval_extensions_match_stock(seed, extension_class):
    rng = random.Random(seed)
    left = random_intervals(rng, 80)
    right = random_intervals(rng, 80)
    assert check_library(extension_class(32), left, right)


@pytest.mark.parametrize("seed", [3, 9, 77])
def test_plane_sweep_matches_stock(seed):
    check_library(PlaneSweepSpatialJoin(12),
                  *parks_and_points(random.Random(seed), 120))


@pytest.mark.parametrize("seed", [4, 11])
def test_autotune_matches_stock(seed):
    check_library(AutoTuneSpatialJoin(),
                  *parks_and_points(random.Random(seed), 120))


def test_sort_merge_candidates_cover_all_overlaps():
    # The local_join law: candidates are a superset of the overlaps.
    rng = random.Random(5)
    for _ in range(20):
        left = random_intervals(rng, 30, span=100, max_length=10)
        right = random_intervals(rng, 30, span=100, max_length=10)
        check_library(SortMergeIntervalJoin(16), left, right)
