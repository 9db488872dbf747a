"""Default duplicate avoidance answered from PARTITION's assignments.

COMBINE no longer calls ``assign`` again for every candidate pair when
the library leaves duplicate avoidance at the framework default: each
entry carries its record's sorted bucket list from PARTITION and
:meth:`repro.engine.combine.CombineSite.keeps` reads the answer off the
two lists.  Overriding ``dedup``, ``first_matching_buckets`` or
``assign_list`` switches that off — the engine then calls the library
per pair, as it always did.

So every shipped library gets a *twin* whose only change is a ``dedup``
that calls the framework default: the twin takes the per-pair path, the
original the carried one, and the two must agree byte for byte — rows,
``QueryMetrics.to_dict()``, quarantine report and event JSONL.  The
harness is ``tests/test_workers.py``'s ``run_query``.  That the carry
also holds on the process backend and across a spill is what the golden
file's ``process`` and budgeted cases pin (``tests/test_golden.py``),
and :class:`TestTheCarryDropsDuplicates` anchors the spill here.
"""

import random

import pytest

from repro.bench import workloads
from repro.core.dedup import DuplicateAvoidance, DuplicateElimination
from repro.core.flexible_join import FlexibleJoin
from repro.database import Database
from repro.datagen import generate_trajectories
from repro.engine import Cluster
from repro.engine.combine import CombineSite
from repro.engine.context import ExecutionContext
from repro.engine.operators.fudj_join import FudjJoin
from repro.joins import (
    AutoTuneSpatialJoin,
    IntervalJoin,
    LengthFilteredTextJoin,
    NumericBandJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    ReferencePointSpatialJoin,
    SortMergeIntervalJoin,
    SpatialContainsJoin,
    SpatialJoin,
    TextSimilarityJoin,
    TrajectoryProximityJoin,
)
from tests.test_workers import COMPARED_KEYS, run_query, with_join


def _per_pair_dedup(self, *args):
    return FlexibleJoin.dedup(self, *args)


def twin_of(join_class):
    """``join_class`` with ``dedup`` overridden by a call to the default:
    same answers, but the engine must ask per pair."""
    return type(f"PerPair{join_class.__name__}", (join_class,),
                {"dedup": _per_pair_dedup})


def spatial_self_database():
    """Parks against Parks on ``ST_Intersects``: both sides multi-assigned,
    so avoidance really drops pairs (points on the right never do)."""
    db = workloads.spatial_database(40, 10)
    db.create_join("st_intersects", SpatialJoin, defaults=(48,))
    return db


SPATIAL_SELF_SQL = (
    "SELECT p.id, COUNT(1) AS c FROM Parks p, Parks q "
    "WHERE ST_Intersects(p.boundary, q.boundary) GROUP BY p.id"
)


def band_database():
    db = Database(num_partitions=4)
    db.execute("CREATE TYPE S { id: int, reading: double }")
    db.execute("CREATE DATASET SensorA(S) PRIMARY KEY id")
    db.execute("CREATE DATASET SensorB(S) PRIMARY KEY id")
    rng = random.Random(3)
    for name in ("SensorA", "SensorB"):
        db.load(name, [{"id": i, "reading": round(rng.uniform(0, 30), 2)}
                       for i in range(80)])
    db.create_join("within_band", NumericBandJoin, defaults=(1.0, 32))
    return db


BAND_SQL = ("SELECT COUNT(1) AS n FROM SensorA a, SensorB b "
            "WHERE within_band(a.reading, b.reading, 0.5)")


def trajectory_database():
    db = Database(num_partitions=4)
    db.execute("CREATE TYPE TripType { id: int, vehicle: int, "
               "route: trajectory }")
    db.execute("CREATE DATASET Trips(TripType) PRIMARY KEY id")
    db.load("Trips", generate_trajectories(90, seed=2))
    db.create_join("routes_near", TrajectoryProximityJoin,
                   defaults=(2.0, 24))
    return db


TRAJECTORY_SQL = ("SELECT COUNT(1) AS c FROM Trips a, Trips b "
                  "WHERE a.vehicle = 1 AND b.vehicle = 2 "
                  "AND routes_near(a.route, b.route, 3.0)")

spatial = lambda: workloads.spatial_database(200, 800, partitions=4)  # noqa: E731
interval = lambda: workloads.interval_database(120)  # noqa: E731
text = lambda: workloads.text_database(80)  # noqa: E731
TEXT_SQL = workloads.TEXT_SQL.format(threshold=0.6)

#: Every shipped library: (class, database, join name, defaults, SQL).
#: ReferencePointSpatialJoin is not here — it overrides ``dedup`` itself
#: (see TestOverridesAreCalledPerPair).
LIBRARIES = [
    (SpatialContainsJoin, spatial, "st_contains", (48,),
     workloads.SPATIAL_SQL),
    (PlaneSweepSpatialJoin, spatial, "st_contains", (48,),
     workloads.SPATIAL_SQL),
    (AutoTuneSpatialJoin, spatial, "st_contains", (),
     workloads.SPATIAL_SQL),
    (SpatialJoin, spatial_self_database, "st_intersects", (48,),
     SPATIAL_SELF_SQL),
    (IntervalJoin, interval, "overlapping_interval", (100,),
     workloads.INTERVAL_SQL),
    (PartitionedIntervalJoin, interval, "overlapping_interval", (100,),
     workloads.INTERVAL_SQL),
    (SortMergeIntervalJoin, interval, "overlapping_interval", (100,),
     workloads.INTERVAL_SQL),
    (TextSimilarityJoin, text, "similarity_jaccard", (), TEXT_SQL),
    (LengthFilteredTextJoin, text, "similarity_jaccard", (), TEXT_SQL),
    (NumericBandJoin, band_database, "within_band", (1.0, 32), BAND_SQL),
    (TrajectoryProximityJoin, trajectory_database, "routes_near",
     (2.0, 24), TRAJECTORY_SQL),
]


@pytest.mark.parametrize("dedup", [None, "elimination"])
@pytest.mark.parametrize("library", LIBRARIES,
                         ids=lambda library: library[0].__name__)
def test_carried_equals_per_pair(library, dedup):
    join_class, build, name, defaults, sql = library
    carried_rows, carried = run_query(
        with_join(build, name, join_class, *defaults), sql, "serial",
        dedup=dedup)
    per_pair_rows, per_pair = run_query(
        with_join(build, name, twin_of(join_class), *defaults), sql,
        "serial", dedup=dedup)
    assert carried_rows == per_pair_rows
    assert carried["output_records"] > 0  # a join that found nothing proves nothing
    for key in COMPARED_KEYS:
        assert carried.get(key) == per_pair.get(key), key


def _site(join, dedup=None) -> CombineSite:
    op = FudjJoin(None, None, join, None, None, dedup=dedup)
    ctx = ExecutionContext(Cluster(num_partitions=2))
    return CombineSite(op, ctx, None, None, 1.0, 0)


class TestWhenTheCarryAnswers:
    def test_framework_default_is_carried(self):
        assert _site(SpatialContainsJoin(8)).carried
        assert _site(TextSimilarityJoin(0.8)).carried

    def test_no_dedup_and_elimination_are_not(self):
        assert not _site(IntervalJoin(10)).carried  # uses_dedup() False
        assert not _site(SpatialContainsJoin(8),
                         DuplicateElimination()).carried

    def test_a_strategy_subclass_is_not(self):
        class Custom(DuplicateAvoidance):
            pass

        assert not _site(SpatialContainsJoin(8), Custom()).carried

    @pytest.mark.parametrize(
        "method", ["dedup", "first_matching_buckets", "assign_list"])
    def test_overriding_any_of_the_three_switches_it_off(self, method):
        default = getattr(FlexibleJoin, method)
        twin = type("Twin", (SpatialContainsJoin,),
                    {method: lambda self, *a: default(self, *a)})
        assert not _site(twin(8)).carried
        patched = SpatialContainsJoin(8)
        setattr(patched, method, lambda *a: default(patched, *a))
        assert not _site(patched).carried  # instance attribute, same rule

    def test_keeps_is_first_matching_pair_in_sorted_order(self):
        site = _site(SpatialContainsJoin(8))
        # Shared buckets 5 and 9: only (5, 5) emits.
        assert site.keeps(5, (2, 5, 9), 5, (5, 9))
        assert not site.keeps(9, (2, 5, 9), 9, (5, 9))
        # ``None`` stands for "this bucket only".
        assert site.keeps(7, None, 7, None)
        assert site.keeps(7, None, 7, (7, 8))
        assert not site.keeps(7, None, 8, (7, 8))  # (7, 7) comes first
        assert not site.keeps(3, None, 4, None)  # no bucket pair matches

    def test_keeps_honours_a_custom_match(self):
        class Neighbours(SpatialContainsJoin):
            def match(self, b1, b2):
                return abs(b1 - b2) <= 1

        site = _site(Neighbours(8))
        assert site.carried
        assert site.keeps(4, (4, 6), 3, (3, 5))
        assert not site.keeps(4, (4, 6), 5, (3, 5))
        assert not site.keeps(6, (4, 6), 5, (3, 5))


class CountingReferencePointJoin(ReferencePointSpatialJoin):
    calls = 0

    def dedup(self, *args):
        type(self).calls += 1
        return super().dedup(*args)


class CountingFirstMatchJoin(SpatialJoin):
    calls = 0

    def first_matching_buckets(self, key1, key2, pplan):
        type(self).calls += 1
        return super().first_matching_buckets(key1, key2, pplan)


class TestOverridesAreCalledPerPair:
    """An overridden hook is invoked once per candidate pair — exactly
    ``comparisons`` times — as before the carry existed."""

    @pytest.mark.parametrize("budget", [None, 512])
    def test_reference_point_dedup(self, budget):
        CountingReferencePointJoin.calls = 0
        db = with_join(spatial_self_database, "st_intersects",
                       CountingReferencePointJoin, 48)()
        try:
            if budget is not None:
                db.set_memory_budget(budget)
            result = db.execute(SPATIAL_SELF_SQL)
        finally:
            db.close()
        assert result.metrics.comparisons > 0
        assert CountingReferencePointJoin.calls == result.metrics.comparisons

    def test_first_matching_buckets(self):
        CountingFirstMatchJoin.calls = 0
        db = with_join(spatial_self_database, "st_intersects",
                       CountingFirstMatchJoin, 48)()
        try:
            result = db.execute(SPATIAL_SELF_SQL)
        finally:
            db.close()
        assert result.metrics.comparisons > 0
        assert CountingFirstMatchJoin.calls == result.metrics.comparisons


class TestTheCarryDropsDuplicates:
    def test_self_join_has_duplicates_to_drop(self):
        # Anchor for test_carried_equals_per_pair: avoidance rejects
        # pairs, so a carry that always said "keep" would change rows.
        build = with_join(spatial_self_database, "st_intersects",
                          SpatialJoin, 48)
        kept, _ = run_query(build, SPATIAL_SELF_SQL, "serial")
        everything, _ = run_query(build, SPATIAL_SELF_SQL, "serial",
                                  dedup="none")
        assert sum(dict(row)["c"] for row in everything) > sum(
            dict(row)["c"] for row in kept)

    def test_spilled_entries_keep_their_assignment(self):
        # Under a 512-byte grant the build side spills and replays; a
        # replayed entry that lost its carried list would be treated as
        # single-assigned and emit duplicates.
        build = with_join(spatial_self_database, "st_intersects",
                          SpatialJoin, 48)
        unbounded, _ = run_query(build, SPATIAL_SELF_SQL, "serial")
        budgeted, metrics = run_query(build, SPATIAL_SELF_SQL, "serial", 512)
        assert metrics["spill_files"] > 0
        assert sorted(budgeted) == sorted(unbounded)
