"""Tests for the hand-written built-in join operators."""

import functools
from contextlib import closing

import pytest

from repro import FaultPlan
from repro.bench.workloads import (
    INTERVAL_SQL,
    SPATIAL_SQL,
    TEXT_SQL,
    interval_database,
    spatial_database,
    text_database,
)
from repro.builtin import interval_operator
from repro.builtin import (
    AdvancedSpatialJoinOperator,
    BuiltinIntervalJoinOperator,
    BuiltinSpatialJoinOperator,
    BuiltinTextSimilarityJoinOperator,
)
from repro.errors import ExecutionError, PlanError
from repro.interval import Interval


def normalized(result):
    return sorted(tuple(sorted(row.items())) for row in result.rows)


class TestBuiltinSpatial:
    @pytest.fixture(scope="class")
    def db(self):
        return spatial_database(80, 400, partitions=4, grid_n=12, seed=7)

    def test_matches_fudj(self, db):
        fudj = db.execute(SPATIAL_SQL, mode="fudj")
        builtin = db.execute(SPATIAL_SQL, mode="builtin")
        assert normalized(fudj) == normalized(builtin)
        assert len(fudj) > 0

    def test_no_translation_conversions(self, db):
        builtin = db.execute(SPATIAL_SQL, mode="builtin")
        assert builtin.metrics.translation_conversions == 0

    def test_fudj_has_translation_conversions(self, db):
        fudj = db.execute(SPATIAL_SQL, mode="fudj")
        assert fudj.metrics.translation_conversions > 0

    def test_plan_shows_builtin_operator(self, db):
        assert "BUILTIN SPATIAL JOIN" in db.explain(SPATIAL_SQL, mode="builtin")

    def test_fewer_comparisons_than_ontop(self, db):
        builtin = db.execute(SPATIAL_SQL, mode="builtin")
        ontop = db.execute(SPATIAL_SQL, mode="ontop")
        assert builtin.metrics.comparisons < ontop.metrics.comparisons / 10


class TestAdvancedSpatial:
    @pytest.fixture(scope="class")
    def dbs(self):
        base = spatial_database(80, 400, partitions=4, grid_n=12, seed=7)
        sweep = spatial_database(80, 400, partitions=4, grid_n=12, seed=7,
                                 plane_sweep=True)
        return base, sweep

    def test_same_result(self, dbs):
        base, sweep = dbs
        assert normalized(base.execute(SPATIAL_SQL, mode="builtin")) == normalized(
            sweep.execute(SPATIAL_SQL, mode="builtin")
        )

    def test_plane_sweep_does_less_work(self, dbs):
        base, sweep = dbs
        nested = base.execute(SPATIAL_SQL, mode="builtin")
        swept = sweep.execute(SPATIAL_SQL, mode="builtin")
        assert swept.metrics.comparisons < nested.metrics.comparisons

    def test_plan_label(self, dbs):
        _, sweep = dbs
        assert "plane-sweep" in sweep.explain(SPATIAL_SQL, mode="builtin")


INTERVAL_PAIRS_SQL = (
    "SELECT n1.id, n2.id FROM NYCTaxi n1, NYCTaxi n2 "
    "WHERE n1.vendor = 1 AND n2.vendor = 2 AND "
    "overlapping_interval(n1.ride_interval, n2.ride_interval)"
)


def _every_broadcast_entry(local, broadcast):
    """The nested loop the built-in interval join's bucket grouping
    replaced: each local entry against every broadcast entry, in order."""
    for entry1 in local:
        s1, e1 = entry1[0] >> 16, entry1[0] & 0xFFFF
        yield entry1, [entry2 for entry2 in broadcast
                       if s1 <= (entry2[0] & 0xFFFF)
                       and e1 >= (entry2[0] >> 16)]


class TestBuiltinInterval:
    @pytest.fixture(scope="class")
    def db(self):
        return interval_database(400, partitions=4, num_buckets=50, seed=8)

    def test_matches_fudj(self, db):
        fudj = db.execute(INTERVAL_SQL, mode="fudj")
        builtin = db.execute(INTERVAL_SQL, mode="builtin")
        assert fudj.rows == builtin.rows
        assert fudj.rows[0]["c"] > 0

    def test_plan_shows_builtin_operator(self, db):
        assert "BUILTIN INTERVAL JOIN" in db.explain(INTERVAL_SQL, mode="builtin")

    def test_broadcast_stage_present(self, db):
        builtin = db.execute(INTERVAL_SQL, mode="builtin")
        names = [s.name for s in builtin.metrics.stages]
        assert any("broadcast" in n for n in names)

    def test_pairs_buckets_in_the_nested_loops_order(self, db, monkeypatch):
        # Grouping the broadcast by bucket emits, charges and counts what
        # the loop over every broadcast entry of every local one does, in
        # its (local, broadcast position) order.
        grouped = db.execute(INTERVAL_PAIRS_SQL, mode="builtin")
        monkeypatch.setattr(interval_operator, "_bucket_pairs",
                            _every_broadcast_entry)
        looped = db.execute(INTERVAL_PAIRS_SQL, mode="builtin")
        assert len(grouped.rows) > 100
        assert grouped.rows == looped.rows
        facts = [result.metrics.to_dict() for result in (grouped, looped)]
        for fact in facts:
            fact.pop("wall_seconds")
        assert facts[0] == facts[1]

    def test_a_subnormal_timeline_falls_back_to_unit_granules(self):
        # The span 5e-324 divided by the bucket count underflows to a
        # zero granule.
        with closing(interval_database(0, partitions=2)) as db:
            db.load("NYCTaxi", [
                {"id": ride, "vendor": ride,
                 "ride_interval": Interval(0.0, 5e-324)}
                for ride in (1, 2)])
            for mode in ("ontop", "fudj", "builtin"):
                assert db.execute(INTERVAL_SQL, mode=mode).rows == [{"c": 1}]


class TestBuiltinText:
    @pytest.fixture(scope="class")
    def db(self):
        return text_database(300, partitions=4, seed=9)

    def test_matches_fudj(self, db):
        sql = TEXT_SQL.format(threshold=0.8)
        fudj = db.execute(sql, mode="fudj")
        builtin = db.execute(sql, mode="builtin")
        assert fudj.rows == builtin.rows

    def test_multiple_thresholds(self, db):
        for threshold in (0.5, 0.7, 0.9):
            sql = TEXT_SQL.format(threshold=threshold)
            assert db.execute(sql, mode="fudj").rows == db.execute(
                sql, mode="builtin"
            ).rows

    def test_plan_shows_builtin_operator(self, db):
        sql = TEXT_SQL.format(threshold=0.9)
        assert "BUILTIN TEXT-SIMILARITY JOIN" in db.explain(sql, mode="builtin")


class TestBuiltinModeErrors:
    def test_missing_factory_raises(self):
        db = spatial_database(10, 10, partitions=2, seed=1)
        db.builtin_factories.clear()
        with pytest.raises(PlanError):
            db.execute(SPATIAL_SQL, mode="builtin")

    def test_invalid_parameters(self):
        from repro.builtin import (
            BuiltinIntervalJoinOperator,
            BuiltinSpatialJoinOperator,
            BuiltinTextSimilarityJoinOperator,
        )
        from repro.engine.operators import Scan

        with pytest.raises(ExecutionError):
            BuiltinSpatialJoinOperator(Scan("a"), Scan("b"), None, None, n=0)
        with pytest.raises(ExecutionError):
            BuiltinSpatialJoinOperator(Scan("a"), Scan("b"), None, None,
                                       predicate="touches")
        with pytest.raises(ExecutionError):
            BuiltinIntervalJoinOperator(Scan("a"), Scan("b"), None, None,
                                        num_buckets=0)
        with pytest.raises(ExecutionError):
            BuiltinTextSimilarityJoinOperator(Scan("a"), Scan("b"), None, None,
                                              threshold=0.0)


# -- the baseline pays what FUDJ pays ---------------------------------------------
#
# A built-in operator moves its entries through the engine's exchanges,
# runs each per-worker phase as a task and admits its resident side, so
# an injected fault or a memory budget reaches it as it reaches FUDJ.

BUILTINS = {
    "spatial": (functools.partial(spatial_database, 80, 400, partitions=4,
                                  grid_n=12, seed=7), SPATIAL_SQL),
    "plane_sweep": (functools.partial(spatial_database, 80, 400,
                                      partitions=4, grid_n=12, seed=7,
                                      plane_sweep=True), SPATIAL_SQL),
    "interval": (functools.partial(interval_database, 400, partitions=4,
                                   num_buckets=50, seed=8), INTERVAL_SQL),
    "text": (functools.partial(text_database, 300, partitions=4, seed=9),
             TEXT_SQL.format(threshold=0.8)),
}

FAULTS = FaultPlan(seed=11, crash_rate=0.25, straggler_rate=0.15,
                   exchange_failure_rate=0.25)

RECOVERIES = ("tasks_retried", "stragglers_detected", "exchange_retries")

LABELS = tuple(cls.label for cls in (
    BuiltinSpatialJoinOperator, AdvancedSpatialJoinOperator,
    BuiltinIntervalJoinOperator, BuiltinTextSimilarityJoinOperator))


@functools.lru_cache(maxsize=None)
def engine_runs(name: str) -> dict:
    """The on-top rows of ``name``'s query, and the built-in run under
    the fault plan (traced) and under a 2 KB memory budget."""
    build, sql = BUILTINS[name]
    with closing(build()) as db:
        truth = normalized(db.execute(sql, mode="ontop"))
        db.fault_plan = FAULTS
        faulty = db.execute(sql, mode="builtin", trace=True)
        db.fault_plan = None
        db.set_memory_budget(2048)
        budgeted = db.execute(sql, mode="builtin")
        spills = [event.stage for event in db.telemetry.events.events()
                  if event.kind == "resource.spill"]
    return {"truth": truth, "faulty": faulty, "budgeted": budgeted,
            "spills": spills}


@pytest.mark.parametrize("name", BUILTINS)
class TestBuiltinsRunOnTheEngine:
    def test_rows_equal_ontop(self, name):
        runs = engine_runs(name)
        assert runs["truth"]
        assert normalized(runs["faulty"]) == runs["truth"]
        assert normalized(runs["budgeted"]) == runs["truth"]

    def test_faults_reach_the_operator(self, name):
        metrics = engine_runs(name)["faulty"].metrics
        assert sum(getattr(metrics, counter) for counter in RECOVERIES) > 0

    def test_a_traced_run_has_exchange_spans(self, name):
        trace = engine_runs(name)["faulty"].trace
        operator = next(span for span in trace.root.walk()
                        if span.name.startswith(LABELS))
        assert any(span.kind == "exchange" for span in operator.walk())

    def test_the_join_spills_under_a_budget(self, name):
        runs = engine_runs(name)
        assert runs["budgeted"].metrics.spill_files > 0
        assert any(stage.startswith(LABELS) and stage.endswith("/join")
                   for stage in runs["spills"]), runs["spills"]


@pytest.mark.parametrize("counter", RECOVERIES)
def test_every_recovery_reaches_some_builtin(counter):
    assert any(getattr(engine_runs(name)["faulty"].metrics, counter) > 0
               for name in BUILTINS)
