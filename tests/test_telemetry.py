"""Telemetry layer: metrics registry, query history, ``sys.*`` tables.

The acceptance properties pinned down here:

- identical sessions produce **byte-identical** snapshots (Prometheus
  text and canonical JSON), including under seeded fault injection;
- ``sys.queries`` / ``sys.stages`` / ``sys.callbacks`` / ``sys.metrics``
  are reachable through plain SQL (the normal binder -> planner -> scan
  path), with ``SELECT *``, WHERE, and GROUP BY;
- telemetry charges **zero** cost-model units: a fresh database that
  never ran a query snapshots with every counter at 0, and snapshotting
  does not move a query's simulated seconds;
- history retention is bounded — the oldest record is evicted first and
  ``sys.queries`` row counts track the retained window exactly.
"""

import gc
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import Shell, main as cli_main
from repro.database import Database
from repro.engine.faults import FaultPlan
from repro.engine.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QueryHistory,
    SYS_TABLES,
    TelemetryError,
    phase_of,
    stage_op,
)
from repro.errors import CatalogError, QueryTimeoutError, ReproError


def make_db(**kwargs):
    db = Database(num_partitions=4, cores=4, **kwargs)
    db.execute("CREATE TYPE T { id: int, k: int, v: int }")
    db.execute("CREATE DATASET L(T) PRIMARY KEY id")
    db.execute("CREATE DATASET R(T) PRIMARY KEY id")
    db.load("L", [{"id": i, "k": i % 3, "v": i} for i in range(24)])
    db.load("R", [{"id": i, "k": i % 3, "v": i * 2} for i in range(16)])
    return db


JOIN_SQL = "SELECT l.id, r.v FROM L l, R r WHERE l.k = r.k"
GROUP_SQL = "SELECT l.k, COUNT(1) AS n FROM L l GROUP BY l.k"


def run_workload(db):
    db.execute(JOIN_SQL)
    db.execute(GROUP_SQL, trace=True)
    with pytest.raises(ReproError):
        db.execute("SELECT x.nope FROM Missing x")
    return db


# -- the registry primitives ---------------------------------------------------


class TestRegistry:
    def test_counter_accumulates_and_labels(self):
        c = Counter("hits", "", labelnames=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        assert c.value(kind="zzz") == 0

    def test_counter_rejects_decrease_and_bad_labels(self):
        c = Counter("hits", "", labelnames=("kind",))
        with pytest.raises(TelemetryError):
            c.inc(-1, kind="a")
        with pytest.raises(TelemetryError):
            c.inc(wrong="a")
        with pytest.raises(TelemetryError):
            c.inc()

    def test_gauge_sets_and_decrements(self):
        g = Gauge("depth", "")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram("lat", "", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        ((_, series),) = h.samples()
        assert series["counts"] == [1, 2]  # le=1: 1; le=10: 2
        assert series["count"] == 3
        assert series["sum"] == 55.5

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(TelemetryError):
            Histogram("h", "", buckets=(2.0, 1.0))
        with pytest.raises(TelemetryError):
            Histogram("h", "", buckets=())

    def test_get_or_create_and_kind_conflict(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        with pytest.raises(TelemetryError):
            r.gauge("x")

    def test_reset_keeps_families(self):
        r = MetricsRegistry()
        r.counter("x").inc(5)
        r.reset()
        assert r.counter("x").value() == 0
        assert [f.name for f in r.families()] == ["x"]

    def test_prometheus_exposition_shape(self):
        r = MetricsRegistry()
        r.counter("req_total", "Requests.", ("kind",)).inc(3, kind="q")
        r.histogram("lat", "", buckets=(1.0,)).observe(0.5)
        text = r.to_prometheus()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{kind="q"} 3' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.5" in text
        assert "lat_count 1" in text

    def test_json_is_canonical(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.counter("a").inc()
        snapshot = json.loads(r.to_json())
        assert snapshot["format"] == "fudj-metrics"
        assert [f["name"] for f in snapshot["families"]] == ["a", "b"]


class TestStagePhaseLabels:
    def test_instance_ids_are_stripped(self):
        assert stage_op("scan#12") == "scan"
        assert stage_op("fudj-join#5/assign-left") == "assign-left"
        assert stage_op("fudj-join#5/summarize-right") == "summarize-right"

    def test_phase_classification(self):
        assert phase_of("summarize-left") == "summarize"
        assert phase_of("pplan") == "summarize"
        assert phase_of("assign-right") == "partition"
        for op in ("xleft", "xright", "combine", "dedup", "spread",
                   "broadcast", "route"):
            assert phase_of(op) == "combine"
        assert phase_of("scan") == "other"


# -- history -------------------------------------------------------------------


class TestQueryHistory:
    def test_eviction_is_oldest_first(self):
        h = QueryHistory(limit=3)
        for i in range(5):
            h.append({"id": i})
        assert [e["id"] for e in h.entries()] == [2, 3, 4]
        assert h.evicted == 2
        assert h.total_recorded == 5

    def test_shrinking_limit_trims(self):
        h = QueryHistory(limit=10)
        for i in range(6):
            h.append({"id": i})
        h.set_limit(2)
        assert [e["id"] for e in h.entries()] == [4, 5]

    def test_limit_must_be_positive(self):
        with pytest.raises(TelemetryError):
            QueryHistory(limit=0)
        with pytest.raises(TelemetryError):
            Database(history_limit=0)


# -- determinism ---------------------------------------------------------------


class TestDeterminism:
    def test_identical_sessions_snapshot_byte_identically(self):
        a, b = run_workload(make_db()), run_workload(make_db())
        assert a.metrics_snapshot() == b.metrics_snapshot()
        assert (a.metrics_snapshot("prometheus")
                == b.metrics_snapshot("prometheus"))

    def test_identical_under_fault_injection(self):
        def session():
            db = make_db(fault_plan=FaultPlan.parse("7:0.05"))
            db.execute(JOIN_SQL)
            db.execute(GROUP_SQL, trace=True)
            return db

        a, b = session(), session()
        assert a.metrics_snapshot() == b.metrics_snapshot()
        assert (a.metrics_snapshot("prometheus")
                == b.metrics_snapshot("prometheus"))
        # Faults actually fired — the retry counters are live, not zero.
        prom = a.metrics_snapshot("prometheus")
        assert "fudj_task_retries_total" in prom

    def test_registry_carries_no_wall_clocks(self):
        db = run_workload(make_db())
        snapshot = json.loads(db.metrics_snapshot())
        names = {f["name"] for f in snapshot["families"]}
        assert not any("wall" in name for name in names)

    def test_unknown_format_rejected(self):
        with pytest.raises(TelemetryError):
            make_db().metrics_snapshot("xml")


# -- zero cost -----------------------------------------------------------------


class TestZeroCost:
    def test_fresh_database_has_zero_charged_units(self):
        db = Database()
        snapshot = json.loads(db.metrics_snapshot())
        for family in snapshot["families"]:
            if family["name"] == "fudj_build_info":
                continue  # an info gauge: constitutionally 1, never a cost
            for sample in family["samples"]:
                assert sample.get("value", 0) == 0
                assert sample.get("count", 0) == 0

    def test_snapshotting_does_not_move_simulated_seconds(self):
        plain = make_db().execute(JOIN_SQL)
        observed_db = make_db()
        observed_db.metrics_snapshot()
        observed_db.metrics_snapshot("prometheus")
        observed = observed_db.execute(JOIN_SQL)
        observed_db.metrics_snapshot()
        assert (observed.metrics.simulated_seconds(12)
                == plain.metrics.simulated_seconds(12))
        assert (observed.metrics.total_cpu_units()
                == plain.metrics.total_cpu_units())

    def test_recording_charges_nothing(self):
        db = make_db()
        units = db.execute(JOIN_SQL).metrics.total_cpu_units()
        counted = db.telemetry.registry.counter("fudj_cpu_units_total")
        assert counted.value() == pytest.approx(units)


# -- recording -----------------------------------------------------------------


class TestRecording:
    def test_statuses_and_error_classes(self):
        db = run_workload(make_db())
        by_id = {e["id"]: e for e in db.telemetry.history.entries()}
        assert by_id[4]["status"] == "ok" and by_id[4]["kind"] == "select"
        assert by_id[6]["status"] == "error"
        assert by_id[6]["error_type"] == "CatalogError"
        assert "Missing" in by_id[6]["error"]
        # A UDF's own exception is no ReproError: it propagates as it
        # is, and the statement is still recorded and its timeline closed.
        db.register_udf("boom", lambda value: [][value])
        with pytest.raises(IndexError):
            db.execute("SELECT l.id FROM L l WHERE boom(l.v) = 1")
        entry = db.telemetry.history.entries()[-1]
        assert (entry["id"], entry["status"], entry["error_type"]) == (
            7, "error", "IndexError")
        kinds = [event.kind for event in db.telemetry.events.events()
                 if event.query_id == 7]
        assert (kinds[0], kinds[-1]) == ("query.start", "query.error")
        db.execute(GROUP_SQL)
        assert db.telemetry.history.entries()[-1]["id"] == 8

    def test_timeout_status(self):
        db = make_db()
        db.query_timeout = 1e-9
        with pytest.raises(QueryTimeoutError):
            db.execute(JOIN_SQL)
        entry = db.telemetry.history.entries()[-1]
        assert entry["status"] == "timeout"
        assert entry["error_type"] == "QueryTimeoutError"
        # A failed query is counted under its final status too.
        assert 'fudj_queries_total{status="timeout"} 1' in \
            db.metrics_snapshot("prometheus")

    def test_parse_error_is_recorded_as_invalid(self):
        db = Database()
        with pytest.raises(ReproError):
            db.execute("SELEC nonsense")
        entry = db.telemetry.history.entries()[-1]
        assert entry["kind"] == "invalid"
        assert entry["status"] == "error"

    def test_phase_units_sum_to_cpu_units(self):
        db = make_db()
        db.execute(JOIN_SQL)
        entry = db.telemetry.history.entries()[-1]
        total = (entry["summarize_units"] + entry["partition_units"]
                 + entry["combine_units"] + entry["other_units"])
        assert total == pytest.approx(entry["cpu_units"])

    def test_ddl_is_recorded(self):
        db = Database()
        db.execute("CREATE TYPE T { id: int }")
        db.execute("CREATE DATASET D(T) PRIMARY KEY id")
        kinds = [e["kind"] for e in db.telemetry.history.entries()]
        assert kinds == ["create_type", "create_dataset"]
        counter = db.telemetry.registry.counter(
            "fudj_statements_total", labelnames=("kind",))
        assert counter.value(kind="create_type") == 1

    def test_reset_zeroes_registry_and_history(self):
        db = run_workload(make_db())
        db.telemetry.reset()
        assert len(db.telemetry.history) == 0
        assert db.execute("SELECT * FROM sys.queries").rows == []
        counter = db.telemetry.registry.counter("fudj_rows_returned_total")
        assert counter.value() == 0
        # What the build is does not reset with what it did.
        assert "\nfudj_build_info{" in db.metrics_snapshot("prometheus")


# -- sys.* tables through SQL --------------------------------------------------


class TestSysTables:
    def test_select_star_from_sys_queries(self):
        db = run_workload(make_db())
        result = db.execute("SELECT * FROM sys.queries")
        assert result.schema == tuple(n for n, _ in SYS_TABLES["sys.queries"])
        assert len(result.rows) == 6  # the workload's statements
        assert result.rows[0]["kind"] == "create_type"

    def test_where_and_group_by(self):
        db = run_workload(make_db())
        errors = db.execute(
            "SELECT q.sql FROM sys.queries q WHERE q.status = 'error'"
        )
        assert len(errors.rows) == 1 and "Missing" in errors.rows[0]["q.sql"]
        grouped = db.execute(
            "SELECT q.status, COUNT(1) AS n FROM sys.queries q "
            "GROUP BY q.status"
        )
        counts = {row["q.status"]: row["n"] for row in grouped.rows}
        # 5 ok from the workload + the errors-query scan above (recorded
        # by the time this one runs; a scan never sees *itself*).
        assert counts == {"ok": 6, "error": 1}

    def test_sys_stages_phases(self):
        db = make_db()
        db.execute(JOIN_SQL)
        result = db.execute(
            "SELECT s.phase, SUM(s.cpu_units) AS units FROM sys.stages s "
            "GROUP BY s.phase"
        )
        phases = {row["s.phase"]: row["units"] for row in result.rows}
        assert set(phases) <= {"summarize", "partition", "combine", "other"}
        assert sum(phases.values()) > 0

    def test_sys_callbacks_only_for_traced_queries(self):
        db = make_db()
        db.execute(JOIN_SQL)  # untraced: no callback rows
        assert db.execute("SELECT * FROM sys.callbacks").rows == []

    def test_sys_metrics_matches_registry(self):
        db = run_workload(make_db())
        counter = db.telemetry.registry.counter("fudj_rows_returned_total")
        before = counter.value()  # the scan adds its own rows afterwards
        result = db.execute(
            "SELECT m.value FROM sys.metrics m "
            "WHERE m.metric = 'fudj_rows_returned_total'"
        )
        assert result.rows[0]["m.value"] == before

    def test_scan_sees_history_before_itself(self):
        db = Database()
        first = db.execute("SELECT * FROM sys.queries")
        assert first.rows == []  # not yet recorded when it scanned
        second = db.execute("SELECT * FROM sys.queries")
        assert len(second.rows) == 1
        assert second.rows[0]["sql"] == "SELECT * FROM sys.queries"

    def test_sys_tables_joinable_with_explain(self):
        db = run_workload(make_db())
        joined = db.execute(
            "SELECT q.sql, s.op FROM sys.queries q, sys.stages s "
            "WHERE q.id = s.query_id AND s.phase = 'combine'"
        )
        assert joined.rows and all("SELECT" in r["q.sql"]
                                   for r in joined.rows)
        plan = db.explain("SELECT * FROM sys.queries")
        assert "sys.queries" in plan

    def test_virtual_tables_are_protected(self):
        db = Database()
        with pytest.raises(ReproError):
            db.execute("DROP DATASET sys.queries")
        db.execute("CREATE TYPE T { id: int }")
        with pytest.raises(ReproError):
            db.create_dataset("sys.queries", "T", "id")
        with pytest.raises(ReproError, match="cannot load into virtual"):
            db.load("sys.queries", [])
        assert "sys.queries" not in db.catalog.dataset_names()
        assert db.catalog.has_dataset("sys.queries")

    def test_every_registered_table_binds(self):
        db = Database()
        for name in SYS_TABLES:
            result = db.execute(f"SELECT * FROM {name}")
            assert result.schema == tuple(n for n, _ in SYS_TABLES[name])

    def test_a_dropped_database_is_not_cyclic_garbage(self):
        # The cluster holds the sys.* providers and the database holds
        # the cluster: a provider that closes over the database strongly
        # keeps every loaded record until a generation-2 collection.  So
        # does a finished query's context, if its metrics still observe
        # it: the context holds the cluster.
        gc.disable()
        try:
            db = make_db()
            assert len(db.execute(JOIN_SQL, trace=True).rows) == 128
            assert db.execute("SELECT r.name FROM sys.resources r").rows
            assert db.execute("SELECT * FROM sys.workers").rows == []
            assert db.execute("SELECT * FROM sys.sessions").rows == []
            db.close()
            alive = [weakref.ref(db), weakref.ref(db.cluster)]
            del db
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()


# -- retention property --------------------------------------------------------


class TestRetentionProperty:
    @settings(max_examples=25, deadline=None)
    @given(limit=st.integers(min_value=1, max_value=12),
           statements=st.integers(min_value=0, max_value=30))
    def test_sys_queries_row_count_tracks_retention(self, limit, statements):
        db = Database(history_limit=limit)
        for _ in range(statements):
            try:
                db.execute("SELECT x.f FROM Nope x")
            except CatalogError:
                pass
        rows = db.execute("SELECT * FROM sys.queries").rows
        # The scan never sees itself: it shows only the prior statements.
        assert len(rows) == min(statements, limit)
        # The retained window is the most recent `limit` statements
        # (row order is partition order, so compare as a set of ids).
        ids = sorted(row["id"] for row in rows)
        assert ids == list(range(statements - len(rows) + 1,
                                 statements + 1))
        # The scan itself is on record by now (statement number
        # ``statements + 1``), so the live bookkeeping includes it.
        assert (db.telemetry.history.evicted
                == max(0, statements + 1 - limit))
        gauge = db.telemetry.registry.gauge("fudj_history_entries")
        assert gauge.value() == min(statements + 1, limit)


# -- the canonical metrics dict ------------------------------------------------


class TestMetricsDict:
    def test_query_result_to_dict(self):
        db = make_db()
        result = db.execute(GROUP_SQL)
        summary = result.to_dict(cores=4)
        assert summary["rows"] == 3
        assert summary["schema"] == ["l.k", "n"]
        assert summary["metrics"]["simulated_seconds"] == (
            result.metrics.simulated_seconds(4))
        assert summary["metrics"]["cpu_units"] == (
            result.metrics.total_cpu_units())


# -- shell + CLI surfaces ------------------------------------------------------


class TestShellMetrics:
    def shell(self):
        lines = []
        return Shell(write=lines.append), lines

    def test_metrics_show(self):
        shell, lines = self.shell()
        shell.run_statement("SELECT q.id FROM sys.queries q")
        shell._dot_command(".metrics")
        text = "\n".join(str(line) for line in lines)
        assert "fudj_statements_total" in text
        assert 'fudj_queries_total{status="ok"} 1' in text

    def test_metrics_save_formats(self, tmp_path):
        shell, lines = self.shell()
        shell.run_statement("SELECT q.id FROM sys.queries q")
        json_path = tmp_path / "m.json"
        prom_path = tmp_path / "m.prom"
        shell._dot_command(f".metrics save {json_path}")
        shell._dot_command(f".metrics save {prom_path}")
        json.loads(json_path.read_text())  # valid canonical JSON
        assert "# TYPE" in prom_path.read_text()

    def test_metrics_reset_and_usage(self):
        shell, lines = self.shell()
        shell.run_statement("SELECT q.id FROM sys.queries q")
        shell._dot_command(".metrics reset")
        assert len(shell.db.telemetry.history) == 0
        shell._dot_command(".metrics bogus")
        assert any("usage" in str(line) for line in lines)

    def test_cli_metrics_out_flag(self, tmp_path):
        script = tmp_path / "s.sql"
        script.write_text("CREATE TYPE T { id: int };\n")
        out = tmp_path / "metrics.json"
        assert cli_main([ "--metrics-out", str(out), str(script)]) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["format"] == "fudj-metrics"

    def test_cli_metrics_out_needs_path(self, capsys):
        assert cli_main(["--metrics-out"]) == 1
