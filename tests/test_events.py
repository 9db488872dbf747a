"""The structured event log: determinism, parity, and the query surface.

The contract under test (``docs/observability.md``):

- **Byte-determinism.** Two identical seeded sessions — including fault
  injection — emit byte-identical canonical JSONL streams.
- **Backend parity.** The deterministic stream is byte-identical under
  ``backend="serial"`` and ``backend="process"``; only runtime
  ``worker.*`` events (negative seq, excluded from JSONL) may differ.
- **Queryability.** ``sys.events`` binds, plans, and scans through the
  ordinary SQL path with at least kind/level/query/phase columns.
- **Hygiene.** ``emit()`` rejects unregistered kinds, stage names are
  normalized (operator instance ids stripped), the file sink tees the
  deterministic stream verbatim.
"""

import json

import pytest

from repro.database import Database
from repro.engine.events import (
    EVENT_KINDS,
    EventLog,
    EventLogError,
    RUNTIME_KINDS,
    normalize_stage,
)
from tests.helpers import ModEquiJoin

JOIN_SQL = "SELECT l.id, r.v FROM L l, R r WHERE l.k = r.k"
FUDJ_SQL = "SELECT l.id, r.id FROM L l, R r WHERE MOD_EQUI(l.k, r.k)"


def make_db(rows=24, **kwargs):
    kwargs.setdefault("num_partitions", 4)
    kwargs.setdefault("cores", 4)
    db = Database(**kwargs)
    db.execute("CREATE TYPE T { id: int, k: int, v: int }")
    db.execute("CREATE DATASET L(T) PRIMARY KEY id")
    db.execute("CREATE DATASET R(T) PRIMARY KEY id")
    db.load("L", [{"id": i, "k": i % 3, "v": i} for i in range(rows)])
    db.load("R", [{"id": i, "k": i % 3, "v": i * 2}
                  for i in range(rows * 2 // 3)])
    return db


def fudj_db(rows=24, **kwargs):
    db = make_db(rows, **kwargs)
    db.create_join("mod_equi", ModEquiJoin, defaults=(8,))
    return db


def run_session(sql=JOIN_SQL, rows=24, **kwargs):
    """One workload under ``kwargs``; returns the deterministic JSONL."""
    maker = make_db if "MOD_EQUI" not in sql else fudj_db
    db = maker(rows, **kwargs)
    try:
        db.execute(sql)
        db.execute("SELECT l.k, COUNT(1) AS n FROM L l GROUP BY l.k")
        return db.telemetry.events.to_jsonl()
    finally:
        db.close()


class TestEventLogBasics:
    def test_unregistered_kind_is_rejected(self):
        log = EventLog()
        with pytest.raises(EventLogError):
            log.emit("made.up")

    def test_every_registered_kind_emits(self):
        log = EventLog()
        for kind in EVENT_KINDS:
            log.emit(kind)
        assert log.total_emitted == len(EVENT_KINDS)

    def test_normalize_stage_strips_operator_instance_ids(self):
        assert normalize_stage("hash-join#5/xleft") == "hash-join/xleft"
        assert normalize_stage("scan") == "scan"
        # The log applies it on emit, so streams never leak the
        # process-global operator counter.
        log = EventLog()
        log.emit("stage.finish", stage="hash-join#123/build")
        assert log.events()[0].stage == "hash-join/build"

    def test_deterministic_seq_is_positive_and_gapless(self):
        log = EventLog()
        log.emit("query.start", query_id=1)
        log.emit("stage.finish", query_id=1, stage="scan")
        log.emit("query.finish", query_id=1)
        assert [e.seq for e in log.events()] == [1, 2, 3]

    def test_runtime_events_get_negative_seq_and_skip_jsonl(self):
        log = EventLog()
        log.emit("query.start", query_id=1)
        log.emit("worker.lease", query_id=1, worker=0)
        log.emit("worker.crash", query_id=1, worker=0, deaths=1)
        runtime = [e for e in log.events() if e.runtime]
        assert [e.seq for e in runtime] == [-1, -2]
        assert all(e.kind in RUNTIME_KINDS for e in runtime)
        kinds_in_jsonl = [json.loads(line)["kind"]
                         for line in log.to_jsonl().splitlines()]
        assert kinds_in_jsonl == ["query.start"]
        # ...but they stay queryable in the in-memory views.
        assert len(log.events()) == 3
        assert len(log.events(runtime=False)) == 1

    def test_eviction_keeps_the_tail_and_the_true_total(self):
        log = EventLog(limit=4)
        for _ in range(10):
            log.emit("query.start", query_id=1)
        assert len(log) == 4
        assert log.total_emitted == 10
        assert [e.seq for e in log.events()] == [7, 8, 9, 10]

    def test_scoped_emitter_pins_the_query_id(self):
        log = EventLog()
        log.scoped(7).emit("fault.retry", stage="combine", attempt=2)
        event = log.events()[0]
        assert event.query_id == 7
        assert event.detail == {"attempt": 2}


class TestByteDeterminism:
    def test_identical_sessions_identical_streams(self):
        assert run_session() == run_session()

    def test_identical_sessions_under_fault_injection(self):
        first = run_session(fault_plan="7:0.25")
        second = run_session(fault_plan="7:0.25")
        assert first == second
        kinds = {json.loads(line)["kind"] for line in first.splitlines()}
        assert "fault.retry" in kinds, "the fault plan must be narrated"

    def test_fault_seed_changes_the_stream(self):
        assert run_session(fault_plan="7:0.25") != run_session(
            fault_plan="8:0.25")

    def test_file_sink_tees_the_deterministic_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        db = make_db(event_log=str(path), fault_plan="7:0.25")
        try:
            db.execute(JOIN_SQL)
            expected = db.telemetry.events.to_jsonl()
        finally:
            db.close()
        assert path.read_text() == expected
        for line in expected.splitlines():
            assert json.loads(line)["seq"] > 0


class TestBackendParity:
    def test_serial_and_process_streams_are_byte_identical(self):
        serial = run_session(FUDJ_SQL, backend="serial")
        process = run_session(FUDJ_SQL, backend="process")
        assert serial == process

    def test_parity_holds_under_spill_and_faults(self):
        serial = run_session(FUDJ_SQL, rows=120, backend="serial",
                             memory_budget="1kb", fault_plan="5:0.3")
        process = run_session(FUDJ_SQL, rows=120, backend="process",
                              memory_budget="1kb", fault_plan="5:0.3")
        assert serial == process
        kinds = {json.loads(line)["kind"] for line in serial.splitlines()}
        assert "resource.spill" in kinds

    def test_process_backend_narrates_workers_at_runtime(self):
        db = fudj_db(backend="process")
        try:
            db.execute(FUDJ_SQL)
            runtime = [e for e in db.telemetry.events.events()
                       if e.runtime]
        finally:
            db.close()
        assert any(e.kind == "worker.lease" for e in runtime)
        assert all(e.seq < 0 for e in runtime)

    def test_serial_backend_never_emits_worker_events(self):
        db = fudj_db(backend="serial")
        try:
            db.execute(FUDJ_SQL)
            assert not [e for e in db.telemetry.events.events()
                        if e.runtime]
        finally:
            db.close()


class TestSysEvents:
    def test_sys_events_has_the_contract_columns(self):
        db = make_db(fault_plan="7:0.25")
        try:
            db.execute(JOIN_SQL)
            result = db.execute(
                "SELECT e.seq, e.kind, e.level, e.query_id, e.phase, "
                "e.stage FROM sys.events e"
            )
        finally:
            db.close()
        assert result.rows
        first = result.rows[0]
        assert first["e.kind"] == "query.start"
        assert first["e.level"] == "info"
        assert first["e.query_id"] == 1

    def test_sys_events_aggregates_like_any_dataset(self):
        db = make_db()
        try:
            db.execute(JOIN_SQL)
            result = db.execute(
                "SELECT e.kind, COUNT(1) AS n FROM sys.events e "
                "GROUP BY e.kind ORDER BY e.kind"
            )
        finally:
            db.close()
        counts = {row["e.kind"]: row["n"] for row in result.rows}
        assert counts["query.start"] >= 1
        assert counts["stage.finish"] >= 1

    def test_every_emitted_kind_is_registered(self):
        db = fudj_db(backend="process", fault_plan="7:0.25",
                     memory_budget="1kb")
        try:
            db.execute(FUDJ_SQL)
            kinds = {e.kind for e in db.telemetry.events.events()}
        finally:
            db.close()
        assert kinds <= set(EVENT_KINDS)

    def test_plan_events_under_cost_optimizer(self):
        db = fudj_db(optimizer="cost")
        try:
            # Operator selection narrates per join of a multi-join; the
            # chosen order is narrated for every cost-planned query.
            db.execute("CREATE DATASET X(T) PRIMARY KEY id")
            db.load("X", [{"id": i, "k": i % 3, "v": i} for i in range(12)])
            sql = ("SELECT l.id, r.id, x.id FROM L l, R r, X x "
                   "WHERE MOD_EQUI(l.k, r.k) AND MOD_EQUI(r.k, x.k)")
            # explain() is no statement: the stream must not depend on
            # whether anyone called it.
            before = db.telemetry.events.to_jsonl()
            db.explain(sql)
            assert db.telemetry.events.to_jsonl() == before
            db.execute(sql)
            kinds = {e.kind for e in db.telemetry.events.events()}
        finally:
            db.close()
        assert "plan.order" in kinds
        assert "plan.operator" in kinds
        assert "plan.actuals" in kinds


class TestDatabaseSurface:
    def test_reset_clears_events_but_keeps_the_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        db = make_db(event_log=str(path))
        try:
            db.execute(JOIN_SQL)
            assert len(db.telemetry.events) > 0
            db.telemetry.reset()
            assert len(db.telemetry.events) == 0
            assert db.telemetry.events.sink_path == str(path)
        finally:
            db.close()

    def test_events_total_gauge_tracks_emissions(self):
        db = make_db()
        try:
            db.execute(JOIN_SQL)
            snapshot = json.loads(db.metrics_snapshot())
            by_name = {f["name"]: f for f in snapshot["families"]}
            total = by_name["fudj_events_total"]["samples"][0]["value"]
            assert total == db.telemetry.events.total_emitted > 0
        finally:
            db.close()
