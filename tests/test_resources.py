"""Resource governance: budgets, spill-to-disk, admission, breakers.

The acceptance properties pinned down here:

- *Byte-identical spilling*: a query that exceeds its memory budget
  completes by actually serializing overflow state to temp spill files
  and replaying it, and its result rows are byte-identical to the
  unbounded run (order included).
- *Charge parity*: the units charged for a spill are exactly
  ``CostModel.spill_units(total_bytes)`` — the model's prediction and
  the accountant's observed charge agree by construction.
- *Deterministic admission*: the pure simulator and the threaded
  controller enforce the same bounded-FIFO policy; seeded bursts queue,
  time out, and shed the same way every run, and reservations never
  exceed capacity.
- *Breaker semantics*: N consecutive callback failures trip a FUDJ
  library open; later queries fail fast with ``BreakerOpenError`` until
  an explicit reset.
- *Observability*: all of the above surfaces in ``QueryMetrics``,
  ``sys.resources``/``sys.queries``, EXPLAIN ANALYZE, telemetry
  counters, and the shell's ``.budget``/``.breaker`` commands.
"""

import dataclasses
import json
import os
import threading

import pytest

from repro.database import Database
from repro.engine.costs import CostModel
from repro.engine.record import Record, Schema
from repro.engine.resources import (
    AdmissionController,
    CircuitBreaker,
    EntrySpillCodec,
    QueryResources,
    RecordSpillCodec,
    format_bytes,
    parse_bytes,
    simulate_admission,
)
from repro.errors import (
    AdmissionError,
    BreakerOpenError,
    FudjCallbackError,
    PlanError,
    ReproError,
)
from tests.helpers import BandJoin


# -- parsing -------------------------------------------------------------------


class TestParseBytes:
    def test_suffixes(self):
        assert parse_bytes("64kb") == 64 * 2**10
        assert parse_bytes("2mb") == 2 * 2**20
        assert parse_bytes("1.5gb") == 1.5 * 2**30
        assert parse_bytes("100b") == 100.0
        assert parse_bytes("4096") == 4096.0

    def test_numbers_pass_through(self):
        assert parse_bytes(65536) == 65536.0
        assert parse_bytes(1.5) == 1.5

    def test_disabled_spellings(self):
        for text in (None, "", "off", "none", "unlimited", "  OFF  "):
            assert parse_bytes(text) is None

    def test_garbage_raises(self):
        for bad in ("lots", "12qb", "mb", "1.2.3kb"):
            with pytest.raises(ValueError):
                parse_bytes(bad)

    def test_format_round_trip(self):
        for text in ("64kb", "2mb", "3gb", "1000b"):
            assert format_bytes(parse_bytes(text)) == text
        assert format_bytes(None) == "off"

    def test_format_prefers_exact_units(self):
        assert format_bytes(2**20) == "1mb"
        assert format_bytes(2**20 + 1) == f"{2**20 + 1}b"


# -- spill codecs --------------------------------------------------------------


SCHEMA = Schema(["id", "v"])


def make_record(i, v="x"):
    return Record.from_dict(SCHEMA, {"id": i, "v": v})


class TestRecordSpillCodec:
    def test_round_trip(self):
        codec = RecordSpillCodec(SCHEMA)
        record = make_record(7, "hello")
        clone = codec.decode(codec.encode(record))
        assert clone.schema == record.schema
        assert clone.to_dict() == record.to_dict()

    def test_rid_survives_and_is_negative(self):
        codec = RecordSpillCodec(SCHEMA)
        record = make_record(1)
        clone = codec.decode(codec.encode(record))
        assert record.rid is not None and record.rid < 0
        assert clone.rid == record.rid

    def test_size_matches_wire_size(self):
        record = make_record(3, "abc")
        assert RecordSpillCodec(SCHEMA).size(record) == record.serialized_size()

    def test_non_record_pinned(self):
        assert RecordSpillCodec(SCHEMA).encode("not a record") is None

    def test_schema_mismatch_pinned(self):
        codec = RecordSpillCodec(SCHEMA)
        other = Record.from_dict(Schema(["a"]), {"a": 1})
        assert codec.encode(other) is None

    def test_opaque_value_pinned(self):
        from repro.engine.operators.aggregate import RawState

        codec = RecordSpillCodec(None)
        partial = Record(Schema(["__key", "__states"]), (1, RawState([2])))
        assert codec.encode(partial) is None


class TestEntrySpillCodec:
    def test_round_trip_recomputes_key(self):
        codec = EntrySpillCodec(lambda r: ("rekeyed", r.to_dict()["id"]))
        record = make_record(5)
        bucket, key, clone = codec.decode(codec.encode((3, "stale", record)))
        assert bucket == 3
        assert key == ("rekeyed", 5)
        assert clone.to_dict() == record.to_dict()
        assert clone.rid == record.rid

    def test_size_matches_combine_pricing(self):
        record = make_record(2)
        codec = EntrySpillCodec(lambda r: None)
        assert codec.size((0, None, record)) == 9 + record.serialized_size()

    def test_non_int_bucket_pinned(self):
        codec = EntrySpillCodec(lambda r: None)
        assert codec.encode(("b", None, make_record(1))) is None


# -- the accountant ------------------------------------------------------------


def small_model(budget):
    return dataclasses.replace(CostModel(), worker_memory_bytes=float(budget))


class TestQueryResources:
    def test_observer_mode_returns_items_untouched(self):
        resources = QueryResources(CostModel(), enforce=False)
        items = [make_record(i) for i in range(4)]
        out, units, spill = resources.admit("stage", 0, items,
                                            RecordSpillCodec(SCHEMA))
        assert out is items
        assert (units, spill) == (0.0, None)
        assert resources.spill_files == 0
        assert resources.peak_reserved_bytes == sum(
            r.serialized_size() for r in items
        )

    def test_observer_mode_charges_model_spill_units(self):
        model = small_model(10)
        resources = QueryResources(model, enforce=False)
        items = [make_record(i) for i in range(6)]
        total = sum(r.serialized_size() for r in items)
        _, units, spill = resources.admit("stage", 2, items,
                                          RecordSpillCodec(SCHEMA))
        assert total > 10  # the scenario actually overflows
        assert units == pytest.approx(model.spill_units(total))
        assert spill is None  # priced, not spilled

    def test_observer_price_false_charges_nothing(self):
        resources = QueryResources(small_model(10), enforce=False)
        _, units, _ = resources.admit("stage", 0, [make_record(1)],
                                      RecordSpillCodec(SCHEMA), price=False)
        assert units == 0.0

    def test_enforce_spills_and_preserves_order(self):
        resources = QueryResources(small_model(40), enforce=True)
        items = [make_record(i, f"value-{i}") for i in range(8)]
        expected = [r.to_dict() for r in items]
        out, _, spill = resources.admit("stage", 0, items,
                                        RecordSpillCodec(SCHEMA))
        assert resources.spill_files == 1
        assert resources.spill_bytes > 0
        assert resources.spilled_items > 0
        assert spill == (resources.spilled_items, resources.spill_bytes)
        assert [r.to_dict() for r in out] == expected
        # The resident prefix is the original objects; the tail is clones.
        assert out[0] is items[0]
        assert out[-1] is not items[-1]

    def test_enforce_charge_matches_model_even_unpriced(self):
        model = small_model(40)
        resources = QueryResources(model, enforce=True)
        items = [make_record(i) for i in range(8)]
        total = sum(r.serialized_size() for r in items)
        _, units, _ = resources.admit("stage", 1, items,
                                      RecordSpillCodec(SCHEMA), price=False)
        assert units == pytest.approx(model.spill_units(total))
        assert resources.spill_units == pytest.approx(model.spill_units(total))

    def test_enforce_pins_unserializable_items(self):
        from repro.engine.operators.aggregate import RawState

        resources = QueryResources(small_model(30), enforce=True)
        partial_schema = Schema(["__key", "__states"])
        items = [make_record(i) for i in range(4)]
        items.append(Record(partial_schema, (9, RawState([1]))))
        out, _, _ = resources.admit("stage", 0, items,
                                    RecordSpillCodec(SCHEMA))
        assert resources.pinned_items >= 1
        assert out[-1] is items[-1]  # the opaque record stayed resident

    def test_spill_file_removed_after_replay(self):
        resources = QueryResources(small_model(20), enforce=True)
        resources.admit("stage", 0, [make_record(i) for i in range(8)],
                        RecordSpillCodec(SCHEMA))
        assert resources._tempdir is not None
        assert os.listdir(resources._tempdir.name) == []
        resources.close()
        resources.close()  # idempotent
        assert resources._tempdir is None

    def test_peak_tracks_concurrent_worker_reservations(self):
        resources = QueryResources(CostModel(), enforce=False)
        a = [make_record(1)]
        b = [make_record(2), make_record(3)]
        resources.admit("stage", 0, a, RecordSpillCodec(SCHEMA))
        resources.admit("stage", 1, b, RecordSpillCodec(SCHEMA))
        expected = sum(r.serialized_size() for r in a + b)
        assert resources.peak_reserved_bytes == expected


# -- admission: the threaded controller ---------------------------------------


class TestAdmissionController:
    def test_acquire_release_accounting(self):
        controller = AdmissionController(1000.0)
        ticket = controller.acquire(400)
        assert controller.reserved_bytes == 400
        assert controller.running == 1
        controller.release(ticket)
        assert controller.reserved_bytes == 0
        assert controller.running == 0
        assert controller.admitted_total == 1

    def test_oversized_query_clamps_to_capacity(self):
        controller = AdmissionController(1000.0)
        ticket = controller.acquire(50_000)
        assert ticket.reserved_bytes == 1000.0
        controller.release(ticket)

    def test_zero_queue_limit_still_admits_when_it_fits(self):
        controller = AdmissionController(1000.0, queue_limit=0)
        ticket = controller.acquire(100)
        controller.release(ticket)
        assert controller.admitted_total == 1
        assert controller.shed_total == 0

    def test_queue_full_sheds_immediately(self):
        controller = AdmissionController(1000.0, max_concurrent=1,
                                         queue_limit=0)
        ticket = controller.acquire(100)
        with pytest.raises(AdmissionError) as excinfo:
            controller.acquire(100)
        assert excinfo.value.reason == "queue-full"
        assert controller.shed_total == 1
        controller.release(ticket)

    def test_queue_timeout_sheds(self):
        controller = AdmissionController(1000.0, max_concurrent=1,
                                         queue_timeout=0.01)
        ticket = controller.acquire(100)
        with pytest.raises(AdmissionError) as excinfo:
            controller.acquire(100)
        assert excinfo.value.reason == "timeout"
        assert controller.timeout_total == 1
        controller.release(ticket)

    def test_threaded_burst_all_admitted_within_capacity(self):
        controller = AdmissionController(300.0)
        done = []

        def worker():
            ticket = controller.acquire(100)
            done.append(ticket)
            controller.release(ticket)

        threads = [threading.Thread(target=worker) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(done) == 12
        assert controller.admitted_total == 12
        assert controller.peak_reserved_bytes <= 300.0
        assert controller.reserved_bytes == 0

    def test_snapshot_fields(self):
        snap = AdmissionController(512.0).snapshot()
        assert snap["capacity_bytes"] == 512.0
        for key in ("reserved_bytes", "running", "waiting", "admitted_total",
                    "shed_total", "timeout_total", "peak_reserved_bytes",
                    "peak_queue_depth"):
            assert snap[key] == 0


# -- admission: the pure simulator --------------------------------------------


class TestSimulateAdmission:
    def test_deterministic(self):
        arrivals = [(i * 0.1, 200, 1.0) for i in range(10)]
        a = simulate_admission(arrivals, capacity_bytes=500)
        b = simulate_admission(arrivals, capacity_bytes=500)
        assert a == b

    def test_everything_fits_runs_immediately(self):
        result = simulate_admission([(0.0, 100, 1.0), (0.0, 100, 1.0)],
                                    capacity_bytes=1000)
        assert result["admitted"] == 2
        assert result["max_queue_seconds"] == 0.0

    def test_contention_queues_fifo(self):
        result = simulate_admission(
            [(0.0, 400, 2.0), (0.1, 400, 1.0), (0.2, 400, 1.0)],
            capacity_bytes=500,
        )
        outcomes = result["outcomes"]
        assert [o["outcome"] for o in outcomes] == ["admitted"] * 3
        # Strict FIFO: the second arrival starts when the first finishes,
        # the third when the second finishes.
        assert outcomes[1]["start"] == pytest.approx(2.0)
        assert outcomes[2]["start"] == pytest.approx(3.0)
        assert outcomes[1]["queue_seconds"] == pytest.approx(1.9)

    def test_queue_full_sheds(self):
        result = simulate_admission(
            [(0.0, 500, 10.0), (0.1, 500, 1.0), (0.2, 500, 1.0)],
            capacity_bytes=500, queue_limit=1,
        )
        assert [o["outcome"] for o in result["outcomes"]] == [
            "admitted", "admitted", "queue-full",
        ]
        assert result["shed"] == 1

    def test_timeout_sheds_waiters(self):
        result = simulate_admission(
            [(0.0, 500, 10.0), (0.1, 500, 1.0)],
            capacity_bytes=500, queue_timeout=0.5,
        )
        assert result["outcomes"][1]["outcome"] == "timeout"
        assert result["outcomes"][1]["queue_seconds"] == pytest.approx(0.5)
        assert result["timeouts"] == 1

    def test_reservations_never_exceed_capacity(self):
        arrivals = [(i * 0.05, 150 + 37 * (i % 5), 0.7) for i in range(40)]
        result = simulate_admission(arrivals, capacity_bytes=600,
                                    queue_limit=8, queue_timeout=2.0)
        assert result["peak_reserved_bytes"] <= 600
        assert result["admitted"] + result["shed"] == 40

    def test_max_concurrent_limits_running(self):
        result = simulate_admission(
            [(0.0, 10, 1.0), (0.0, 10, 1.0), (0.0, 10, 1.0)],
            capacity_bytes=1000, max_concurrent=1,
        )
        starts = sorted(o["start"] for o in result["outcomes"])
        assert starts == [pytest.approx(0.0), pytest.approx(1.0),
                          pytest.approx(2.0)]


# -- circuit breaker -----------------------------------------------------------


class TestCircuitBreaker:
    def test_disabled_is_noop(self):
        breaker = CircuitBreaker(threshold=None)
        assert not breaker.enabled
        for _ in range(10):
            breaker.record_failure("j")
        breaker.check("j")  # never raises
        assert breaker.snapshot()["open"] == []

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure("j")
        breaker.check("j")  # still closed
        breaker.record_failure("j")
        assert breaker.trips == 1
        with pytest.raises(BreakerOpenError) as excinfo:
            breaker.check("j")
        assert excinfo.value.join_name == "j"
        assert excinfo.value.threshold == 3
        assert breaker.rejections == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure("j")
        breaker.record_failure("j")
        breaker.record_success("j")
        breaker.record_failure("j")
        breaker.check("j")  # 1 consecutive failure, not 3

    def test_state_is_per_library(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("bad")
        breaker.check("good")
        with pytest.raises(BreakerOpenError):
            breaker.check("bad")

    def test_reset_closes(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("a")
        breaker.record_failure("b")
        breaker.reset("a")
        breaker.check("a")
        with pytest.raises(BreakerOpenError):
            breaker.check("b")
        breaker.reset()
        breaker.check("b")


# -- end-to-end: budgeted execution -------------------------------------------


class ExplodingJoin(BandJoin):
    """A FUDJ library whose verify callback always fails."""

    name = "exploding"

    def verify(self, key1, key2, pplan):
        raise ValueError("boom")


def make_db(**kwargs):
    db = Database(num_partitions=4, **kwargs)
    db.create_type("T", [("id", "int"), ("k", "float"), ("pad", "string")])
    db.create_dataset("L", "T", "id")
    db.create_dataset("R", "T", "id")
    db.load("L", [{"id": i, "k": float(i % 7), "pad": "x" * 40}
                  for i in range(60)])
    db.load("R", [{"id": i, "k": float(i % 5) + 0.2, "pad": "y" * 40}
                  for i in range(60)])
    db.create_join("band_join", BandJoin, defaults=(1.0, 4))
    db.create_join("exploding", ExplodingJoin, defaults=(1.0, 4))
    return db


SQL = "SELECT l.id, r.id FROM L l, R r WHERE band_join(l.k, r.k)"
BAD_SQL = "SELECT l.id, r.id FROM L l, R r WHERE exploding(l.k, r.k)"


def row_list(result):
    return [tuple(sorted(row.items())) for row in result.rows]


class TestBudgetedExecution:
    def test_budgeted_rows_byte_identical_and_spill_observed(self):
        unbounded = make_db().execute(SQL)
        db = make_db(memory_budget="512b")
        budgeted = db.execute(SQL)
        assert row_list(budgeted) == row_list(unbounded)
        assert budgeted.metrics.spill_files > 0
        assert budgeted.metrics.spill_bytes > 0
        assert budgeted.metrics.peak_reserved_bytes > 0

    def test_budget_rewrites_cost_model_worker_memory(self):
        db = make_db(memory_budget="512b")
        assert db.cluster.cost_model.worker_memory_bytes == 512.0
        db.set_memory_budget("4kb")
        assert db.cluster.cost_model.worker_memory_bytes == 4096.0
        db.set_memory_budget(None)
        assert db.memory_budget is None

    def test_ungoverned_metrics_stay_zero(self):
        result = make_db().execute(SQL)
        assert result.metrics.spill_files == 0
        assert result.metrics.spill_bytes == 0.0
        assert result.metrics.queue_seconds == 0.0

    def test_metrics_dict_and_summary_line(self):
        db = make_db(memory_budget="512b")
        metrics = db.execute(SQL).metrics
        summary = metrics.to_dict()
        for key in ("peak_reserved_bytes", "spill_bytes", "spill_files",
                    "queue_seconds"):
            assert key in summary
        assert "spill files" in metrics.profile()

    def test_bad_budget_rejected(self):
        with pytest.raises(PlanError):
            Database(memory_budget="lots")
        with pytest.raises(PlanError):
            Database(memory_budget=-5)

    def test_explain_analyze_reports_governance(self):
        db = make_db(memory_budget="512b", breaker_threshold=3)
        result = db.execute("EXPLAIN ANALYZE " + SQL)
        text = "\n".join(row["plan"] for row in result.rows)
        assert "resources: budget 512b/worker" in text
        assert "admission: capacity" in text
        assert "breaker: threshold 3" in text

    def test_explain_analyze_silent_without_governance(self):
        result = make_db().execute("EXPLAIN ANALYZE " + SQL)
        text = "\n".join(row["plan"] for row in result.rows)
        assert "resources:" not in text
        assert "admission:" not in text

    def test_sys_resources_table(self):
        db = make_db(memory_budget="512b", breaker_threshold=3)
        db.execute(SQL)
        rows = db.execute("SELECT r.component, r.name, r.value "
                          "FROM sys.resources r").rows
        triples = {(row["r.component"], row["r.name"]) for row in rows}
        assert ("budget", "memory_budget_bytes") in triples
        assert ("admission", "admitted_total") in triples
        assert ("breaker", "threshold") in triples
        by_name = {(row["r.component"], row["r.name"]): row["r.value"]
                   for row in rows}
        assert by_name[("budget", "memory_budget_bytes")] == 512.0

    def test_telemetry_spill_counters(self):
        db = make_db(memory_budget="512b")
        db.execute(SQL)
        snapshot = json.loads(db.metrics_snapshot("json"))
        text = json.dumps(snapshot)
        assert "fudj_spill_bytes_total" in text
        assert "fudj_admission_total" in text

    def test_history_records_peak_reserved(self):
        db = make_db(memory_budget="512b")
        db.execute(SQL)
        rows = db.execute(
            "SELECT q.peak_reserved_bytes, q.spill_files FROM sys.queries q"
        ).rows
        assert any(row["q.peak_reserved_bytes"] > 0 for row in rows)
        assert any(row["q.spill_files"] > 0 for row in rows)


class TestAdmissionIntegration:
    def test_queue_full_shed_is_typed_and_logged(self):
        db = make_db(memory_budget="64kb", max_concurrent=1, queue_limit=0)
        ticket = db.admission.acquire(10)
        with pytest.raises(AdmissionError):
            db.execute(SQL)
        db.admission.release(ticket)
        statuses = [row["q.status"] for row in
                    db.execute("SELECT q.status FROM sys.queries q").rows]
        assert "shed" in statuses

    def test_queue_timeout_shed(self):
        db = make_db(memory_budget="64kb", max_concurrent=1,
                     queue_timeout=0.01)
        ticket = db.admission.acquire(10)
        with pytest.raises(AdmissionError) as excinfo:
            db.execute(SQL)
        assert excinfo.value.reason == "timeout"
        db.admission.release(ticket)

    def test_normal_queries_admitted_and_released(self):
        db = make_db(memory_budget="64kb")
        db.execute(SQL)
        db.execute(SQL)
        snap = db.admission.snapshot()
        assert snap["admitted_total"] >= 2
        assert snap["running"] == 0
        assert snap["reserved_bytes"] == 0


class TestBreakerIntegration:
    def test_breaker_trips_then_fails_fast_then_resets(self):
        db = make_db(breaker_threshold=2)
        for _ in range(2):
            with pytest.raises(FudjCallbackError):
                db.execute(BAD_SQL)
        assert db.breaker.snapshot()["open"]
        with pytest.raises(BreakerOpenError):
            db.execute(BAD_SQL)
        statuses = [row["q.status"] for row in
                    db.execute("SELECT q.status FROM sys.queries q").rows]
        assert "rejected" in statuses
        db.breaker.reset()
        # Closed again: the query reaches the callback and fails slow.
        with pytest.raises(FudjCallbackError):
            db.execute(BAD_SQL)

    def test_healthy_library_unaffected(self):
        db = make_db(breaker_threshold=2)
        for _ in range(2):
            with pytest.raises(FudjCallbackError):
                db.execute(BAD_SQL)
        assert len(db.execute(SQL)) > 0  # band_join still closed

    def test_no_threshold_no_breaker(self):
        db = make_db()
        assert db.breaker is None
        for _ in range(3):
            with pytest.raises(FudjCallbackError):
                db.execute(BAD_SQL)  # never trips


# -- shell + CLI ---------------------------------------------------------------


class TestShellAndCli:
    def _shell(self, **kwargs):
        from repro.cli import Shell

        lines = []
        shell = Shell(db=make_db(**kwargs), write=lines.append)
        return shell, lines

    def test_budget_dot_command_round_trip(self):
        shell, lines = self._shell()
        shell.feed(".budget")
        assert "budget = off" in lines
        shell.feed(".budget 64kb")
        assert shell.db.memory_budget == 64 * 2**10
        assert "budget = 64kb" in lines
        shell.feed(".budget off")
        assert shell.db.memory_budget is None

    def test_budget_bad_value_reports_error(self):
        shell, lines = self._shell()
        shell.feed(".budget lots")
        assert any("error" in str(line) for line in lines)
        assert shell.db.memory_budget is None

    def test_breaker_dot_command(self):
        shell, lines = self._shell(breaker_threshold=2)
        shell.feed(".breaker")
        assert any("threshold = 2" in str(line) for line in lines)
        shell.db.breaker.record_failure("exploding")
        shell.db.breaker.record_failure("exploding")
        shell.feed(".breaker show")
        assert any("exploding" in str(line) for line in lines)
        shell.feed(".breaker reset")
        assert shell.db.breaker.snapshot()["open"] == []

    def test_breaker_off_message(self):
        shell, lines = self._shell()
        shell.feed(".breaker")
        assert any("breaker = off" in str(line) for line in lines)

    def test_memory_budget_cli_flag(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "s.sql"
        script.write_text("CREATE TYPE T { id: int };\n")
        assert main(["--memory-budget", "64kb", str(script)]) == 0
        out = capsys.readouterr().out
        assert "memory budget active: 64kb" in out

    def test_memory_budget_flag_rejects_garbage(self, capsys):
        from repro.cli import main

        assert main(["--memory-budget", "lots"]) == 1
        assert "memory budget" in capsys.readouterr().err

    def test_demo_preserves_budget_and_breaker(self):
        shell, _ = self._shell(memory_budget="1mb", breaker_threshold=4)
        breaker = shell.db.breaker
        shell._load_demo("interval")
        assert shell.db.memory_budget == 2**20
        assert shell.db.breaker is breaker
