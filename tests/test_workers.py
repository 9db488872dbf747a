"""The supervised process-pool backend: real workers that crash,
straggle, and recover.

That a process run returns the serial run's rows and deterministic
metrics is checked by every ``process`` case of the golden file
(``tests/test_golden.py``) against its serial twin.  What this file
checks is what simulated faults cannot show: seeded
``FaultPlan(real=True)`` schedules and outside SIGKILLs that kill live
worker processes mid-task, a callback error rebuilt from a worker, and
the pool's lifecycle.  Divergence from serial is allowed only where real
supervision is visible by design: ``worker_restarts`` /
``heartbeat_misses`` count actual process deaths and stalls, and
wall-clock timings differ.
"""

import os
import re
import signal
import threading
import time

import pytest

from repro import FaultPlan
from repro.bench import workloads
from repro.errors import FudjCallbackError, TaskFailedError
from repro.cli import Shell
from repro.database import Database
from repro.engine.workers import WorkerPool, default_pool_size
from repro.joins import PartitionedIntervalJoin
from repro.query.printer import render_timing_line

#: ``QueryMetrics.to_dict`` keys that must match serial byte-for-byte
#: under the process backend.  Excluded by design: ``wall_seconds`` and
#: ``queue_seconds`` (real time, nondeterministic even serial-vs-serial)
#: and ``worker_restarts`` / ``heartbeat_misses`` (real supervision —
#: nonzero only when actual processes die or stall).
DETERMINISTIC_KEYS = (
    "cpu_units", "network_bytes", "comparisons",
    "translation_conversions", "output_records", "stages",
    "tasks_retried", "exchange_retries", "stragglers_detected",
    "records_quarantined", "recovery_seconds", "checkpoint_bytes",
    "peak_reserved_bytes", "spill_bytes", "spill_files",
    "simulated_seconds", "operator_invocations",
)


#: Everything :func:`run_query` returns that two runs must agree on.
COMPARED_KEYS = DETERMINISTIC_KEYS + ("quarantine_log", "events",
                                      "trace_units")


def run_query(build, sql, backend, budget=None, fault_seed=None,
              on_error=None, trace=False, dedup=None):
    """Rows (order-stable, hashable) plus the metrics dict for one run.

    The dict also carries the quarantine report, the canonical event
    JSONL and, with ``trace``, the trace's unit total, so
    :func:`check_parity` compares them too."""
    db = build()
    try:
        if budget is not None:
            db.set_memory_budget(budget)
        if backend == "process":
            db.set_backend("process")
        plan = (None if fault_seed is None else
                FaultPlan(seed=fault_seed, crash_rate=0.2,
                          straggler_rate=0.05, real=True))
        try:
            result = db.execute(sql, fault_plan=plan, on_error=on_error,
                                trace=trace, dedup=dedup)
        except FudjCallbackError as exc:
            # ``on_error="fail"``: parity means the same message and the
            # same class of original error on either backend.
            return ("callback-failed", str(exc),
                    type(exc.original).__name__), None
        except TaskFailedError as exc:
            # A doomed roll schedule (more consecutive crashes than the
            # retry cap) aborts the query on either backend; parity then
            # means raising the *same* error.  The plan-instance counter
            # in the stage name differs between two separately built
            # plans (fault rolls key on the normalized name), so it is
            # masked before comparing.
            return ("task-failed", re.sub(r"#\d+", "#N", str(exc))), None
        rows = [tuple(sorted(row.items())) for row in result.rows]
        metrics = result.metrics.to_dict(db.cluster.cores)
        metrics["quarantine_log"] = result.metrics.quarantine_log
        metrics["events"] = db.telemetry.events.to_jsonl()
        if trace:
            metrics["trace_units"] = result.trace.total_units()
        if backend == "process":
            # The stage really shipped: a join the pool cannot pickle
            # would fall back to the serial loop and pass vacuously.
            assert db.worker_pool.tasks_ok_total > 0
        return rows, metrics
    finally:
        db.close()


def check_parity(build, sql, budget, fault_seed, **execute_options):
    serial_rows, serial_metrics = run_query(
        build, sql, "serial", budget, fault_seed, **execute_options)
    pool_rows, pool_metrics = run_query(
        build, sql, "process", budget, fault_seed, **execute_options)
    assert pool_rows == serial_rows
    if serial_metrics is None:
        assert pool_metrics is None
        return None
    for key in COMPARED_KEYS:
        assert pool_metrics.get(key) == serial_metrics.get(key), key
    return pool_metrics


def with_join(build, name, join_class, *defaults):
    """``build`` with the ``name`` FUDJ library swapped for ``join_class``."""
    def swapped():
        db = build()
        db.drop_join(name)
        db.create_join(name, join_class, defaults=defaults)
        return db
    return swapped


class PoisonVerifyIntervalJoin(PartitionedIntervalJoin):
    """``verify`` raises on a handful of pairs.  Module level so the
    pool can pickle it (a local class would never reach a worker)."""

    def verify(self, interval1, interval2, pplan) -> bool:
        if int(interval1.start) % 5 == 0:
            raise ValueError("poison pair")
        return super().verify(interval1, interval2, pplan)


def interval_with(join_class):
    return with_join(lambda: workloads.interval_database(120),
                     "overlapping_interval", join_class, 100)


class TestBackendParity:
    """Serial and process runs agree where the golden file cannot look:
    under real worker kills, and when a callback fails in a worker."""

    def test_poison_verify_fails_with_the_same_error(self):
        # check_parity compares what run_query returns for a failed
        # callback: the message and the class of the original error.
        build = interval_with(PoisonVerifyIntervalJoin)
        check_parity(build, workloads.INTERVAL_SQL, None, None,
                     on_error="fail")
        failure, _ = run_query(build, workloads.INTERVAL_SQL, "process",
                               on_error="fail")
        assert failure[0] == "callback-failed" and failure[2] == "ValueError"

    def test_planned_kills_actually_restart_workers(self):
        # Under this seed the schedule provably kills at least one worker
        # process for real, and the supervision shows up only in the
        # allowed divergences.
        metrics = check_parity(lambda: workloads.interval_database(120),
                               workloads.INTERVAL_SQL, None, 42)
        assert metrics["worker_restarts"] > 0


def kill_one_busy_worker(db, killed, deadline_seconds=20.0):
    """From a sibling thread: SIGKILL the first worker seen busy on a
    task.  Runs until it kills one or the deadline passes."""
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        pool = db.worker_pool
        if pool is not None:
            for row in pool.snapshot_rows():
                if row["alive"] and row["busy"]:
                    os.kill(row["pid"], signal.SIGKILL)
                    killed.append(row["pid"])
                    return
        time.sleep(0.01)


class TestRealCrashRecovery:
    def test_sigkill_live_worker_mid_query(self):
        # The acceptance test: a live worker process is SIGKILLed from
        # outside mid-task (an unplanned death — no crash roll planned
        # it).  The supervisor must re-dispatch the lease, charge the
        # recovery through the retry path, and still produce rows
        # byte-identical to serial.
        plan = FaultPlan(seed=3, crash_rate=0.0, straggler_rate=1.0,
                         real=True)  # every task sleeps: a wide kill window
        serial_db = workloads.interval_database(120)
        serial_result = serial_db.execute(
            workloads.INTERVAL_SQL, fault_plan=plan)
        serial_rows = [tuple(sorted(r.items())) for r in serial_result.rows]

        db = workloads.interval_database(120)
        db.set_backend("process")
        restarts_before = db.telemetry.registry.counter(
            "fudj_worker_restarts_total").value()
        killed = []
        killer = threading.Thread(
            target=kill_one_busy_worker, args=(db, killed))
        killer.start()
        try:
            result = db.execute(workloads.INTERVAL_SQL, fault_plan=plan)
        finally:
            killer.join()
        try:
            assert killed, "no busy worker appeared to kill"
            rows = [tuple(sorted(r.items())) for r in result.rows]
            assert rows == serial_rows
            # The death was real and unplanned: recovery is charged
            # through the retry path and the restart is counted.
            assert result.metrics.worker_restarts > 0
            assert result.metrics.tasks_retried > 0
            restarts_after = db.telemetry.registry.counter(
                "fudj_worker_restarts_total").value()
            assert restarts_after > restarts_before
            # The pool survived: the seat was respawned within budget.
            assert db.worker_pool is not None
            assert db.worker_pool.healthy
        finally:
            db.close()

    def test_restart_budget_exhaustion_degrades_to_serial(self):
        # With a zero restart budget, one real (unplanned) death
        # exhausts the pool: the query must degrade to the serial path
        # mid-flight and still return correct rows, the degradation must
        # be counted, and the *next* process-backend query must get a
        # fresh pool instead of being pinned to serial forever.
        plan = FaultPlan(seed=5, crash_rate=0.0, straggler_rate=1.0,
                         real=True)
        serial_db = workloads.interval_database(120)
        serial_rows = [
            tuple(sorted(r.items()))
            for r in serial_db.execute(workloads.INTERVAL_SQL,
                                       fault_plan=plan).rows
        ]

        db = workloads.interval_database(120)
        db.set_backend("process")
        db.worker_pool = WorkerPool(1, restart_budget=0)
        doomed = db.worker_pool
        killed = []
        killer = threading.Thread(
            target=kill_one_busy_worker, args=(db, killed))
        killer.start()
        try:
            result = db.execute(workloads.INTERVAL_SQL, fault_plan=plan)
        finally:
            killer.join()
        try:
            assert killed, "no busy worker appeared to kill"
            rows = [tuple(sorted(r.items())) for r in result.rows]
            assert rows == serial_rows
            assert not doomed.healthy
            assert doomed.degradations_total == 1
            assert db.telemetry.registry.counter(
                "fudj_backend_degraded_total").value() == 1
            # Recovery: the next query tears the exhausted pool down and
            # runs on a freshly spawned one.
            again = db.execute(workloads.INTERVAL_SQL)
            assert [tuple(sorted(r.items())) for r in again.rows] == [
                tuple(sorted(r.items()))
                for r in serial_db.execute(workloads.INTERVAL_SQL).rows
            ]
            assert db.worker_pool is not doomed
            assert db.worker_pool.healthy
            assert db.worker_pool.tasks_ok_total > 0
        finally:
            doomed.shutdown()
            db.close()


class TestPoolLifecycle:
    def test_pool_reused_across_queries(self):
        db = workloads.interval_database(120)
        db.set_backend("process")
        try:
            db.execute(workloads.INTERVAL_SQL)
            pool = db.worker_pool
            assert pool is not None and pool.healthy
            pids = [row["pid"] for row in pool.snapshot_rows()]
            ok_after_first = pool.tasks_ok_total
            assert ok_after_first > 0
            db.execute(workloads.INTERVAL_SQL)
            assert db.worker_pool is pool
            assert [row["pid"] for row in pool.snapshot_rows()] == pids
            assert pool.tasks_ok_total > ok_after_first
        finally:
            db.close()

    def test_set_backend_serial_shuts_pool_down(self):
        db = workloads.interval_database(120)
        db.set_backend("process")
        db.execute(workloads.INTERVAL_SQL)
        pool = db.worker_pool
        assert pool is not None
        db.set_backend("serial")
        assert db.worker_pool is None
        assert not pool.healthy
        # Back to serial semantics, same answers, no pool respawn.
        db.execute(workloads.INTERVAL_SQL)
        assert db.worker_pool is None

    def test_close_is_idempotent_and_nonfinal(self):
        db = workloads.interval_database(120)
        db.set_backend("process")
        db.execute(workloads.INTERVAL_SQL)
        first = db.worker_pool
        db.close()
        db.close()
        assert db.worker_pool is None and not first.healthy
        # The database stays usable; the next query respawns the pool.
        db.execute(workloads.INTERVAL_SQL)
        assert db.worker_pool is not None and db.worker_pool is not first
        db.close()

    def test_default_pool_size_is_bounded(self):
        db = Database(num_partitions=8, cores=48)
        assert 1 <= default_pool_size(db.cluster) <= 4
        small = Database(num_partitions=2, cores=48)
        assert default_pool_size(small.cluster) <= 2

    def test_backend_validation(self):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            Database(backend="threads")
        db = Database()
        with pytest.raises(PlanError):
            db.set_backend("bogus")


class TestIntrospection:
    def test_sys_workers_table(self):
        db = workloads.interval_database(120)
        db.set_backend("process")
        try:
            db.execute(workloads.INTERVAL_SQL)
            rows = db.execute(
                "SELECT w.slot, w.pid, w.alive, w.busy, w.tasks_ok, "
                "w.restarts FROM sys.workers w"
            ).rows
            assert len(rows) == db.worker_pool.size
            assert all(row["w.alive"] for row in rows)
            assert all(not row["w.busy"] for row in rows)
            assert sum(row["w.tasks_ok"] for row in rows) > 0
        finally:
            db.close()

    def test_sys_workers_empty_on_serial(self):
        db = workloads.interval_database(120)
        assert db.execute("SELECT * FROM sys.workers").rows == []

    def test_worker_restart_columns_in_history(self):
        db = workloads.interval_database(120)
        db.set_backend("process")
        try:
            db.execute(workloads.INTERVAL_SQL,
                       fault_plan=FaultPlan(seed=42, crash_rate=0.2,
                                            real=True))
            row = db.execute(
                "SELECT q.worker_restarts, q.heartbeat_misses "
                "FROM sys.queries q WHERE q.status = 'ok'"
            ).rows[0]
            assert row["q.worker_restarts"] >= 0
            assert row["q.heartbeat_misses"] >= 0
        finally:
            db.close()


class TestShellAndResultSurface:
    def test_backend_dot_command(self):
        lines = []
        shell = Shell(write=lines.append)
        shell.feed(".backend")
        assert any("backend = serial" in str(line) for line in lines)
        shell.feed(".backend bogus")
        assert any("usage: .backend" in str(line) for line in lines)
        shell.feed(".backend process")
        assert shell.db.backend == "process"
        assert any("backend = process" in str(line) for line in lines)
        shell.feed(".backend serial")
        assert shell.db.backend == "serial"

    def test_query_result_records_cores(self):
        db = Database(num_partitions=4, cores=24)
        db.execute("CREATE TYPE T { id: int }")
        db.execute("CREATE DATASET D(T) PRIMARY KEY id")
        db.load("D", [{"id": i} for i in range(10)])
        result = db.execute("SELECT d.id FROM D d")
        assert result.cores == 24
        # to_dict() defaults to the cluster that ran the query, so the
        # simulated figure matches the execution that produced it.
        assert (result.to_dict()["metrics"]["simulated_seconds"]
                == result.metrics.simulated_seconds(24))
        assert (result.to_dict(cores=12)["metrics"]["simulated_seconds"]
                == result.metrics.simulated_seconds(12))

    def test_render_timing_line_uses_result_cores(self):
        db = Database(num_partitions=4, cores=24)
        db.execute("CREATE TYPE T { id: int }")
        db.execute("CREATE DATASET D(T) PRIMARY KEY id")
        db.load("D", [{"id": i} for i in range(10)])
        result = db.execute("SELECT d.id FROM D d")
        assert "on 24 cores" in render_timing_line(result)
        assert "on 6 cores" in render_timing_line(result, cores=6)
