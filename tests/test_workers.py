"""The supervised process-pool backend: real workers that crash,
straggle, and recover.

The contract under test is *byte identity*: ``backend="process"`` must
return exactly the rows — and the deterministic metrics — of the serial
backend, across join libraries, memory budgets, and seeded
``FaultPlan(real=True)`` schedules that physically SIGKILL live worker
processes mid-task.  Divergence is allowed only where real supervision
is visible by design: ``worker_restarts`` / ``heartbeat_misses`` count
actual process deaths and stalls, and wall-clock timings differ.
"""

import os
import re
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultPlan
from repro.bench import workloads
from repro.errors import FudjCallbackError, TaskFailedError
from repro.cli import Shell
from repro.database import Database
from repro.engine.workers import WorkerPool, default_pool_size
from repro.joins import (
    LengthFilteredTextJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    SortMergeIntervalJoin,
)
from repro.query.printer import render_timing_line

#: ``QueryMetrics.to_dict`` keys that must match serial byte-for-byte
#: under the process backend.  Excluded by design: ``wall_seconds`` and
#: ``queue_seconds`` (real time, nondeterministic even serial-vs-serial)
#: and ``worker_restarts`` / ``heartbeat_misses`` (real supervision —
#: nonzero only when actual processes die or stall).
@pytest.fixture(autouse=True, scope="module")
def _no_backend_env():
    """Every test here picks its backend explicitly, so the file must
    behave identically when the whole suite runs under
    ``FUDJ_BACKEND=process`` (the CI tier-1 process job).  Module scope
    keeps hypothesis's function-scoped-fixture health check quiet."""
    old = os.environ.pop("FUDJ_BACKEND", None)
    yield
    if old is not None:
        os.environ["FUDJ_BACKEND"] = old


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


BUDGETS = st.one_of(st.none(), st.sampled_from([512, 1024, 4096]))
FAULT_SEEDS = st.one_of(st.none(), st.integers(min_value=0, max_value=999))
#: Elimination tags every row with the pair of its inputs' ``rid``s and
#: shuffles on it: the tags have to survive the trip to a worker and back.
DEDUPS = st.sampled_from([None, "elimination"])


class TestBackendParity:
    """Hypothesis property: the process backend is byte-identical to
    serial for every join library, under arbitrary memory budgets and
    seeded schedules of real worker kills."""

    @settings(max_examples=5, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS, dedup=DEDUPS)
    def test_spatial_join(self, budget, fault_seed, dedup):
        check_parity(lambda: workloads.spatial_database(25, 120),
                     workloads.SPATIAL_SQL, budget, fault_seed, dedup=dedup)

    @settings(max_examples=4, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS, dedup=DEDUPS)
    def test_interval_join(self, budget, fault_seed, dedup):
        check_parity(lambda: workloads.interval_database(120),
                     workloads.INTERVAL_SQL, budget, fault_seed, dedup=dedup)

    @settings(max_examples=4, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS, dedup=DEDUPS)
    def test_text_join(self, budget, fault_seed, dedup):
        check_parity(lambda: workloads.text_database(80),
                     workloads.TEXT_SQL.format(threshold=0.9),
                     budget, fault_seed, dedup=dedup)

    # The three above reach the ``single`` (spatial, text) and ``theta``
    # (interval) kernels; these cover ``partitioned`` and both
    # ``local_join`` branches.

    @settings(max_examples=4, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS, dedup=DEDUPS)
    def test_partitioned_interval_join(self, budget, fault_seed, dedup):
        check_parity(interval_with(PartitionedIntervalJoin),
                     workloads.INTERVAL_SQL, budget, fault_seed, dedup=dedup)

    @settings(max_examples=4, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS)
    def test_sort_merge_interval_join(self, budget, fault_seed):
        check_parity(interval_with(SortMergeIntervalJoin),
                     workloads.INTERVAL_SQL, budget, fault_seed)

    @settings(max_examples=4, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS)
    def test_plane_sweep_spatial_join(self, budget, fault_seed):
        check_parity(with_join(lambda: workloads.spatial_database(25, 120),
                               "st_contains", PlaneSweepSpatialJoin, 48),
                     workloads.SPATIAL_SQL, budget, fault_seed)

    @settings(max_examples=4, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS)
    def test_length_filtered_text_join(self, budget, fault_seed):
        check_parity(with_join(lambda: workloads.text_database(80),
                               "similarity_jaccard", LengthFilteredTextJoin),
                     workloads.TEXT_SQL.format(threshold=0.9),
                     budget, fault_seed)

    def test_poison_verify_quarantined(self):
        metrics = check_parity(
            interval_with(PoisonVerifyIntervalJoin),
            workloads.INTERVAL_SQL, None, None, on_error="quarantine")
        assert metrics["records_quarantined"] > 0
        assert metrics["quarantine_log"]

    def test_poison_verify_fails_with_the_same_error(self):
        # check_parity compares what run_query returns for a failed
        # callback: the message and the class of the original error.
        build = interval_with(PoisonVerifyIntervalJoin)
        check_parity(build, workloads.INTERVAL_SQL, None, None,
                     on_error="fail")
        failure, _ = run_query(build, workloads.INTERVAL_SQL, "process",
                               on_error="fail")
        assert failure[0] == "callback-failed" and failure[2] == "ValueError"

    def test_traced_units_add_up_on_both_backends(self):
        metrics = check_parity(
            interval_with(SortMergeIntervalJoin),
            workloads.INTERVAL_SQL, None, None, trace=True)
        assert metrics["trace_units"] == pytest.approx(metrics["cpu_units"])

    def test_planned_kills_actually_restart_workers(self):
        # Anchor for the property above: under this seed the schedule
        # provably kills at least one worker process for real, and the
        # supervision shows up only in the allowed divergences.
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

    def test_backend_env_var_default(self, monkeypatch):
        monkeypatch.setenv("FUDJ_BACKEND", "process")
        db = Database()
        assert db.backend == "process"
        monkeypatch.setenv("FUDJ_BACKEND", "serial")
        assert Database().backend == "serial"
        # An explicit kwarg beats the environment.
        assert Database(backend="serial").backend == "serial"


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
