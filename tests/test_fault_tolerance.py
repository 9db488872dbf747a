"""Fault-tolerant execution: seeded injection, recovery, timeouts.

The invariants under test:

- *Correctness under faults*: any seeded mix of crashes, stragglers, and
  transient exchange failures leaves query results byte-identical to the
  fault-free run (recovery replays tasks from exchange checkpoints).
- *Determinism*: same seed + same FaultPlan => identical rows, retry
  counts, and simulated makespan across runs, regardless of how many
  plans the process built in between.
- *Cost-model charging*: recovery work shows up in ``simulated_seconds``
  and in the ``recovery_seconds`` counter; checkpointing alone (0% fault
  rates) costs at most a few percent.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, FaultPlan
from repro.engine import Cluster, Schema
from repro.engine.cancel import CancellationToken
from repro.engine.executor import execute_plan
from repro.engine.operators import FudjJoin, Scan
from repro.errors import ExecutionError, QueryTimeoutError, TaskFailedError
from repro.serde.values import unbox
from tests.helpers import BandJoin

BAND = 1.5


def make_cluster(n=24, partitions=3):
    cluster = Cluster(num_partitions=partitions)
    left = cluster.create_dataset("L", Schema(["id", "k"]), "id")
    left.bulk_load({"id": i, "k": float(i % 11)} for i in range(n))
    right = cluster.create_dataset("R", Schema(["id", "k"]), "id")
    right.bulk_load({"id": i, "k": float((i * 3) % 13) + 0.4} for i in range(n))
    return cluster


def band_plan(join=None):
    return FudjJoin(
        Scan("L", "l"), Scan("R", "r"), join or BandJoin(BAND, 4),
        lambda r: unbox(r["l.k"]), lambda r: unbox(r["r.k"]),
    )


def run(cluster=None, fault_plan=None, **kwargs):
    return execute_plan(band_plan(), cluster or make_cluster(),
                        fault_plan=fault_plan, **kwargs)


def row_set(result):
    return sorted(tuple(sorted(row.items())) for row in result.rows)


def nlj_ground_truth(cluster):
    """Brute-force band join over the raw dataset partitions."""
    left = [r for p in cluster.dataset("L").partitions for r in p]
    right = [r for p in cluster.dataset("R").partitions for r in p]
    pairs = set()
    for l in left:
        for r in right:
            if abs(unbox(l["k"]) - unbox(r["k"])) <= BAND:
                pairs.add((unbox(l["id"]), unbox(r["id"])))
    return pairs


class TestFaultPlan:
    def test_rolls_are_deterministic(self):
        a = FaultPlan(seed=42, crash_rate=0.5)
        b = FaultPlan(seed=42, crash_rate=0.5)
        probes = [("fudj-join/combine", w, k) for w in range(8) for k in range(4)]
        assert [a.crashes(*p) for p in probes] == [b.crashes(*p) for p in probes]

    def test_different_seeds_differ(self):
        probes = [("fudj-join/combine", w, 0) for w in range(64)]
        a = [FaultPlan(seed=1, crash_rate=0.5).crashes(*p) for p in probes]
        b = [FaultPlan(seed=2, crash_rate=0.5).crashes(*p) for p in probes]
        assert a != b

    def test_rates_validated(self):
        with pytest.raises(ExecutionError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ExecutionError):
            FaultPlan(straggler_rate=-0.1)
        with pytest.raises(ExecutionError):
            FaultPlan(straggler_slowdown=0.5)

    def test_backoff_caps(self):
        plan = FaultPlan(backoff_base_seconds=0.1, backoff_cap_seconds=0.5)
        assert plan.backoff_seconds(1) == pytest.approx(0.1)
        assert plan.backoff_seconds(2) == pytest.approx(0.2)
        assert plan.backoff_seconds(10) == pytest.approx(0.5)

    def test_parse_single_rate(self):
        plan = FaultPlan.parse("7:0.05")
        assert plan.seed == 7
        assert plan.crash_rate == plan.straggler_rate == 0.05
        assert plan.exchange_failure_rate == 0.05

    def test_parse_full_form(self):
        plan = FaultPlan.parse("3:0.1:0.2:0.3")
        assert (plan.crash_rate, plan.straggler_rate,
                plan.exchange_failure_rate) == (0.1, 0.2, 0.3)

    def test_parse_rejects_garbage(self):
        for bad in ("nope", "1", "1:x", "1:0.1:0.2"):
            with pytest.raises(ExecutionError):
                FaultPlan.parse(bad)

    def test_parse_rejects_malformed_shapes(self):
        for bad in ("", ":", "1:", ":0.1", "1:0.1:0.2:0.3:0.4",
                    "1.5:0.1", "1:0.1:x:0.3", "1::0.2:0.3"):
            with pytest.raises(ExecutionError):
                FaultPlan.parse(bad)

    def test_parse_rejects_out_of_range_rates(self):
        for bad in ("1:1.5", "1:-0.1", "1:0.1:2.0:0.3", "1:0.1:0.2:-1"):
            with pytest.raises(ExecutionError):
                FaultPlan.parse(bad)

    def test_parse_boundary_rates_accepted(self):
        assert FaultPlan.parse("0:0.0").crash_rate == 0.0
        assert FaultPlan.parse("0:1.0").crash_rate == 1.0

    def test_slowdown_below_one_rejected(self):
        for slowdown in (0.99, 0.0, -2.0):
            with pytest.raises(ExecutionError):
                FaultPlan(straggler_slowdown=slowdown)

    def test_backoff_capped_and_monotone(self):
        plan = FaultPlan(backoff_base_seconds=0.05, backoff_cap_seconds=1.0)
        delays = [plan.backoff_seconds(attempt) for attempt in range(1, 20)]
        assert all(d <= plan.backoff_cap_seconds for d in delays)
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        assert delays[-1] == plan.backoff_cap_seconds

    def test_phase_filter(self):
        plan = FaultPlan(crash_rate=0.5, phases=("combine",))
        assert plan.active_for("fudj-join#3/combine")
        assert not plan.active_for("fudj-join#3/assign-left")


class TestRecoveryCorrectness:
    PLAN = FaultPlan(seed=9, crash_rate=0.2, straggler_rate=0.15,
                     exchange_failure_rate=0.15)

    def test_rows_identical_to_fault_free_run(self):
        clean = run()
        faulty = run(fault_plan=self.PLAN)
        assert row_set(clean) == row_set(faulty)

    def test_counters_fire(self):
        metrics = run(fault_plan=self.PLAN).metrics
        assert metrics.tasks_retried > 0
        assert metrics.exchange_retries > 0
        assert metrics.recovery_seconds > 0.0
        assert metrics.checkpoint_bytes > 0.0

    def test_recovery_costs_show_in_makespan(self):
        clean = run().metrics.simulated_seconds(12)
        faulty = run(fault_plan=self.PLAN).metrics.simulated_seconds(12)
        assert faulty > clean

    def test_logical_counters_fault_invariant(self):
        clean = run().metrics
        faulty = run(fault_plan=self.PLAN).metrics
        assert clean.comparisons == faulty.comparisons
        assert clean.output_records == faulty.output_records

    def test_determinism_across_runs(self):
        a = run(fault_plan=self.PLAN)
        # Build unrelated plans in between so operator instance counters
        # move — fault decisions must not care.
        for _ in range(3):
            band_plan()
        b = run(fault_plan=self.PLAN)
        assert row_set(a) == row_set(b)
        ma, mb = a.metrics, b.metrics
        assert ma.tasks_retried == mb.tasks_retried
        assert ma.exchange_retries == mb.exchange_retries
        assert ma.stragglers_detected == mb.stragglers_detected
        assert ma.recovery_seconds == pytest.approx(mb.recovery_seconds)
        assert ma.simulated_seconds(12) == pytest.approx(mb.simulated_seconds(12))

    def test_certain_crash_exhausts_retries(self):
        plan = FaultPlan(seed=1, crash_rate=1.0, max_task_retries=2)
        with pytest.raises(TaskFailedError):
            run(fault_plan=plan)

    def test_checkpoint_only_overhead_small(self):
        clean = run().metrics.simulated_seconds(12)
        ckpt = run(fault_plan=FaultPlan(seed=1)).metrics
        assert ckpt.tasks_retried == 0
        overhead = ckpt.simulated_seconds(12) / clean - 1.0
        assert 0.0 <= overhead <= 0.05

    def test_checkpoint_totals_pinned(self):
        # Exchanges size their checkpoint copy only while a plan is
        # checkpointing; what they charge when one is must not move.
        # Totals of this plan as first recorded (simulated, so exact).
        for plan, checkpoint_bytes, cpu_units in (
                (None, 0.0, 7900.7),
                (FaultPlan(seed=1), 2214.0, 7933.91),
                (FaultPlan(seed=1, checkpoint=False), 0.0, 7900.7),
                (self.PLAN, 2214.0, 3012025.035)):
            metrics = run(fault_plan=plan).metrics
            assert metrics.checkpoint_bytes == checkpoint_bytes
            assert metrics.total_cpu_units() == pytest.approx(
                cpu_units, rel=1e-12)
            assert metrics.total_network_bytes() == (
                2658.0 if plan is self.PLAN else 2361.0)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        crash=st.floats(min_value=0.0, max_value=0.3),
        straggle=st.floats(min_value=0.0, max_value=0.3),
        exchange=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_fudj_under_faults_matches_nlj_ground_truth(
            self, seed, crash, straggle, exchange):
        cluster = make_cluster()
        truth = nlj_ground_truth(cluster)
        plan = FaultPlan(seed=seed, crash_rate=crash, straggler_rate=straggle,
                         exchange_failure_rate=exchange)
        result = execute_plan(band_plan(), cluster, fault_plan=plan)
        got = {(row["l.id"], row["r.id"]) for row in result.rows}
        assert got == truth


class TestTimeout:
    def test_immediate_timeout_cancels(self):
        with pytest.raises(QueryTimeoutError):
            run(cancel=CancellationToken(1e-9))

    def test_generous_timeout_passes(self):
        result = run(cancel=CancellationToken(60.0))
        assert len(result) > 0

    def test_error_carries_budget(self):
        with pytest.raises(QueryTimeoutError) as excinfo:
            run(cancel=CancellationToken(1e-9))
        assert excinfo.value.limit_seconds == 1e-9
        assert excinfo.value.elapsed_seconds >= 0.0

    def test_timeout_is_catchable_as_execution_error(self):
        with pytest.raises(ExecutionError):
            run(cancel=CancellationToken(1e-9))


class TestExecutorTiming:
    def test_wall_seconds_includes_row_materialization(self, monkeypatch):
        from repro.engine import executor

        original = executor.unbox

        def slow_unbox(value):
            time.sleep(0.005)
            return original(value)

        # The result's row dicts unbox every value of every row.
        monkeypatch.setattr(executor, "unbox", slow_unbox)
        cluster = Cluster(num_partitions=2)
        ds = cluster.create_dataset("T", Schema(["id"]), "id")
        ds.bulk_load({"id": i} for i in range(10))
        result = execute_plan(Scan("T", "t"), cluster)
        # 10 one-column rows x 5 ms each must be visible in the wall clock.
        assert result.metrics.wall_seconds >= 0.05


class TestDatabaseFacade:
    def _db(self, **kwargs):
        db = Database(num_partitions=3, **kwargs)
        db.create_type("T", [("id", "int"), ("k", "float")])
        db.create_dataset("L", "T", "id")
        db.create_dataset("R", "T", "id")
        db.load("L", [{"id": i, "k": float(i % 7)} for i in range(20)])
        db.load("R", [{"id": i, "k": float(i % 5) + 0.2} for i in range(20)])
        db.create_join("band_join", BandJoin, defaults=(1.0, 4))
        return db

    SQL = ("SELECT l.id, r.id FROM L l, R r "
           "WHERE band_join(l.k, r.k)")

    def test_instance_fault_plan_applies(self):
        db = self._db(fault_plan=FaultPlan(seed=3, crash_rate=0.3))
        result = db.execute(self.SQL)
        assert result.metrics.tasks_retried > 0

    def test_spec_string_accepted(self):
        db = self._db(fault_plan="3:0.3")
        assert isinstance(db.fault_plan, FaultPlan)
        assert db.execute(self.SQL).metrics.tasks_retried > 0

    def test_assigning_none_disables(self):
        db = self._db(fault_plan=FaultPlan(seed=3, crash_rate=0.3))
        db.fault_plan = None
        assert db.execute(self.SQL).metrics.tasks_retried == 0

    def test_results_match_fault_free(self):
        db = self._db()
        clean = db.execute(self.SQL)
        db.fault_plan = FaultPlan(seed=5, crash_rate=0.25, straggler_rate=0.2,
                                  exchange_failure_rate=0.2)
        faulty = db.execute(self.SQL)
        assert row_set(clean) == row_set(faulty)

    def test_query_timeout_parameter(self):
        db = self._db(query_timeout=1e-9)
        with pytest.raises(QueryTimeoutError):
            db.execute(self.SQL)
        db.query_timeout = None
        assert len(db.execute(self.SQL)) >= 0
        # With a caller's token too, the earlier of the two budgets wins,
        # and a passed deadline does not flip the token's latch.
        for token_budget, query_timeout in ((60.0, 1e-9), (1e-9, 60.0)):
            db.query_timeout = query_timeout
            token = CancellationToken(token_budget)
            with pytest.raises(QueryTimeoutError) as excinfo:
                db.execute(self.SQL, cancel=token)
            assert excinfo.value.limit_seconds == 1e-9
            assert not token.cancelled

    def test_query_timeout_stops_between_two_callbacks(self):
        """The budget is checked before every guarded callback, not only
        at task boundaries: a COMBINE whose ``verify`` sleeps 3 ms stops
        after the calls that fit in 50 ms, where one task here makes ~90
        (272 in all)."""
        calls = []

        class SlowVerify(BandJoin):
            name = "slow_verify"

            def verify(self, key1, key2, pplan):
                calls.append(1)
                time.sleep(0.003)
                return super().verify(key1, key2, pplan)

        # Serial, so the calls are made (and counted) in this process.
        db = self._db(backend="serial")
        db.create_join("slow_verify", SlowVerify, defaults=(1.0, 4))
        db.query_timeout = 0.05
        with pytest.raises(QueryTimeoutError):
            db.execute(self.SQL.replace("band_join", "slow_verify"))
        # Call n starts 3 (n - 1) ms or more after execute() began.
        assert 0 < len(calls) <= 0.05 / 0.003 + 1, len(calls)

    def test_bad_policy_rejected(self):
        self._assignment_rejected_like_constructor("on_error", "explode")

    def _assignment_rejected_like_constructor(self, name, value):
        """Assigning ``value`` raises the constructor's PlanError, and
        the setting keeps its previous value."""
        from repro.errors import PlanError

        with pytest.raises(PlanError) as built:
            Database(**{name: value})
        db = self._db()
        before = getattr(db, name)
        with pytest.raises(PlanError) as assigned:
            setattr(db, name, value)
        assert str(assigned.value) == str(built.value)
        assert getattr(db, name) == before

    def test_assigned_spec_string_becomes_a_fault_plan(self):
        db = self._db()
        db.fault_plan = "7:0.05"
        assert db.fault_plan == FaultPlan.parse("7:0.05")
        assert len(db.execute(self.SQL)) > 0

    def test_bad_fault_plan_rejected(self):
        self._assignment_rejected_like_constructor("fault_plan", 7)

    @pytest.mark.parametrize("timeout", ["5", -1, 0, float("nan"), True])
    def test_bad_query_timeout_rejected(self, timeout):
        self._assignment_rejected_like_constructor("query_timeout", timeout)

    def test_explain_analyze_reports_fault_counters(self):
        db = self._db(fault_plan=FaultPlan(seed=3, crash_rate=0.3))
        result = db.execute("EXPLAIN ANALYZE " + self.SQL)
        text = "\n".join(row["plan"] for row in result.rows)
        assert "fault tolerance:" in text
        assert "task retries" in text

    def test_explain_analyze_zero_counters_with_plan_active(self):
        db = self._db(fault_plan=FaultPlan(seed=3))  # checkpoint only
        result = db.execute("EXPLAIN ANALYZE " + self.SQL)
        text = "\n".join(row["plan"] for row in result.rows)
        assert "fault tolerance: 0 task retries" in text


class TestShellIntegration:
    def _shell(self, fault_plan=None):
        from repro.cli import Shell

        lines = []
        shell = Shell(db=Database(num_partitions=3, fault_plan=fault_plan),
                      write=lines.append)
        return shell, lines

    def test_faults_dot_command_round_trip(self):
        shell, lines = self._shell()
        shell.feed(".faults 7:0.1")
        assert shell.db.fault_plan == FaultPlan.parse("7:0.1")
        shell.feed(".faults show")
        assert any("seed=7" in str(line) for line in lines)
        shell.feed(".faults off")
        assert shell.db.fault_plan is None

    def test_faults_bad_spec_reports_error(self):
        shell, lines = self._shell()
        shell.feed(".faults bogus")
        assert any("error" in str(line) for line in lines)
        assert shell.db.fault_plan is None

    def test_onerror_dot_command(self):
        shell, lines = self._shell()
        shell.feed(".onerror quarantine")
        assert shell.db.on_error == "quarantine"
        shell.feed(".onerror bogus")
        assert any("usage" in str(line) for line in lines)

    def test_inject_faults_cli_flag(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "s.sql"
        script.write_text("CREATE TYPE T { id: int };\n")
        assert main(["--inject-faults", "5:0.1", str(script)]) == 0
        out = capsys.readouterr().out
        assert "fault injection active" in out

    def test_inject_faults_flag_rejects_garbage(self, capsys):
        from repro.cli import main

        assert main(["--inject-faults", "zzz"]) == 1

    def test_demo_preserves_fault_posture(self):
        shell, _ = self._shell(fault_plan=FaultPlan.parse("7:0.1"))
        shell._load_demo("interval")
        assert shell.db.fault_plan == FaultPlan.parse("7:0.1")
