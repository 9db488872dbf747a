"""Fault-tolerance ablation: checkpoint overhead, fault-rate sweep, policies.

Three experiments over the Figure 9 workloads:

1. *Checkpoint overhead* — with a fault plan active but every rate at
   zero, the only cost is spooling exchange outputs.  Target: <= 5% of
   the fault-free simulated makespan.
2. *Makespan vs fault rate* — crashes + stragglers + transient exchange
   failures at increasing rates.  Recovery replays single tasks from the
   exchange checkpoints, so makespan should degrade gracefully (not
   multiply) while results stay byte-identical.
3. *Degraded-mode policies* — a poison FUDJ callback under ``fail`` /
   ``skip`` / ``quarantine``: fail aborts, skip and quarantine complete
   with the poison records dropped and (for quarantine) reported.

Shape targets:
- checkpoint-only overhead <= 5% on every workload;
- rows identical at every fault rate, with monotonically nonzero
  retry counters once rates are nonzero;
- quarantine keeps a per-phase error report, skip does not.
"""

import pytest

from repro import FaultPlan
from repro.bench import (
    INTERVAL_SQL,
    SPATIAL_SQL,
    TEXT_SQL,
    format_table,
    interval_database,
    spatial_database,
    text_database,
)
from repro.bench.harness import run_query
from repro.errors import FudjCallbackError

CORES = 12

WORKLOADS = (
    ("spatial", lambda: spatial_database(400, 6000, partitions=8, grid_n=32,
                                         seed=7), SPATIAL_SQL),
    ("interval", lambda: interval_database(3000, partitions=8, num_buckets=200,
                                           seed=7), INTERVAL_SQL),
    ("text", lambda: text_database(2000, partitions=8, seed=7),
     TEXT_SQL.format(threshold=0.9)),
)


def run_with_plan(make_db, sql, plan):
    db = make_db()
    db.fault_plan = plan
    return run_query(db, sql, "fudj", cores=(CORES,))


def row_key_set(result):
    return sorted(tuple(sorted(row.items())) for row in result.rows)


class TestCheckpointOverhead:
    """Experiment 1: what does write-behind checkpointing cost alone?"""

    def test_overhead_within_five_percent(self, report, benchmark):
        rows = []
        for name, make_db, sql in WORKLOADS:
            clean = run_with_plan(make_db, sql, None)
            ckpt = run_with_plan(make_db, sql, FaultPlan(seed=1))
            metrics = ckpt["result"].metrics
            assert metrics.tasks_retried == 0  # rates are zero
            overhead = ckpt[f"sim_{CORES}c"] / clean[f"sim_{CORES}c"] - 1.0
            rows.append([
                name, clean[f"sim_{CORES}c"], ckpt[f"sim_{CORES}c"],
                f"{overhead * 100:.2f}%",
                f"{metrics.checkpoint_bytes / 1024:.0f} KiB",
            ])
            assert 0.0 <= overhead <= 0.05
        report("fault_checkpoint_overhead", format_table(
            ["workload", "no ckpt sim s", "ckpt sim s", "overhead",
             "spooled"],
            rows,
            title="Fault tolerance ablation 1: checkpointing overhead "
                  "at 0% fault rates",
        ))
        benchmark(lambda: run_with_plan(*WORKLOADS[0][1:], FaultPlan(seed=1)))


class TestMakespanVsFaultRate:
    """Experiment 2: graceful degradation as fault rates climb."""

    RATES = (0.0, 0.05, 0.1, 0.2)
    #: The default 50 ms backoff is sized for real clusters; these bench
    #: queries finish in ~20 ms of simulated time, so waiting would
    #: drown the signal.  Scale the backoff to the workload, as an
    #: operator tuning retry policy for short interactive queries would.
    BACKOFF = dict(backoff_base_seconds=0.001, backoff_cap_seconds=0.01)

    def test_sweep(self, report, benchmark):
        from repro.bench.ascii_chart import series_chart

        rows = []
        series = {}
        for name, make_db, sql in WORKLOADS:
            baseline = run_with_plan(make_db, sql, None)
            expected = row_key_set(baseline["result"])
            points = []
            for rate in self.RATES:
                plan = FaultPlan(seed=13, crash_rate=rate,
                                 straggler_rate=rate,
                                 exchange_failure_rate=rate, **self.BACKOFF)
                measured = run_with_plan(make_db, sql, plan)
                metrics = measured["result"].metrics
                assert row_key_set(measured["result"]) == expected
                if rate > 0.0:
                    assert (metrics.tasks_retried + metrics.exchange_retries
                            + metrics.stragglers_detected) > 0
                    assert metrics.recovery_seconds > 0.0
                slowdown = measured[f"sim_{CORES}c"] / baseline[f"sim_{CORES}c"]
                points.append(measured[f"sim_{CORES}c"])
                rows.append([
                    name, f"{rate:.0%}", measured[f"sim_{CORES}c"],
                    f"{slowdown:.2f}x", metrics.tasks_retried,
                    metrics.exchange_retries, metrics.stragglers_detected,
                    f"{metrics.recovery_seconds * 1000:.1f} ms",
                ])
                # Recovery replays tasks, not the whole plan: even at 20%
                # rates the makespan must stay within one order of
                # magnitude of fault-free.
                assert slowdown < 10.0
            series[name] = points
        table = format_table(
            ["workload", "fault rate", f"sim s ({CORES} cores)", "slowdown",
             "task retries", "exch retries", "stragglers", "recovery"],
            rows,
            title="Fault tolerance ablation 2: makespan vs fault rate "
                  "(identical results at every point)",
        )
        chart = series_chart(
            [int(r * 100) for r in self.RATES], series,
            x_label="fault rate %", y_label="sim s",
            title="shape: graceful degradation, no cliff",
        )
        report("fault_rate_sweep", table + "\n\n" + chart)
        benchmark(lambda: run_with_plan(
            *WORKLOADS[0][1:],
            FaultPlan(seed=13, crash_rate=0.1, straggler_rate=0.1,
                      exchange_failure_rate=0.1, **self.BACKOFF),
        ))


class TestDegradedModePolicies:
    """Experiment 3: fail vs skip vs quarantine on a poison callback."""

    def test_policy_matrix(self, report, benchmark):
        from repro.joins.spatial import SpatialContainsJoin

        class PoisonSpatial(SpatialContainsJoin):
            """Every ~20th verify pair raises, like a corrupt geometry."""

            def verify(self, key1, key2, pplan):
                if (hash(key2) % 20) == 0:
                    raise ValueError("corrupt geometry")
                return super().verify(key1, key2, pplan)

        def make_db():
            db = spatial_database(120, 1500, partitions=8, grid_n=32, seed=7)
            db.drop_join("st_contains")
            db.create_join("st_contains", PoisonSpatial, defaults=(32,))
            return db

        clean = run_query(
            spatial_database(120, 1500, partitions=8, grid_n=32, seed=7),
            SPATIAL_SQL, "fudj", cores=(CORES,))

        rows = []
        with pytest.raises(FudjCallbackError):
            db = make_db()
            db.execute(SPATIAL_SQL, mode="fudj")
        rows.append(["fail", "aborted", "-", "-"])

        for policy in ("skip", "quarantine"):
            db = make_db()
            db.on_error = policy
            measured = run_query(db, SPATIAL_SQL, "fudj", cores=(CORES,))
            metrics = measured["result"].metrics
            assert metrics.records_quarantined > 0
            assert measured["result_rows"] <= clean["result_rows"]
            if policy == "quarantine":
                assert "verify" in metrics.quarantine_report()
            else:
                assert metrics.quarantine_log == []
            rows.append([
                policy, measured["result_rows"], metrics.records_quarantined,
                "per-phase report" if policy == "quarantine" else "counter only",
            ])
        report("fault_degraded_modes", format_table(
            ["on_error", "result rows", "quarantined", "reporting"],
            rows,
            title="Fault tolerance ablation 3: degraded-mode policies on a "
                  f"poison verify callback (clean rows: {clean['result_rows']})",
        ))
        benchmark(lambda: None)
