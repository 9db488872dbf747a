"""Property test: memory budgets never change query answers.

For every FUDJ join library in the benchmark suite (spatial contains,
interval overlap, text similarity), a run under an arbitrary per-worker
memory budget — small enough to force real spill-to-disk — must produce
rows byte-identical to the unbounded run, including when seeded fault
injection is recovering crashed tasks on top of the spilling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultPlan
from repro.bench import workloads


def rows_of(db, sql, budget, fault_seed):
    if budget is not None:
        db.set_memory_budget(budget)
    plan = (None if fault_seed is None else
            FaultPlan(seed=fault_seed, crash_rate=0.15, straggler_rate=0.1,
                      exchange_failure_rate=0.1))
    db.fault_plan = plan
    result = db.execute(sql)
    return [tuple(sorted(row.items())) for row in result.rows], result.metrics


BUDGETS = st.one_of(st.sampled_from([256, 512, 1024, 4096]),
                    st.integers(min_value=200, max_value=8192))
FAULT_SEEDS = st.one_of(st.none(), st.integers(min_value=0, max_value=999))


def check_workload(build, sql, budget, fault_seed):
    baseline, _ = rows_of(build(), sql, None, fault_seed)
    budgeted, metrics = rows_of(build(), sql, budget, fault_seed)
    assert budgeted == baseline
    return metrics


class TestBudgetInvariance:
    @settings(max_examples=8, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS)
    def test_spatial_join(self, budget, fault_seed):
        check_workload(lambda: workloads.spatial_database(25, 120),
                       workloads.SPATIAL_SQL, budget, fault_seed)

    @settings(max_examples=6, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS)
    def test_interval_join(self, budget, fault_seed):
        check_workload(lambda: workloads.interval_database(120),
                       workloads.INTERVAL_SQL, budget, fault_seed)

    @settings(max_examples=6, deadline=None)
    @given(budget=BUDGETS, fault_seed=FAULT_SEEDS)
    def test_text_join(self, budget, fault_seed):
        check_workload(lambda: workloads.text_database(80),
                       workloads.TEXT_SQL.format(threshold=0.9),
                       budget, fault_seed)

    def test_tight_budget_actually_spills(self):
        # Anchor for the property above: at 512 bytes/worker the spatial
        # workload demonstrably takes the spill path.
        metrics = check_workload(
            lambda: workloads.spatial_database(25, 120),
            workloads.SPATIAL_SQL, 512, None,
        )
        assert metrics.spill_files > 0
        assert metrics.spill_bytes > 0
