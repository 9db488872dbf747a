"""Failure injection: broken FUDJ libraries must fail with phase context.

A developer debugging a join library should see which phase the engine
was in (summarize / divide / assign / verify ...) — not a raw traceback
from deep inside an operator.  With a degraded-mode policy
(``on_error="skip"``/``"quarantine"``) the same poison records are
dropped and reported instead of aborting the query.
"""

import pytest

from repro.engine.operators.fudj_join import FudjCallbackError
from repro.errors import ExecutionError
from tests.helpers import BandJoin


def run_with(join, on_error="fail", fault_plan=None):
    from repro.engine import Cluster, Schema
    from repro.engine.executor import execute_plan
    from repro.engine.operators import FudjJoin, Scan
    from repro.serde.values import unbox

    cluster = Cluster(num_partitions=3)
    left = cluster.create_dataset("L", Schema(["id", "k"]), "id")
    left.bulk_load({"id": i, "k": float(i)} for i in range(10))
    right = cluster.create_dataset("R", Schema(["id", "k"]), "id")
    right.bulk_load({"id": i, "k": float(i) + 0.4} for i in range(10))
    op = FudjJoin(
        Scan("L", "l"), Scan("R", "r"), join,
        lambda r: unbox(r["l.k"]), lambda r: unbox(r["r.k"]),
    )
    return execute_plan(op, cluster, on_error=on_error, fault_plan=fault_plan)


class TestBrokenCallbacks:
    def test_failing_summarize(self):
        class Broken(BandJoin):
            def local_aggregate(self, key, summary, side):
                raise RuntimeError("boom")

        with pytest.raises(FudjCallbackError, match="local_aggregate"):
            run_with(Broken(1.0, 4))

    def test_failing_global_aggregate(self):
        class Broken(BandJoin):
            def global_aggregate(self, s1, s2, side):
                raise ValueError("cannot merge")

        with pytest.raises(FudjCallbackError, match="global_aggregate"):
            run_with(Broken(1.0, 4))

    def test_failing_divide(self):
        class Broken(BandJoin):
            def divide(self, s1, s2):
                raise KeyError("no plan")

        with pytest.raises(FudjCallbackError, match="divide"):
            run_with(Broken(1.0, 4))

    def test_failing_assign(self):
        class Broken(BandJoin):
            def assign(self, key, pplan, side):
                raise IndexError("out of buckets")

        with pytest.raises(FudjCallbackError, match="assign"):
            run_with(Broken(1.0, 4))

    def test_assign_returning_non_int_buckets(self):
        class Broken(BandJoin):
            def assign(self, key, pplan, side):
                return ["bucket-one"]

        with pytest.raises(FudjCallbackError, match="bucket ids must be ints"):
            run_with(Broken(1.0, 4))

    def test_error_carries_context(self):
        class Broken(BandJoin):
            name = "my-broken-join"

            def divide(self, s1, s2):
                raise RuntimeError("original message")

        with pytest.raises(FudjCallbackError) as excinfo:
            run_with(Broken(1.0, 4))
        error = excinfo.value
        assert error.join_name == "my-broken-join"
        assert error.phase == "divide"
        assert isinstance(error.original, RuntimeError)
        assert "original message" in str(error)

    def test_callback_error_is_an_execution_error(self):
        class Broken(BandJoin):
            def divide(self, s1, s2):
                raise RuntimeError

        with pytest.raises(ExecutionError):
            run_with(Broken(1.0, 4))

    def test_healthy_join_unaffected(self):
        result = run_with(BandJoin(1.0, 4))
        assert len(result) > 0


class TestErrorHierarchy:
    def test_importable_from_errors_module(self):
        from repro import errors

        assert errors.FudjCallbackError is FudjCallbackError

    def test_old_import_path_still_works(self):
        from repro.engine.operators.fudj_join import (
            FudjCallbackError as from_operator,
        )
        from repro.errors import FudjCallbackError as from_errors

        assert from_operator is from_errors


class _PoisonVerify(BandJoin):
    """Raises on one specific key pair; everything else is healthy."""

    def verify(self, key1, key2, pplan):
        if key1 == 3.0:
            raise ValueError("poison pair")
        return super().verify(key1, key2, pplan)


class _PoisonAssign(BandJoin):
    """One poison record on each side (key 3.0 / 3.4)."""

    def assign(self, key, pplan, side):
        if int(key) == 3:
            raise ValueError("poison record")
        return super().assign(key, pplan, side)


class TestDegradedMode:
    def test_skip_drops_poison_assign_records(self):
        clean = run_with(BandJoin(1.0, 4))
        degraded = run_with(_PoisonAssign(1.0, 4), on_error="skip")
        assert 0 < len(degraded) < len(clean)
        metrics = degraded.metrics
        assert metrics.records_quarantined == 2  # one per side
        assert metrics.quarantine_log == []  # skip keeps no report

    def test_skip_only_loses_rows_touching_poison(self):
        clean = run_with(BandJoin(1.0, 4))
        degraded = run_with(_PoisonAssign(1.0, 4), on_error="skip")
        survivors = {
            (row["l.id"], row["r.id"]) for row in degraded.rows
        }
        expected = {
            (row["l.id"], row["r.id"]) for row in clean.rows
            if row["l.id"] != 3 and row["r.id"] != 3
        }
        assert survivors == expected

    def test_quarantine_keeps_a_per_phase_report(self):
        degraded = run_with(_PoisonAssign(1.0, 4), on_error="quarantine")
        metrics = degraded.metrics
        assert metrics.records_quarantined == 2
        report = metrics.quarantine_report()
        assert set(report) == {"assign"}
        assert report["assign"]["count"] == 2
        assert any("poison record" in err for err in report["assign"]["errors"])

    def test_quarantined_verify_pair_treated_as_non_match(self):
        clean = run_with(BandJoin(1.0, 4))
        degraded = run_with(_PoisonVerify(1.0, 4), on_error="quarantine")
        assert len(degraded) < len(clean)
        assert degraded.metrics.records_quarantined > 0
        assert "verify" in degraded.metrics.quarantine_report()

    def test_fail_policy_still_aborts(self):
        with pytest.raises(FudjCallbackError, match="assign"):
            run_with(_PoisonAssign(1.0, 4), on_error="fail")

    def test_divide_failure_ignores_policy(self):
        class Broken(BandJoin):
            def divide(self, s1, s2):
                raise RuntimeError("no plan survives this")

        class BrokenMerge(BandJoin):
            def global_aggregate(self, s1, s2, side):
                raise RuntimeError("no summary survives this")

        for broken, phase in ((Broken, "divide"),
                              (BrokenMerge, "global_aggregate")):
            for policy in ("skip", "quarantine"):
                with pytest.raises(FudjCallbackError, match=phase):
                    run_with(broken(1.0, 4), on_error=policy)

    def test_summarize_poison_skipped_without_changing_rows(self):
        # BandJoin's divide only needs the min/max envelope, so skipping
        # one record from the summary must not change the join result.
        class PoisonSummary(BandJoin):
            def local_aggregate(self, key, summary, side):
                if int(key) == 5:
                    raise ValueError("poison summary record")
                return super().local_aggregate(key, summary, side)

        clean = run_with(BandJoin(1.0, 4))
        degraded = run_with(PoisonSummary(1.0, 4), on_error="skip")
        assert sorted(map(sorted, (r.items() for r in degraded.rows))) == \
            sorted(map(sorted, (r.items() for r in clean.rows)))
        assert degraded.metrics.records_quarantined == 2  # one per side


class TestDegradedModeUnderFaults:
    def test_retries_do_not_double_count_quarantines(self):
        from repro.engine.faults import FaultPlan

        plan = FaultPlan(seed=11, crash_rate=0.3)
        clean = run_with(_PoisonAssign(1.0, 4), on_error="quarantine")
        faulty = run_with(_PoisonAssign(1.0, 4), on_error="quarantine",
                          fault_plan=plan)
        assert faulty.metrics.tasks_retried > 0
        assert faulty.metrics.records_quarantined == \
            clean.metrics.records_quarantined
