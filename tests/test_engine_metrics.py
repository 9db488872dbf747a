"""Unit tests for cost model and query metrics."""

import pytest

from repro.engine import CostModel, QueryMetrics


class TestCostModel:
    def test_cpu_seconds(self):
        model = CostModel(core_ops_per_second=100.0)
        assert model.cpu_seconds(50.0) == 0.5

    def test_network_seconds(self):
        model = CostModel(network_bytes_per_second=1000.0)
        assert model.network_seconds(500.0) == 0.5

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().record_touch = 99


class TestStageAccounting:
    def test_charge_accumulates(self):
        metrics = QueryMetrics()
        stage = metrics.stage("s")
        stage.charge(0, 10.0)
        stage.charge(0, 5.0)
        stage.charge(1, 3.0)
        assert stage.worker_units == {0: 15.0, 1: 3.0}
        assert stage.total_units() == 18.0

    def test_stage_is_memoized(self):
        metrics = QueryMetrics()
        assert metrics.stage("x") is metrics.stage("x")
        assert len(metrics.stages) == 1

    def test_makespan_single_core(self):
        metrics = QueryMetrics()
        stage = metrics.stage("s")
        for worker in range(4):
            stage.charge(worker, 10.0)
        assert stage.makespan_units(1) == 40.0

    def test_makespan_enough_cores(self):
        metrics = QueryMetrics()
        stage = metrics.stage("s")
        for worker in range(4):
            stage.charge(worker, 10.0)
        assert stage.makespan_units(4) == 10.0
        assert stage.makespan_units(100) == 10.0

    def test_makespan_skewed_worker_dominates(self):
        metrics = QueryMetrics()
        stage = metrics.stage("s")
        stage.charge(0, 100.0)
        stage.charge(1, 1.0)
        stage.charge(2, 1.0)
        assert stage.makespan_units(3) == 100.0

    def test_makespan_lpt_balances(self):
        metrics = QueryMetrics()
        stage = metrics.stage("s")
        for worker, units in enumerate([8, 7, 6, 5, 4]):
            stage.charge(worker, units)
        # LPT on 2 cores: {8, 6, 4}=18 wait... LPT assigns 8|7, 6->7side=13?
        # 8,7,6,5,4 on 2 cores: 8; 7; 6->7(13); 5->8(13); 4->13? both 13 ->
        # one reaches 17. Optimal 15. LPT gives <= 4/3 OPT.
        makespan = stage.makespan_units(2)
        assert 15.0 <= makespan <= 20.0

    def test_empty_stage(self):
        metrics = QueryMetrics()
        assert metrics.stage("s").makespan_units(4) == 0.0


class TestSimulatedSeconds:
    def test_more_cores_never_slower(self):
        metrics = QueryMetrics()
        stage = metrics.stage("s")
        for worker in range(16):
            stage.charge(worker, float(worker + 1))
        times = [metrics.simulated_seconds(c) for c in (1, 2, 4, 8, 16)]
        assert times == sorted(times, reverse=True)

    def test_network_drains_through_participating_nics(self):
        # Bytes of a stage with 4 participating workers drain through at
        # most 4 NICs, no matter how many cores exist.
        metrics = QueryMetrics()
        stage = metrics.stage("x")
        stage.network_bytes = 1e6
        for worker in range(4):
            stage.charge(worker, 0.0)
        assert metrics.simulated_seconds(4) == metrics.simulated_seconds(64)
        assert metrics.simulated_seconds(1) > metrics.simulated_seconds(4)

    def test_network_stage_without_cpu_uses_all_cores(self):
        metrics = QueryMetrics()
        metrics.stage("x").network_bytes = 1e6
        assert metrics.simulated_seconds(64) < metrics.simulated_seconds(1)

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            QueryMetrics().simulated_seconds(0)

    def test_stages_are_sequential(self):
        metrics = QueryMetrics()
        metrics.stage("a").charge(0, 100.0)
        metrics.stage("b").charge(0, 100.0)
        single = QueryMetrics()
        single.stage("a").charge(0, 200.0)
        assert metrics.simulated_seconds(4) == single.simulated_seconds(4)

    def test_summary_keys(self):
        metrics = QueryMetrics()
        summary = metrics.to_dict()
        for key in ("wall_seconds", "cpu_units", "network_bytes",
                    "comparisons", "output_records", "stages"):
            assert key in summary
