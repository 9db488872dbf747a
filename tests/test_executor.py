"""Tests for the executor, execution context, and QueryResult."""

import pytest

from repro.engine import Cluster, Schema
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, execute_plan
from repro.engine.metrics import QueryMetrics
from repro.engine.operators import Scan


def make_cluster():
    cluster = Cluster(num_partitions=3)
    ds = cluster.create_dataset("T", Schema(["id", "v"]), "id")
    ds.bulk_load({"id": i, "v": i * 10} for i in range(12))
    return cluster


class TestExecutePlan:
    def test_rows_are_plain_dicts(self):
        result = execute_plan(Scan("T", "t"), make_cluster())
        assert all(isinstance(row, dict) for row in result.rows)
        assert all(isinstance(row["t.v"], int) for row in result.rows)

    def test_wall_time_recorded(self):
        result = execute_plan(Scan("T", "t"), make_cluster())
        assert result.metrics.wall_seconds > 0

    def test_output_records_counted(self):
        result = execute_plan(Scan("T", "t"), make_cluster())
        assert result.metrics.output_records == 12

    def test_schema_is_tuple(self):
        result = execute_plan(Scan("T", "t"), make_cluster())
        assert result.schema == ("t.id", "t.v")


class TestQueryResult:
    def _result(self):
        return QueryResult(
            [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}],
            ("a", "b"),
            QueryMetrics(),
        )

    def test_len_and_iter(self):
        result = self._result()
        assert len(result) == 2
        assert [row["a"] for row in result] == [1, 2]

    def test_column(self):
        assert self._result().column("b") == ["x", "y"]

    def test_column_missing_field_raises(self):
        with pytest.raises(KeyError):
            self._result().column("nope")


class TestExecutionContext:
    def test_defaults(self):
        cluster = make_cluster()
        ctx = ExecutionContext(cluster)
        assert ctx.num_partitions == 3
        assert ctx.cost_model is cluster.cost_model

    def test_finish_folds_translator_counts(self):
        ctx = ExecutionContext(make_cluster())
        ctx.translator.to_external(1)
        ctx.translator.to_internal(2)
        metrics = ctx.finish()
        assert metrics.translation_conversions == 2

    def test_custom_metrics_object(self):
        metrics = QueryMetrics()
        ctx = ExecutionContext(make_cluster(), metrics=metrics)
        assert ctx.metrics is metrics
