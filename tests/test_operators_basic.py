"""Unit tests for scan/filter/project/map/limit operators."""

import pytest

from repro.engine import Cluster, Schema
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan
from repro.engine.operators import (
    AvgAgg,
    CountAgg,
    CountDistinctAgg,
    Filter,
    FudjJoin,
    GroupBy,
    Limit,
    MapColumns,
    MaxAgg,
    Project,
    ScalarAggregate,
    Scan,
    SumAgg,
    Values,
)
from repro.query.ast import Arithmetic, Column, Comparison, FunctionCall, Literal
from repro.serde.values import unbox
from tests.helpers import BandJoin


def make_cluster(rows, partitions=4):
    cluster = Cluster(num_partitions=partitions)
    ds = cluster.create_dataset("t", Schema(["id", "value"]), "id")
    ds.bulk_load(rows)
    return cluster


ROWS = [{"id": i, "value": i * 10} for i in range(20)]


class TestScan:
    def test_qualifies_fields(self):
        cluster = make_cluster(ROWS)
        result = execute_plan(Scan("t", "a"), cluster)
        assert result.schema == ("a.id", "a.value")
        assert len(result) == 20

    def test_alias_defaults_to_dataset_name(self):
        cluster = make_cluster(ROWS)
        result = execute_plan(Scan("t"), cluster)
        assert result.schema == ("t.id", "t.value")

    def test_missing_dataset(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            execute_plan(Scan("nope"), Cluster())

    def test_partition_count_normalized(self):
        # Dataset with 2 partitions scanned in an 8-partition context.
        cluster = Cluster(num_partitions=8)
        small = cluster.create_dataset("t", Schema(["id"]), "id")
        small.partitions = small.partitions[:2]
        small.bulk_load({"id": i} for i in range(10))
        ctx = ExecutionContext(cluster)
        out = Scan("t").execute(ctx)
        assert len(out.partitions) == 8
        assert sum(len(p) for p in out.partitions) == 10


class TestValues:
    def test_rows_distributed(self):
        schema = Schema(["x"])
        op = Values(schema, [{"x": i} for i in range(10)])
        result = execute_plan(op, Cluster(num_partitions=3))
        assert len(result) == 10


class TestFilter:
    def test_keeps_matching(self):
        cluster = make_cluster(ROWS)
        plan = Filter(Scan("t", "a"), lambda r: unbox(r["a.id"]) < 5)
        result = execute_plan(plan, cluster)
        assert sorted(row["a.id"] for row in result.rows) == [0, 1, 2, 3, 4]

    def test_charges_cost_per_input_record(self):
        cluster = make_cluster(ROWS)
        op = Filter(Scan("t", "a"), lambda r: True, cost_units=7.0)
        ctx = ExecutionContext(cluster)
        op.execute(ctx)
        assert ctx.metrics.stage(op.stage_name).total_units() == 20 * 7.0

    def test_empty_result(self):
        cluster = make_cluster(ROWS)
        plan = Filter(Scan("t", "a"), lambda r: False)
        assert len(execute_plan(plan, cluster)) == 0


class TestProject:
    def test_column_pruning(self):
        cluster = make_cluster(ROWS)
        plan = Project(Scan("t", "a"), ["a.value"])
        result = execute_plan(plan, cluster)
        assert result.schema == ("a.value",)
        assert all(set(row) == {"a.value"} for row in result.rows)

    def test_reordering(self):
        cluster = make_cluster(ROWS)
        plan = Project(Scan("t", "a"), ["a.value", "a.id"])
        result = execute_plan(plan, cluster)
        assert result.schema == ("a.value", "a.id")


class TestMapColumns:
    def test_computed_columns(self):
        cluster = make_cluster(ROWS)
        plan = MapColumns(
            Scan("t", "a"),
            [("doubled", lambda r: unbox(r["a.id"]) * 2, 1.0)],
        )
        result = execute_plan(plan, cluster)
        assert sorted(result.column("doubled")) == [i * 2 for i in range(20)]


class TestLimit:
    def test_cuts_results(self):
        cluster = make_cluster(ROWS)
        result = execute_plan(Limit(Scan("t", "a"), 7), cluster)
        assert len(result) == 7

    def test_limit_zero(self):
        cluster = make_cluster(ROWS)
        assert len(execute_plan(Limit(Scan("t", "a"), 0), cluster)) == 0

    def test_limit_larger_than_input(self):
        cluster = make_cluster(ROWS)
        assert len(execute_plan(Limit(Scan("t", "a"), 100), cluster)) == 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Limit(Scan("t"), -1)


class TestExplain:
    def test_tree_rendering(self):
        plan = Limit(Filter(Scan("t", "a"), lambda r: True, description="x"), 5)
        text = plan.explain()
        assert "LIMIT 5" in text
        assert "FILTER x" in text
        assert "SCAN t AS a" in text
        # Children are indented under parents.
        lines = text.splitlines()
        assert lines[0].startswith("LIMIT")
        assert lines[1].startswith("  FILTER")


def _plain(expr):
    """``expr`` as a hand-built plan would pass it: a function of the
    record, which the operator cannot compile."""
    return lambda record: expr.evaluate(record)


def _adapter_plans(wrap):
    """One plan per operator that takes a row function, its expressions
    passed through ``wrap``."""
    value, ident = Column("a.value"), Column("a.id")
    small = Comparison("<", ident, Literal(12))
    bucket = Arithmetic("-", ident, Arithmetic("*", Literal(3), FunctionCall(
        "floor_third", [ident], fn=lambda i: i // 3)))
    return {
        "filter": Filter(Scan("t", "a"), wrap(small)),
        "map": MapColumns(Scan("t", "a"), [
            ("v", wrap(value), 1.0),
            ("w", wrap(Arithmetic("+", value, ident)), 1.0)]),
        "group-by": GroupBy(
            Filter(Scan("t", "a"), wrap(small)), [("b", wrap(bucket))],
            [CountAgg("n"), SumAgg("s", wrap(value)),
             CountDistinctAgg("d", wrap(bucket))]),
        "scalar-aggregate": ScalarAggregate(
            Scan("t", "a"), [AvgAgg("avg", wrap(value)),
                             MaxAgg("max", wrap(ident))]),
        "fudj-join": FudjJoin(
            Filter(Scan("t", "a"), wrap(small)), Scan("t", "b"),
            BandJoin(15.0, 4), wrap(value), wrap(Column("b.value"))),
    }


class TestPlainCallablesThroughTheAdapter:
    """The planner hands these operators bound expressions, which they
    compile against their input's schema; a ``callable(record)`` must
    keep working, through ``row_function``'s record adapter."""

    @pytest.mark.parametrize("execution", ["row", "batch"])
    @pytest.mark.parametrize("operator", sorted(_adapter_plans(_plain)))
    def test_same_rows_and_units_as_the_bound_expression(
            self, operator, execution):
        cluster = make_cluster(ROWS)
        want = execute_plan(_adapter_plans(lambda expr: expr)[operator],
                            cluster, execution=execution)
        got = execute_plan(_adapter_plans(_plain)[operator], cluster,
                           execution=execution)
        assert want.rows, "nothing was compared"
        assert got.rows == want.rows
        assert got.metrics.total_cpu_units() == want.metrics.total_cpu_units()
