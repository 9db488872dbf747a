"""Leaf operators: dataset scans and literal value sources."""

from __future__ import annotations

from repro.engine.batch import BatchResult, batches_from_rows
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import (
    OperatorResult,
    PhysicalOperator,
    StreamingOperator,
)
from repro.engine.record import Record, Schema


class Scan(StreamingOperator):
    """Scan a stored dataset, qualifying fields with the query alias.

    ``Parks p`` produces fields ``p.id``, ``p.boundary``, ... so that later
    expressions can reference either side of a join unambiguously.
    """

    label = "scan"

    def __init__(self, dataset_name: str, alias: str = None) -> None:
        super().__init__()
        self.dataset_name = dataset_name
        self.alias = alias or dataset_name

    def describe(self) -> str:
        return f"SCAN {self.dataset_name} AS {self.alias}"

    def run_rows(self, ctx: ExecutionContext) -> tuple:
        dataset = ctx.cluster.dataset(self.dataset_name)
        schema = dataset.schema.qualify(self.alias)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        partitions = []
        for worker, partition in enumerate(dataset.partitions):
            ctx.metrics.operator_invocations += len(partition)
            # The stored values under the query's field names: a scanned
            # row shares its tuple with the dataset's record.
            out = [record.values for record in partition]
            stage.charge(worker, len(out) * model.record_touch)
            partitions.append(out)
        stage.records_in = stage.records_out = sum(len(p) for p in partitions)
        # A dataset may have fewer/more partitions than the query context;
        # normalise to the cluster's partition count.
        return schema, _normalize(partitions, ctx.num_partitions)

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        dataset = ctx.cluster.dataset(self.dataset_name)
        schema = dataset.schema.qualify(self.alias)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        worker_batches = []
        total = 0
        for worker, partition in enumerate(dataset.partitions):
            batches = batches_from_rows(
                ctx, schema, [record.values for record in partition]
            )
            ctx.metrics.operator_invocations += len(batches)
            stage.charge(worker, len(partition) * model.record_touch)
            total += len(partition)
            worker_batches.append(batches)
        stage.records_in = stage.records_out = total
        # The same partition-level round robin as the row path, on batch
        # lists — row order per worker comes out identical.
        worker_batches = _normalize(worker_batches, ctx.num_partitions)
        return BatchResult(worker_batches, schema)


class Values(PhysicalOperator):
    """A literal in-memory source (used by tests and the standalone path)."""

    label = "values"

    def __init__(self, schema: Schema, rows) -> None:
        super().__init__()
        self.schema = schema
        self.records = [
            row if isinstance(row, Record) else Record.from_dict(schema, row)
            for row in rows
        ]

    def describe(self) -> str:
        return f"VALUES ({len(self.records)} rows)"

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        partitions = [[] for _ in range(ctx.num_partitions)]
        for i, record in enumerate(self.records):
            partitions[i % ctx.num_partitions].append(record)
        ctx.metrics.operator_invocations += len(self.records)
        stage = ctx.metrics.stage(self.stage_name)
        stage.records_in = stage.records_out = len(self.records)
        return OperatorResult(partitions, self.schema)

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        rows_per_worker = [[] for _ in range(ctx.num_partitions)]
        for i, record in enumerate(self.records):
            rows_per_worker[i % ctx.num_partitions].append(record.values)
        worker_batches = [
            batches_from_rows(ctx, self.schema, rows)
            for rows in rows_per_worker
        ]
        ctx.metrics.operator_invocations += sum(
            len(batches) for batches in worker_batches
        )
        stage = ctx.metrics.stage(self.stage_name)
        stage.records_in = stage.records_out = len(self.records)
        return BatchResult(worker_batches, self.schema)


def _normalize(partitions: list, target: int) -> list:
    """Redistribute partition lists to exactly ``target`` partitions."""
    if len(partitions) == target:
        return partitions
    out = [[] for _ in range(target)]
    for i, partition in enumerate(partitions):
        out[i % target].extend(partition)
    return out
