"""Tuple-at-a-time operators — filter, project, map, limit, distinct —
each with a vectorized ``run_batches`` twin charging identically."""

from __future__ import annotations

from operator import itemgetter

from repro.engine import kernels
from repro.engine.batch import BatchResult, as_worker_batches
from repro.engine.context import ExecutionContext
from repro.engine.exchange import hash_exchange, hash_exchange_batches
from repro.engine.operators.base import (
    OperatorResult,
    PhysicalOperator,
    StreamingOperator,
)
from repro.engine.record import Schema, row_function


class Filter(StreamingOperator):
    """Keep rows for which ``predicate`` is truthy.

    ``predicate`` is a bound expression (the planner's) or a plain
    ``callable(record)``; see :func:`~repro.engine.record.row_function`.
    ``cost_units`` is the work charged per evaluation; the planner sets it
    to the cost model's ``comparison`` for cheap predicates and
    ``expensive_predicate`` for heavy UDFs such as ``ST_Contains``.
    """

    label = "filter"

    def __init__(self, child: PhysicalOperator, predicate,
                 cost_units: float = None, description: str = "") -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate
        self.cost_units = cost_units
        self.description = description

    def describe(self) -> str:
        return f"FILTER {self.description}".rstrip()

    def children(self) -> list:
        return [self.child]

    def run_rows(self, ctx: ExecutionContext) -> tuple:
        schema, partitions = self.child.rows(ctx)
        stage = ctx.metrics.stage(self.stage_name)
        cost = self.cost_units if self.cost_units is not None else ctx.cost_model.comparison
        predicate = row_function(self.predicate, schema)
        out = []
        for worker, partition in enumerate(partitions):
            ctx.metrics.operator_invocations += len(partition)
            kept = list(filter(predicate, partition))
            stage.charge(worker, len(partition) * cost)
            ctx.metrics.comparisons += len(partition)
            out.append(kept)
        stage.records_in = sum(map(len, partitions))
        stage.records_out = sum(map(len, out))
        return schema, out

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        source = self.child.execute(ctx)
        batches = as_worker_batches(source, ctx)
        stage = ctx.metrics.stage(self.stage_name)
        cost = (self.cost_units if self.cost_units is not None
                else ctx.cost_model.comparison)
        predicate = row_function(self.predicate, source.schema)
        out = []
        records_out = 0
        for worker, worker_batches in enumerate(batches):
            kept_batches = []
            rows = 0
            for batch in worker_batches:
                ctx.metrics.operator_invocations += 1
                kept = kernels.filter_batch(batch, predicate)
                rows += batch.num_rows
                if kept.num_rows:
                    ctx.metrics.note_batch(kept.num_rows)
                    kept_batches.append(kept)
                    records_out += kept.num_rows
            stage.charge(worker, rows * cost)
            ctx.metrics.comparisons += rows
            out.append(kept_batches)
        stage.records_in = len(source)
        stage.records_out = records_out
        return BatchResult(out, source.schema)


def _pruner(indexes: list):
    """``fn(values)``: the tuple of the values at ``indexes``."""
    if len(indexes) > 1:
        return itemgetter(*indexes)  # a tuple only from two indexes up
    return lambda values: tuple([values[i] for i in indexes])


class Project(StreamingOperator):
    """Keep only the named fields (pure column pruning)."""

    label = "project"

    def __init__(self, child: PhysicalOperator, field_names) -> None:
        super().__init__()
        self.child = child
        self.field_names = tuple(field_names)

    def describe(self) -> str:
        return f"PROJECT {', '.join(self.field_names)}"

    def children(self) -> list:
        return [self.child]

    def run_rows(self, ctx: ExecutionContext) -> tuple:
        source_schema, partitions = self.child.rows(ctx)
        schema = Schema(self.field_names)
        prune = _pruner(
            [source_schema.index_of(name) for name in self.field_names])
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        out = []
        for worker, partition in enumerate(partitions):
            ctx.metrics.operator_invocations += len(partition)
            out.append(list(map(prune, partition)))
            stage.charge(worker, len(partition) * model.record_touch)
        stage.records_in = stage.records_out = sum(map(len, partitions))
        return schema, out

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        source = self.child.execute(ctx)
        batches = as_worker_batches(source, ctx)
        schema = Schema(self.field_names)
        indexes = [source.schema.index_of(name) for name in self.field_names]
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        out = []
        for worker, worker_batches in enumerate(batches):
            projected = []
            rows = 0
            for batch in worker_batches:
                ctx.metrics.operator_invocations += 1
                pruned = kernels.project_batch(batch, indexes, schema)
                ctx.metrics.note_batch(pruned.num_rows)
                projected.append(pruned)
                rows += batch.num_rows
            stage.charge(worker, rows * model.record_touch)
            out.append(projected)
        stage.records_in = stage.records_out = len(source)
        return BatchResult(out, schema)


class MapColumns(StreamingOperator):
    """Compute output columns as functions of the input row.

    ``columns`` is a list of ``(name, fn, cost_units)``; each ``fn`` is a
    bound expression or a plain ``callable(record)``
    (:func:`~repro.engine.record.row_function`) and returns an
    already-boxed or plain value.
    """

    label = "map"

    def __init__(self, child: PhysicalOperator, columns) -> None:
        super().__init__()
        self.child = child
        self.columns = list(columns)

    def describe(self) -> str:
        return f"MAP {', '.join(name for name, _, _ in self.columns)}"

    def children(self) -> list:
        return [self.child]

    def run_rows(self, ctx: ExecutionContext) -> tuple:
        source_schema, partitions = self.child.rows(ctx)
        schema = Schema(name for name, _, _ in self.columns)
        stage = ctx.metrics.stage(self.stage_name)
        row_cost = sum(cost for _, _, cost in self.columns)
        compute = kernels.row_mapper(
            [row_function(fn, source_schema) for _, fn, _ in self.columns])
        out = []
        for worker, partition in enumerate(partitions):
            ctx.metrics.operator_invocations += len(partition)
            out.append(list(map(compute, partition)))
            stage.charge(worker, len(partition) * row_cost)
        stage.records_in = stage.records_out = sum(map(len, partitions))
        return schema, out

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        source = self.child.execute(ctx)
        batches = as_worker_batches(source, ctx)
        schema = Schema(name for name, _, _ in self.columns)
        stage = ctx.metrics.stage(self.stage_name)
        row_cost = sum(cost for _, _, cost in self.columns)
        compute = kernels.row_mapper(
            [row_function(fn, source.schema) for _, fn, _ in self.columns])
        out = []
        for worker, worker_batches in enumerate(batches):
            mapped = []
            rows = 0
            for batch in worker_batches:
                ctx.metrics.operator_invocations += 1
                computed = kernels.map_batch(batch, compute, schema)
                ctx.metrics.note_batch(computed.num_rows)
                mapped.append(computed)
                rows += batch.num_rows
            stage.charge(worker, rows * row_cost)
            out.append(mapped)
        stage.records_in = stage.records_out = len(source)
        return BatchResult(out, schema)


class Limit(PhysicalOperator):
    """Global LIMIT [OFFSET]: results are gathered to the coordinator,
    ``offset`` rows skipped, then ``count`` rows kept."""

    label = "limit"

    def __init__(self, child: PhysicalOperator, count: int,
                 offset: int = 0) -> None:
        super().__init__()
        if count < 0:
            raise ValueError(f"LIMIT must be non-negative, got {count}")
        if offset < 0:
            raise ValueError(f"OFFSET must be non-negative, got {offset}")
        self.child = child
        self.count = count
        self.offset = offset

    def describe(self) -> str:
        text = f"LIMIT {self.count}"
        if self.offset:
            text += f" OFFSET {self.offset}"
        return text

    def children(self) -> list:
        return [self.child]

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        source = self.child.execute(ctx)
        stage = ctx.metrics.stage(self.stage_name)
        taken = []
        skipped = 0
        for partition in source.partitions:
            for record in partition:
                if skipped < self.offset:
                    skipped += 1
                    continue
                if len(taken) == self.count:
                    break
                taken.append(record)
        stage.records_in = len(source)
        stage.records_out = len(taken)
        partitions = [[] for _ in range(ctx.num_partitions)]
        partitions[0] = taken
        return OperatorResult(partitions, source.schema)

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        source = self.child.execute(ctx)
        batches = as_worker_batches(source, ctx)
        stage = ctx.metrics.stage(self.stage_name)
        gathered = []
        to_skip = self.offset
        taken = 0
        for worker_batches in batches:
            for batch in worker_batches:
                rows = batch.num_rows
                if to_skip >= rows:
                    to_skip -= rows
                    continue
                start = to_skip
                to_skip = 0
                take = min(self.count - taken, rows - start)
                if take <= 0:
                    continue
                piece = batch.take(range(start, start + take))
                ctx.metrics.note_batch(piece.num_rows)
                gathered.append(piece)
                taken += take
        stage.records_in = len(source)
        stage.records_out = taken
        out = [[] for _ in range(ctx.num_partitions)]
        out[0] = gathered
        return BatchResult(out, source.schema)


class Distinct(PhysicalOperator):
    """Global DISTINCT: rows are shuffled by their full value so equal
    rows co-locate, then deduplicated per worker."""

    label = "distinct"

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__()
        self.child = child

    def describe(self) -> str:
        return "DISTINCT"

    def children(self) -> list:
        return [self.child]

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        source = self.child.execute(ctx)
        shuffled = hash_exchange(
            source.partitions, lambda record: record.values, ctx,
            f"{self.stage_name}/shuffle",
        )
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        out = []
        for worker, partition in enumerate(shuffled):
            ctx.metrics.operator_invocations += len(partition)
            seen = set()
            rows = []
            for record in partition:
                if record.values in seen:
                    continue
                seen.add(record.values)
                rows.append(record)
            stage.charge(worker, len(partition) * model.hash_op)
            out.append(rows)
        stage.records_in = len(source)
        stage.records_out = sum(len(p) for p in out)
        return OperatorResult(out, source.schema)

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        source = self.child.execute(ctx)
        # Row mode keys the shuffle on ``record.values`` — the same value
        # tuple a batch row *is* — so routing matches bit-for-bit.
        shuffled = hash_exchange_batches(
            as_worker_batches(source, ctx), lambda row: row, ctx,
            f"{self.stage_name}/shuffle", source.schema,
        )
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        out = []
        records_out = 0
        for worker, worker_batches in enumerate(shuffled):
            seen = set()
            deduped = []
            rows = 0
            for batch in worker_batches:
                ctx.metrics.operator_invocations += 1
                unique = kernels.distinct_batch(batch, seen)
                rows += batch.num_rows
                if unique.num_rows:
                    ctx.metrics.note_batch(unique.num_rows)
                    deduped.append(unique)
                    records_out += unique.num_rows
            stage.charge(worker, rows * model.hash_op)
            out.append(deduped)
        stage.records_in = len(source)
        stage.records_out = records_out
        return BatchResult(out, source.schema)
