"""Aggregation: aggregate function specs, GROUP BY, and scalar aggregates.

Both group-by and scalar aggregation follow the two-level scheme the paper
leans on for SUMMARIZE: aggregate locally on each worker, shuffle/gather
the partials, then merge globally.
"""

from __future__ import annotations

from copy import copy

from repro.engine import kernels
from repro.engine.batch import BatchResult, as_worker_batches, batches_from_rows
from repro.engine.context import ExecutionContext
from repro.engine.exchange import hash_exchange_batches, route_exchange
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.engine.record import (
    Record,
    Schema,
    row_function,
    serialized_values_size,
)
from repro.engine.resources import RowSpillCodec
from repro.serde.values import box, unbox


class AggregateSpec:
    """One aggregate function: COUNT/SUM/AVG/MIN/MAX over an input fn.

    Subclasses define ``init`` (the identity state), ``add`` (fold one
    row in), ``merge`` (combine two partial states), and ``result``.
    ``value_fn`` extracts the aggregated value from a row (``None`` for
    COUNT(*)-style aggregates): a bound expression or a plain
    ``callable(record)``; ``add`` hands it whatever row it is given, so
    an operator folds value tuples through :meth:`bind`'s copy.
    """

    name = "agg"

    def __init__(self, output_name: str, value_fn=None) -> None:
        self.output_name = output_name
        self.value_fn = value_fn

    def bind(self, schema: Schema) -> "AggregateSpec":
        """This aggregate over raw value tuples laid out as ``schema``."""
        if self.value_fn is None:
            return self
        bound = copy(self)
        bound.value_fn = row_function(self.value_fn, schema)
        return bound

    def init(self):
        raise NotImplementedError

    def add(self, state, record):
        raise NotImplementedError

    def merge(self, a, b):
        raise NotImplementedError

    def result(self, state):
        raise NotImplementedError


class CountAgg(AggregateSpec):
    """COUNT(*) / COUNT(expr) with SQL semantics (NULLs not counted when
    an expression is given)."""

    name = "count"

    def init(self):
        return 0

    def add(self, state, record):
        if self.value_fn is not None and unbox(self.value_fn(record)) is None:
            return state
        return state + 1

    def merge(self, a, b):
        return a + b

    def result(self, state):
        return state


class CountDistinctAgg(AggregateSpec):
    """COUNT(DISTINCT expr): partial states are sets of seen values, so
    they merge exactly across workers."""

    name = "count-distinct"

    def init(self):
        return set()

    def add(self, state, record):
        value = unbox(self.value_fn(record))
        if value is not None:
            try:
                state.add(value)
            except TypeError:
                state.add(repr(value))
        return state

    def merge(self, a, b):
        return a | b

    def result(self, state):
        return len(state)


class SumAgg(AggregateSpec):
    name = "sum"

    def init(self):
        return None

    def add(self, state, record):
        value = unbox(self.value_fn(record))
        if value is None:
            return state
        return value if state is None else state + value

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a + b

    def result(self, state):
        return state


class AvgAgg(AggregateSpec):
    """AVG keeps a (sum, count) pair so partials merge exactly."""

    name = "avg"

    def init(self):
        return (0.0, 0)

    def add(self, state, record):
        value = unbox(self.value_fn(record))
        if value is None:
            return state
        return (state[0] + value, state[1] + 1)

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def result(self, state):
        total, count = state
        return total / count if count else None


class MinAgg(AggregateSpec):
    name = "min"

    def init(self):
        return None

    def add(self, state, record):
        value = unbox(self.value_fn(record))
        if value is None:
            return state
        return value if state is None else min(state, value)

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def result(self, state):
        return state


class MaxAgg(AggregateSpec):
    name = "max"

    def init(self):
        return None

    def add(self, state, record):
        value = unbox(self.value_fn(record))
        if value is None:
            return state
        return value if state is None else max(state, value)

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)

    def result(self, state):
        return state


class GroupBy(PhysicalOperator):
    """Hash GROUP BY: local pre-aggregation, shuffle partials by key,
    global merge.

    ``keys`` is a list of ``(output_name, key_fn)``; key functions must
    return hashable boxed or plain values.
    """

    label = "group-by"

    def __init__(self, child: PhysicalOperator, keys, aggregates) -> None:
        super().__init__()
        self.child = child
        self.keys = list(keys)
        self.aggregates = list(aggregates)

    def describe(self) -> str:
        names = ", ".join(name for name, _ in self.keys)
        aggs = ", ".join(a.output_name for a in self.aggregates)
        return f"GROUP BY {names} AGG {aggs}"

    def children(self) -> list:
        return [self.child]

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        schema, partitions = self.child.rows(ctx)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        key_fns = [row_function(key_fn, schema) for _, key_fn in self.keys]
        aggregates = [agg.bind(schema) for agg in self.aggregates]

        # Phase 1: local aggregation per worker.  Under a memory budget
        # the pre-aggregation input is admitted first — aggregation tables
        # were never priced for spills, so this is enforcement-only.
        local_tables = []
        for worker, partition in enumerate(partitions):
            if ctx.resources.enforce:
                partition = ctx.admit(stage, worker, partition,
                                      RowSpillCodec(), price=False)
            ctx.metrics.operator_invocations += len(partition)
            table = {}
            kernels.fold_groups(partition, key_fns, aggregates, table)
            stage.charge(
                worker,
                len(partition) * (model.hash_op + model.record_touch),
            )
            local_tables.append(table)

        # Phase 2: shuffle partial states by group key, as value tuples
        # ``(key, RawState)`` — sized, and pinned under a budget, as the
        # records of a hash exchange are.
        partials = [[(key, RawState(states)) for key, states in table.items()]
                    for table in local_tables]
        ctx.metrics.operator_invocations += sum(map(len, partials))
        num = ctx.num_partitions
        shuffled = route_exchange(
            partials, ctx, f"{self.stage_name}/shuffle",
            lambda row: hash(row[0]) % num,
            model.hash_op + model.record_touch, serialized_values_size,
            RowSpillCodec,
        )

        # Phase 3: global merge per worker.
        out_schema = Schema(
            [name for name, _ in self.keys]
            + [agg.output_name for agg in self.aggregates]
        )
        out = []
        for worker, partition in enumerate(shuffled):
            ctx.metrics.operator_invocations += len(partition)
            table = {}
            for key, raw in partition:
                states = raw.states
                current = table.get(key)
                if current is None:
                    table[key] = list(states)
                else:
                    for i, agg in enumerate(self.aggregates):
                        current[i] = agg.merge(current[i], states[i])
            stage.charge(worker, len(partition) * model.hash_op)
            rows = []
            for key, states in table.items():
                key_values = unbox_key(key, len(self.keys))
                agg_values = [
                    box(agg.result(states[i]))
                    for i, agg in enumerate(self.aggregates)
                ]
                rows.append(Record(out_schema,
                                   tuple(key_values) + tuple(agg_values)))
            out.append(rows)
        stage.records_in = sum(map(len, partitions))
        stage.records_out = sum(len(p) for p in out)
        return OperatorResult(out, out_schema)

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        source = self.child.execute(ctx)
        batches = as_worker_batches(source, ctx)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        key_fns = [row_function(key_fn, source.schema)
                   for _, key_fn in self.keys]
        aggregates = [agg.bind(source.schema) for agg in self.aggregates]

        # Phase 1: local aggregation, one kernel call per batch.  Under a
        # memory budget the raw rows are admitted first through the
        # row-tuple codec — same sizes, same spill frames as row mode.
        local_tables = []
        for worker, worker_batches in enumerate(batches):
            if ctx.resources.enforce:
                rows = [row for batch in worker_batches
                        for row in batch.iter_rows()]
                rows = ctx.admit(stage, worker, rows, RowSpillCodec(),
                                 price=False)
                worker_batches = batches_from_rows(ctx, source.schema, rows)
            table = {}
            total = 0
            for batch in worker_batches:
                ctx.metrics.operator_invocations += 1
                kernels.fold_groups(batch.iter_rows(), key_fns, aggregates,
                                    table)
                total += batch.num_rows
            stage.charge(
                worker, total * (model.hash_op + model.record_touch)
            )
            local_tables.append(table)

        # Phase 2: shuffle partial states by group key (batched).
        partial_schema = Schema(["__key", "__states"])
        partials = [
            batches_from_rows(
                ctx, partial_schema,
                [(key, RawState(states)) for key, states in table.items()],
            )
            for table in local_tables
        ]
        shuffled = hash_exchange_batches(
            partials, lambda row: row[0], ctx,
            f"{self.stage_name}/shuffle", partial_schema,
        )

        # Phase 3: global merge per worker, one kernel call per batch.
        out_schema = Schema(
            [name for name, _ in self.keys]
            + [agg.output_name for agg in self.aggregates]
        )
        out = []
        records_out = 0
        for worker, worker_batches in enumerate(shuffled):
            table = {}
            total = 0
            for batch in worker_batches:
                ctx.metrics.operator_invocations += 1
                for key, raw in batch.iter_rows():
                    states = raw.states
                    current = table.get(key)
                    if current is None:
                        table[key] = list(states)
                    else:
                        for i, agg in enumerate(self.aggregates):
                            current[i] = agg.merge(current[i], states[i])
                total += batch.num_rows
            stage.charge(worker, total * model.hash_op)
            rows = []
            for key, states in table.items():
                key_values = unbox_key(key, len(self.keys))
                agg_values = [
                    box(agg.result(states[i]))
                    for i, agg in enumerate(self.aggregates)
                ]
                rows.append(tuple(key_values) + tuple(agg_values))
            records_out += len(rows)
            out.append(batches_from_rows(ctx, out_schema, rows))
        stage.records_in = len(source)
        stage.records_out = records_out
        return BatchResult(out, out_schema)


class ScalarAggregate(PhysicalOperator):
    """Aggregates without GROUP BY (``SELECT COUNT(1) FROM ...``).

    Local partials are merged at the coordinator; output is one record on
    worker 0.
    """

    label = "scalar-aggregate"

    def __init__(self, child: PhysicalOperator, aggregates) -> None:
        super().__init__()
        self.child = child
        self.aggregates = list(aggregates)

    def describe(self) -> str:
        return f"AGGREGATE {', '.join(a.output_name for a in self.aggregates)}"

    def children(self) -> list:
        return [self.child]

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        schema, partitions = self.child.rows(ctx)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        aggregates = [agg.bind(schema) for agg in self.aggregates]
        partials = []
        for worker, partition in enumerate(partitions):
            ctx.metrics.operator_invocations += len(partition)
            states = [agg.init() for agg in aggregates]
            kernels.fold_scalar(partition, aggregates, states)
            stage.charge(worker, len(partition) * model.record_touch)
            partials.append(states)
        merged = [agg.init() for agg in self.aggregates]
        for states in partials:
            for i, agg in enumerate(self.aggregates):
                merged[i] = agg.merge(merged[i], states[i])
        out_schema = Schema(agg.output_name for agg in self.aggregates)
        row = Record(
            out_schema,
            (box(agg.result(merged[i])) for i, agg in enumerate(self.aggregates)),
        )
        out = [[] for _ in range(ctx.num_partitions)]
        out[0] = [row]
        stage.records_in = sum(map(len, partitions))
        stage.records_out = 1
        return OperatorResult(out, out_schema)

    def run_batches(self, ctx: ExecutionContext) -> BatchResult:
        source = self.child.execute(ctx)
        batches = as_worker_batches(source, ctx)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        aggregates = [agg.bind(source.schema) for agg in self.aggregates]
        partials = []
        for worker, worker_batches in enumerate(batches):
            states = [agg.init() for agg in aggregates]
            total = 0
            for batch in worker_batches:
                ctx.metrics.operator_invocations += 1
                kernels.fold_scalar(batch.iter_rows(), aggregates, states)
                total += batch.num_rows
            stage.charge(worker, total * model.record_touch)
            partials.append(states)
        merged = [agg.init() for agg in self.aggregates]
        for states in partials:
            for i, agg in enumerate(self.aggregates):
                merged[i] = agg.merge(merged[i], states[i])
        out_schema = Schema(agg.output_name for agg in self.aggregates)
        row = tuple(
            box(agg.result(merged[i]))
            for i, agg in enumerate(self.aggregates)
        )
        out = [[] for _ in range(ctx.num_partitions)]
        out[0] = batches_from_rows(ctx, out_schema, [row])
        stage.records_in = len(source)
        stage.records_out = 1
        return BatchResult(out, out_schema)


class RawState:
    """Opaque carrier for partial aggregate states inside a record.

    GROUP BY ships partial states through the exchange layer; the states
    themselves are arbitrary Python values, so they ride in this box (its
    wire size is approximated as a small constant per state).
    """

    __slots__ = ("states",)
    type_tag = "raw-state"

    def __init__(self, states) -> None:
        self.states = states

    def to_python(self):
        return self.states


def unbox_key(key: tuple, arity: int) -> list:
    """A group key tuple as output values, each element re-boxed."""
    assert len(key) == arity
    return [box(unbox(v)) for v in key]
