"""Exchange (shuffle) primitives: hash, broadcast, and random repartition.

Exchanges are the only operators that move records between workers, so
they are the only place network bytes are charged.  Records are serialized
for real (unless the context's ``measure_bytes`` speed knob is off, in
which case sizes are extrapolated from a per-partition sample).

Exchanges are also the engine's recovery boundary: with a fault plan
active, each worker's send is retried through injected transient link
failures (re-sent bytes and backoff charged to the sender), and the
received partitions are spooled to the local checkpoint store so a
downstream task that crashes replays one stage, not the whole plan.
"""

from __future__ import annotations

from repro.engine.batch import batches_from_rows
from repro.engine.context import ExecutionContext
from repro.engine.faults import (
    apply_exchange_faults,
    charge_checkpoint,
    checkpoint_outputs,
)
from repro.engine.kernels import scatter_batch
from repro.engine.record import serialized_values_size
from repro.engine.resources import RecordSpillCodec, RowSpillCodec

_SIZE_SAMPLE = 32


def _admit_received(out, ctx: ExecutionContext, stage) -> list:
    """Account receive buffers against the memory budget.

    Active only under enforcement (``Database(memory_budget=...)``):
    exchange buffers were never priced by the cost model, so un-governed
    runs skip this entirely and charge exactly what they always did.
    Spilled records are replayed in place, keeping partition order.
    """
    if not ctx.resources.enforce:
        return out
    codec = RecordSpillCodec()
    return [
        ctx.admit(stage, worker, partition, codec, price=False)
        for worker, partition in enumerate(out)
    ]


def _partition_bytes(partition, ctx: ExecutionContext) -> int:
    """Wire size of a partition, exact or sampled."""
    if not partition:
        return 0
    if ctx.measure_bytes or len(partition) <= _SIZE_SAMPLE:
        return sum(r.serialized_size() for r in partition)
    sample = partition[:: max(1, len(partition) // _SIZE_SAMPLE)][:_SIZE_SAMPLE]
    avg = sum(r.serialized_size() for r in sample) / len(sample)
    return int(avg * len(partition))


def hash_exchange(partitions, key_fn, ctx: ExecutionContext,
                  stage_name: str = "hash-exchange") -> list:
    """Repartition by ``hash(key_fn(record))``.

    Records whose key hashes to their current worker do not cross the
    network (locality is modelled: roughly ``1/P`` of records stay put).
    """
    ctx.check_cancel()  # exchanges are cancellation checkpoints
    ctx.pool_tick()  # recycle idle-dead workers between stages
    stage = ctx.metrics.stage(stage_name)
    model = ctx.cost_model
    with ctx.tracer.span(stage_name.rsplit("/", 1)[-1], kind="exchange",
                         stage=stage):
        out = [[] for _ in range(ctx.num_partitions)]
        for worker, partition in enumerate(partitions):
            moved = []
            ctx.metrics.operator_invocations += len(partition)
            for record in partition:
                target = hash(key_fn(record)) % ctx.num_partitions
                out[target].append(record)
                if target != worker:
                    moved.append(record)
                stage.charge(worker, model.hash_op + model.record_touch)
            moved_bytes = _partition_bytes(moved, ctx)
            stage.network_bytes += moved_bytes
            stage.charge(worker, moved_bytes * model.serde_byte)
            apply_exchange_faults(ctx, stage, worker, moved_bytes)
            stage.records_in += len(partition)
        checkpoint_outputs(ctx, stage, out, _partition_bytes)
        stage.records_out = sum(len(p) for p in out)
        return _admit_received(out, ctx, stage)


def _row_bytes(rows, ctx: ExecutionContext) -> int:
    """Wire size of a row list, exact or sampled — the value-tuple twin
    of :func:`_partition_bytes` (same sampling stride, same sizes)."""
    if not rows:
        return 0
    if ctx.measure_bytes or len(rows) <= _SIZE_SAMPLE:
        return sum(serialized_values_size(row) for row in rows)
    sample = rows[:: max(1, len(rows) // _SIZE_SAMPLE)][:_SIZE_SAMPLE]
    avg = sum(serialized_values_size(row) for row in sample) / len(sample)
    return int(avg * len(rows))


def _admit_received_rows(out_rows, ctx: ExecutionContext, stage) -> list:
    """Batched twin of :func:`_admit_received`: account receive buffers
    (as raw rows) against the memory budget, enforcement-only."""
    if not ctx.resources.enforce:
        return out_rows
    codec = RowSpillCodec()
    return [
        ctx.admit(stage, worker, rows, codec, price=False)
        for worker, rows in enumerate(out_rows)
    ]


def hash_exchange_batches(worker_batches, key_fn, ctx: ExecutionContext,
                          stage_name: str, schema) -> list:
    """Batch-at-a-time hash repartition — the vectorized twin of
    :func:`hash_exchange`.

    ``worker_batches`` is one list of
    :class:`~repro.engine.batch.RecordBatch` per worker; ``key_fn``
    takes a raw value tuple (row mode keys on ``record.values``, so the
    hashes agree).  Stage name, per-row charges (issued once per worker
    as ``rows * (hash_op + record_touch)``), network bytes, fault
    injection, checkpoint spooling, and receive-buffer admission are all
    identical to the row exchange; only the dispatch granularity — one
    kernel call per batch — differs.  Returns per-worker batch lists.
    """
    ctx.check_cancel()  # exchanges are cancellation checkpoints
    ctx.pool_tick()  # recycle idle-dead workers between stages
    stage = ctx.metrics.stage(stage_name)
    model = ctx.cost_model
    with ctx.tracer.span(stage_name.rsplit("/", 1)[-1], kind="exchange",
                         stage=stage):
        out_rows = [[] for _ in range(ctx.num_partitions)]
        for worker, batches in enumerate(worker_batches):
            moved = []
            sent = 0
            for batch in batches:
                ctx.metrics.operator_invocations += 1
                scatter_batch(batch, key_fn, ctx.num_partitions, worker,
                              out_rows, moved)
                sent += batch.num_rows
            stage.charge(worker, sent * (model.hash_op + model.record_touch))
            moved_bytes = _row_bytes(moved, ctx)
            stage.network_bytes += moved_bytes
            stage.charge(worker, moved_bytes * model.serde_byte)
            apply_exchange_faults(ctx, stage, worker, moved_bytes)
            stage.records_in += sent
        checkpoint_outputs(ctx, stage, out_rows, _row_bytes)
        stage.records_out = sum(len(rows) for rows in out_rows)
        received = _admit_received_rows(out_rows, ctx, stage)
        return [batches_from_rows(ctx, schema, rows) for rows in received]


def broadcast_exchange(partitions, ctx: ExecutionContext,
                       stage_name: str = "broadcast-exchange") -> list:
    """Replicate the full input to every worker.

    Network cost is ``(P - 1) * |input bytes|`` — every worker needs a copy
    and one copy is already local somewhere.
    """
    ctx.check_cancel()  # exchanges are cancellation checkpoints
    ctx.pool_tick()  # recycle idle-dead workers between stages
    stage = ctx.metrics.stage(stage_name)
    model = ctx.cost_model
    with ctx.tracer.span(stage_name.rsplit("/", 1)[-1], kind="exchange",
                         stage=stage):
        everything = [
            record for partition in partitions for record in partition
        ]
        ctx.metrics.operator_invocations += len(everything)
        total_bytes = _partition_bytes(everything, ctx)
        replicas = max(0, ctx.num_partitions - 1)
        stage.fabric_bytes += total_bytes * replicas
        for worker in range(ctx.num_partitions):
            stage.charge(
                worker,
                len(everything) * model.record_touch
                + total_bytes * model.serde_byte,
            )
            # A flaky link to one receiver forces a re-send of its whole copy.
            apply_exchange_faults(ctx, stage, worker, total_bytes)
        # One checkpoint copy covers every replica (the data is identical),
        # charged to the worker that holds the canonical copy.
        charge_checkpoint(ctx, stage, 0, total_bytes)
        stage.records_in = len(everything)
        stage.records_out = len(everything) * ctx.num_partitions
        replicas = [list(everything) for _ in range(ctx.num_partitions)]
        return _admit_received(replicas, ctx, stage)


def random_exchange(partitions, ctx: ExecutionContext,
                    stage_name: str = "random-exchange") -> list:
    """Round-robin repartition (the theta-join fallback of paper §VII-C:
    with no partitioning key available, one side is spread randomly)."""
    ctx.check_cancel()  # exchanges are cancellation checkpoints
    ctx.pool_tick()  # recycle idle-dead workers between stages
    stage = ctx.metrics.stage(stage_name)
    model = ctx.cost_model
    with ctx.tracer.span(stage_name.rsplit("/", 1)[-1], kind="exchange",
                         stage=stage):
        out = [[] for _ in range(ctx.num_partitions)]
        cursor = 0
        for worker, partition in enumerate(partitions):
            moved = []
            ctx.metrics.operator_invocations += len(partition)
            for record in partition:
                target = cursor % ctx.num_partitions
                cursor += 1
                out[target].append(record)
                if target != worker:
                    moved.append(record)
                stage.charge(worker, model.record_touch)
            moved_bytes = _partition_bytes(moved, ctx)
            stage.network_bytes += moved_bytes
            stage.charge(worker, moved_bytes * model.serde_byte)
            apply_exchange_faults(ctx, stage, worker, moved_bytes)
            stage.records_in += len(partition)
        checkpoint_outputs(ctx, stage, out, _partition_bytes)
        stage.records_out = sum(len(p) for p in out)
        return _admit_received(out, ctx, stage)
