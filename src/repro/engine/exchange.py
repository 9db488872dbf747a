"""Exchange (shuffle) primitives: hash, broadcast, and random repartition.

Exchanges are the only operators that move items between workers, so
this module is the only place that routes an item, charges a send,
counts network bytes, applies link faults and spools the checkpoint
copy.  There is one routing routine, :func:`route_exchange`, and one
replication, :func:`replicate_exchange`; an exchange is a choice of

- *where an item goes* — ``targets_of(item)``: the hash of a key, a
  round-robin cursor, or (the one multi-target route) the match
  partitions of a FUDJ bucket;
- *what a delivery costs the sender* — ``hash_op + record_touch``,
  ``record_touch`` or ``hash_op``;
- *how an item is sized* — a record (or anything with
  ``serialized_size()``), a raw value row, or a FUDJ entry.

:func:`hash_exchange`, :func:`random_exchange` and
:func:`broadcast_exchange` are those choices for records; the FUDJ
operator makes its own for PARTITION's entries.  Items are serialized for
real (unless the context's ``measure_bytes`` speed knob is off, in which
case sizes are extrapolated from a per-partition sample).

Exchanges are also the engine's recovery boundary: with a fault plan
active, each worker's send is retried through injected transient link
failures (re-sent bytes and backoff charged to the sender), and the
received partitions are spooled to the local checkpoint store so a
downstream task that crashes replays one stage, not the whole plan.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from itertools import count
from operator import methodcaller

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


#: Wire size of a record — or of anything that sizes itself, which is how
#: the duplicate-elimination shuffle's tagged rows ride
#: :func:`hash_exchange`.
record_size = methodcaller("serialized_size")


def entry_size(entry) -> int:
    """Wire size of a FUDJ entry ``(bucket_id, key, record, ...)``: the
    record plus 9 bytes for the bucket id (a boxed int64)."""
    return 9 + entry[2].serialized_size()


def wire_bytes(items, ctx: ExecutionContext, size_of=record_size) -> int:
    """Wire size of a list of items, exact or sampled."""
    if not items:
        return 0
    if ctx.measure_bytes or len(items) <= _SIZE_SAMPLE:
        return sum(map(size_of, items))
    sample = items[:: max(1, len(items) // _SIZE_SAMPLE)][:_SIZE_SAMPLE]
    return int(sum(map(size_of, sample)) / len(sample) * len(items))


@contextmanager
def _exchange_stage(ctx: ExecutionContext, stage_name: str):
    """Open the stage and the trace span of one exchange."""
    ctx.check_cancel()  # exchanges are cancellation checkpoints
    ctx.pool_tick()  # recycle idle-dead workers between stages
    stage = ctx.metrics.stage(stage_name)
    with ctx.tracer.span(stage_name.rsplit("/", 1)[-1], kind="exchange",
                         stage=stage):
        yield stage


def _send(ctx: ExecutionContext, stage, worker: int, moved: list, size_of,
          sent: int) -> None:
    """Account one worker's finished send: the bytes that left it, their
    serialization, and any re-sends over a flaky link."""
    moved_bytes = wire_bytes(moved, ctx, size_of)
    stage.network_bytes += moved_bytes
    stage.charge(worker, moved_bytes * ctx.cost_model.serde_byte)
    apply_exchange_faults(ctx, stage, worker, moved_bytes)
    stage.records_in += sent


def _receive(ctx: ExecutionContext, stage, out: list, size_of,
             codec) -> list:
    """Account the received partitions: the checkpoint copy, the record
    count and — with a ``codec`` — the receive buffers."""
    checkpoint_outputs(ctx, stage, out, partial(wire_bytes, size_of=size_of))
    stage.records_out = sum(len(partition) for partition in out)
    return _admit_received(ctx, stage, out, codec)


def _admit_received(ctx: ExecutionContext, stage, out: list, codec) -> list:
    """Account receive buffers against the memory budget.

    Active only under enforcement (``Database(memory_budget=...)``):
    exchange buffers were never priced by the cost model, so un-governed
    runs skip this entirely and charge exactly what they always did.
    Spilled items are replayed in place, keeping partition order.
    ``codec`` is None for an exchange whose receiver admits its own state
    (FUDJ COMBINE).
    """
    if codec is None or not ctx.resources.enforce:
        return out
    codec = codec()
    return [
        ctx.admit(stage, worker, partition, codec, price=False)
        for worker, partition in enumerate(out)
    ]


def route_exchange(inputs, ctx: ExecutionContext, stage_name: str,
                   targets_of, delivery_units: float, size_of=record_size,
                   codec=None) -> list:
    """Send every item of every worker's input to the workers
    ``targets_of(item)`` names, charging the sender ``delivery_units``
    per delivery.

    An item delivered to its own worker does not cross the network
    (locality is modelled: under a hash route roughly ``1/P`` of the
    items stay put).  One charge per delivery, in delivery order: the
    float a worker's units add up to depends on it.
    """
    with _exchange_stage(ctx, stage_name) as stage:
        charge = stage.charge
        out = [[] for _ in range(ctx.num_partitions)]
        for worker, items in enumerate(inputs):
            moved = []
            for item in items:
                for target in targets_of(item):
                    out[target].append(item)
                    if target != worker:
                        moved.append(item)
                    charge(worker, delivery_units)
            _send(ctx, stage, worker, moved, size_of, len(items))
        return _receive(ctx, stage, out, size_of, codec)


def replicate_exchange(inputs, ctx: ExecutionContext, stage_name: str,
                       size_of=record_size, codec=None) -> list:
    """Replicate the full input to every worker.

    Network cost is ``(P - 1) * |input bytes|`` — every worker needs a copy
    and one copy is already local somewhere.
    """
    num = ctx.num_partitions
    model = ctx.cost_model
    with _exchange_stage(ctx, stage_name) as stage:
        everything = [item for items in inputs for item in items]
        total_bytes = wire_bytes(everything, ctx, size_of)
        stage.fabric_bytes += total_bytes * max(0, num - 1)
        for worker in range(num):
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
        stage.records_out = len(everything) * num
        replicas = [list(everything) for _ in range(num)]
        return _admit_received(ctx, stage, replicas, codec)


# -- the record exchanges --------------------------------------------------------
#
# Every record pushed through one counts as an operator invocation, and
# the receive buffers are admitted here: nothing downstream knows them.


def _count_records(partitions, ctx: ExecutionContext) -> None:
    ctx.metrics.operator_invocations += sum(len(p) for p in partitions)


def hash_exchange(partitions, key_fn, ctx: ExecutionContext,
                  stage_name: str = "hash-exchange") -> list:
    """Repartition by ``hash(key_fn(record))``."""
    _count_records(partitions, ctx)
    num = ctx.num_partitions
    model = ctx.cost_model
    return route_exchange(
        partitions, ctx, stage_name,
        lambda record: (hash(key_fn(record)) % num,),
        model.hash_op + model.record_touch, codec=RecordSpillCodec,
    )


def round_robin(num: int):
    """A ``targets_of`` that deals items out in turn; the cursor runs on
    from one worker's input to the next."""
    cursor = count()
    return lambda item: (next(cursor) % num,)


def random_exchange(partitions, ctx: ExecutionContext,
                    stage_name: str = "random-exchange") -> list:
    """Round-robin repartition (the theta-join fallback of paper §VII-C:
    with no partitioning key available, one side is spread randomly)."""
    _count_records(partitions, ctx)
    return route_exchange(
        partitions, ctx, stage_name, round_robin(ctx.num_partitions),
        ctx.cost_model.record_touch, codec=RecordSpillCodec,
    )


def broadcast_exchange(partitions, ctx: ExecutionContext,
                       stage_name: str = "broadcast-exchange") -> list:
    """Replicate every record to every worker."""
    _count_records(partitions, ctx)
    return replicate_exchange(partitions, ctx, stage_name,
                              codec=RecordSpillCodec)


def hash_exchange_batches(worker_batches, key_fn, ctx: ExecutionContext,
                          stage_name: str, schema) -> list:
    """Batch-at-a-time hash repartition — the vectorized twin of
    :func:`hash_exchange`.

    ``worker_batches`` is one list of
    :class:`~repro.engine.batch.RecordBatch` per worker; ``key_fn``
    takes a raw value tuple (row mode keys on ``record.values``, so the
    hashes agree).  Stage name, per-row charges (issued once per worker
    as ``rows * (hash_op + record_touch)``), and the send / receive
    accounting are the row exchange's; only the dispatch granularity — one
    kernel call per batch — differs.  Returns per-worker batch lists.
    """
    model = ctx.cost_model
    with _exchange_stage(ctx, stage_name) as stage:
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
            _send(ctx, stage, worker, moved, serialized_values_size, sent)
        received = _receive(ctx, stage, out_rows, serialized_values_size,
                            RowSpillCodec)
        return [batches_from_rows(ctx, schema, rows) for rows in received]
