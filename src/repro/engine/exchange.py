"""Exchange (shuffle) primitives: hash, broadcast, and random repartition.

Exchanges are the only operators that move items between workers, so
this module is the only place that routes an item, charges a send,
counts network bytes, applies link faults and spools the checkpoint
copy (``Sort.run``'s gather of the sorted runs to worker 0 included).
There is one routing
routine, :func:`route_exchange`, and one replication,
:func:`replicate_exchange`; an exchange is a choice of

- *where an item goes* — ``targets_of(item)``: one worker, as an
  ``int`` (the hash of a key or of a bucket id, a round-robin cursor,
  worker 0 for an ORDER BY's gather), or — the one multi-target route —
  the list of a FUDJ bucket's match partitions;
- *what a delivery costs the sender* — ``hash_op + record_touch``,
  ``record_touch`` or ``hash_op``;
- *how an item is sized* — a record (or anything with
  ``serialized_size()``), a raw value row, or an entry, which carries
  its size (:func:`entry_size`).

:func:`hash_exchange`, :func:`random_exchange` and
:func:`broadcast_exchange` are those choices for records; the FUDJ
operator and the built-in joins make their own for their entries, and
GROUP BY for its ``(key, partial states)`` value tuples.
Every item's size is counted from the wire format, equal to its
serialized length, without serializing it.

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
from repro.engine.record import entry_size, serialized_values_size
from repro.engine.resources import RecordSpillCodec, RowSpillCodec


#: Wire size of a record — or of anything that sizes itself, which is how
#: the duplicate-elimination shuffle's tagged rows ride
#: :func:`hash_exchange`.
record_size = methodcaller("serialized_size")


def wire_bytes(items, size_of=record_size) -> int:
    """Wire size of a list of items."""
    return sum(map(size_of, items))


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
    moved_bytes = wire_bytes(moved, size_of)
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
    """Send every item of every worker's input to the worker
    ``targets_of(item)`` names — an ``int`` — or to each of the workers
    in the list it returns, charging the sender ``delivery_units`` per
    delivery.

    An item delivered to its own worker does not cross the network
    (locality is modelled: under a hash route roughly ``1/P`` of the
    items stay put).  One charge per delivery, in delivery order: the
    float a worker's units add up to depends on it.  The deliveries are
    added in a local float that starts from the worker's entry, and the
    sum is written back once — the float ``StageMetrics.charge`` would
    make, addition by addition; a tracer's mirror still sees each one.
    """
    with _exchange_stage(ctx, stage_name) as stage:
        worker_units = stage.worker_units
        mirror = stage.on_charge
        out = [[] for _ in range(ctx.num_partitions)]
        for worker, items in enumerate(inputs):
            moved = []
            units = worker_units.get(worker, 0.0)
            for item in items:
                target = targets_of(item)
                if type(target) is int:
                    out[target].append(item)
                    if target != worker:
                        moved.append(item)
                    units += delivery_units
                    if mirror is not None:
                        mirror(delivery_units)
                    continue
                # The multi-target route: the same delivery, per target.
                for each in target:
                    out[each].append(item)
                    if each != worker:
                        moved.append(item)
                    units += delivery_units
                    if mirror is not None:
                        mirror(delivery_units)
            worker_units[worker] = units
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
        total_bytes = wire_bytes(everything, size_of)
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


def by_bucket(num: int):
    """A ``targets_of`` that sends an entry to the worker its bucket id
    hashes to."""
    return lambda entry: hash(entry[0]) % num


def restore_bytes(ctx: ExecutionContext, *entry_lists) -> float:
    """Checkpoint-restore size of a task's exchanged entry lists, only
    computed when a fault plan could actually charge it."""
    if ctx.fault_plan is None or not ctx.fault_plan.any_faults():
        return 0.0
    return float(sum(wire_bytes(entries, entry_size)
                     for entries in entry_lists))


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
        lambda record: hash(key_fn(record)) % num,
        model.hash_op + model.record_touch, codec=RecordSpillCodec,
    )


def round_robin(num: int):
    """A ``targets_of`` that deals items out in turn; the cursor runs on
    from one worker's input to the next."""
    cursor = count()
    return lambda item: next(cursor) % num


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
