"""The FUDJ composite physical operator — the Figure 8 plan.

The optimizer plugs this operator in whenever a join predicate is a
registered FUDJ.  It drives the user's
:class:`~repro.core.flexible_join.FlexibleJoin` through all three phases
on top of the engine primitives:

1. SUMMARIZE — per-worker ``local_aggregate`` over the join keys, a
   coordinator ``global_aggregate`` merge, then ``divide`` to produce the
   PPlan, which is broadcast.
2. PARTITION — ``assign`` unnests each record to ``(bucket_id, record)``.
3. COMBINE — single-joins (default ``match``) hash-exchange both sides on
   bucket id and run a per-bucket hash join; multi-joins fall back to the
   theta plan (spread left, broadcast right, ``match`` per bucket pair).
   ``verify`` then checks each candidate pair, and the dedup strategy
   suppresses duplicates (locally for avoidance, with one more exchange
   for elimination).  This operator picks the plan and runs the
   exchanges; the per-partition join is a kernel in
   :mod:`repro.engine.combine`.

Every join key goes through the translation layer (Figure 7), so the
callbacks see plain Python values; built-in operator baselines bypass
the layer (``translate=False``), which is exactly the overhead gap
measured in paper §VII-B.  A key is made once per query
(:meth:`FudjJoin._key_column`: key expression, translation, the
library's ``prepare``) and every phase reads that column; the stages
still *charge* a translation per record per phase, which is the engine
the cost model describes.

Fault tolerance: every per-worker phase body runs as a *task* through
:meth:`ExecutionContext.run_task`, so an active fault plan can crash or
straggle it and the engine replays just that task from the exchange
checkpoints (lineage-style recovery).  Per-record callbacks
(``local_aggregate``, ``assign``, ``verify``, ``match``) additionally
honor the context's degraded-mode policy: under ``skip``/``quarantine``
a poison record is dropped (and reported) instead of aborting the query.
A SUMMARIZE or PARTITION task makes its calls under one policy frame
(:meth:`ExecutionContext.guard_batch`) and only when some call raised
makes them again record by record, so the policy acts on exactly the
records that raise.
Phases with no single culprit record (``global_aggregate``, ``divide``,
``local_join``, ``dedup``) always fail hard.
"""

from __future__ import annotations

from functools import partial
from itertools import count

from repro.core.dedup import DedupStrategy, strategy_for
from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.engine.combine import KERNELS, LocalSite
from repro.engine.context import ExecutionContext
from repro.engine.exchange import (
    entry_size,
    hash_exchange,
    replicate_exchange,
    round_robin,
    route_exchange,
    wire_bytes,
)
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.engine.record import row_function
from repro.errors import ExecutionError, FudjCallbackError
from repro.serde.values import unbox

__all__ = ["FudjCallbackError", "FudjJoin"]


def _number_records(*sides) -> None:
    """Give every input record of a duplicate-eliminating join its
    ``rid``: minus its ordinal, counting through the sides in (worker,
    position) order.

    The elimination shuffle hash-routes a joined row on the pair of its
    inputs' ``rid``s, so they have to be a function of the query's input
    alone — a memory address or a process-wide counter sends the rows,
    and with them every per-worker figure, somewhere else on every run.
    One count through both sides keeps the numbers distinct even when a
    ``Values`` source feeds the same record object to both.
    """
    ordinals = count(1)
    for partitions in sides:
        for partition in partitions:
            for record in partition:
                record.rid = -next(ordinals)


class _DedupEntry:
    """The elimination shuffle's item, ``(pair_id, record)``; it sizes
    itself, which is all :func:`~repro.engine.exchange.hash_exchange`
    asks of an item."""

    __slots__ = ("pair_id", "record")

    def __init__(self, pair_id, record):
        self.pair_id = pair_id
        self.record = record

    def serialized_size(self):
        return 16 + self.record.serialized_size()


class _Unprepared:
    """Stands in the key column for a key whose ``prepare`` raised.

    Every callback that was to receive the key raises that error again
    (:func:`_on_key`) inside its own policy frame — where the library
    raised it when each callback derived the value for itself."""

    __slots__ = ("error",)

    def __init__(self, error: Exception) -> None:
        self.error = error


def _on_key(callback, key, *args):
    """``callback(key, *args)``: the record-by-record form of a SUMMARIZE
    or PARTITION call."""
    if type(key) is _Unprepared:
        raise key.error
    return callback(key, *args)


def _fold(local_aggregate, keys: list, side: JoinSide, poll):
    """One SUMMARIZE task's calls: ``keys`` folded into a summary.
    ``poll`` is the query's cancellation check, or None."""
    summary = None
    for key in keys:
        if poll is not None:
            poll()
        summary = local_aggregate(key, summary, side)
    return summary


def _checked_assign(key, assign_list, pplan, side: JoinSide) -> list:
    """``key``'s bucket list, each id checked to be an int."""
    bucket_ids = assign_list(key, pplan, side)
    for bucket_id in bucket_ids:
        if not isinstance(bucket_id, int):
            raise TypeError(
                f"bucket ids must be ints, got "
                f"{type(bucket_id).__name__}: {bucket_id!r}"
            )
    return bucket_ids


def _assign_all(assign_list, keys: list, pplan, side: JoinSide, poll) -> list:
    """One PARTITION task's calls: the checked bucket list of each of
    ``keys``."""
    assigned = []
    for key in keys:
        if poll is not None:
            poll()
        assigned.append(_checked_assign(key, assign_list, pplan, side))
    return assigned


class FudjJoin(PhysicalOperator):
    """Physical FUDJ join of two inputs.

    Args:
        left, right: child operators.
        join: the FlexibleJoin instance (parameters already bound).
        left_key, right_key: the join key of a row, boxed or plain: a
            bound expression or a plain ``callable(record)``
            (:func:`~repro.engine.record.row_function`).
        dedup: optional dedup strategy override (Fig 12 experiments).
        translate: route keys through the FUDJ translation layer.  The
            built-in baselines set this False — their operators read
            engine values natively.
        self_join: summarize only one side and reuse the summary
            (the §VI-C self-join optimization); requires symmetric
            summaries.
        verify_cost: work units per ``verify`` call; defaults to the cost
            model's ``expensive_predicate`` since verify evaluates the
            same predicate the on-top NLJ would.
    """

    label = "fudj-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 join: FlexibleJoin, left_key, right_key,
                 dedup: DedupStrategy = None, translate: bool = True,
                 self_join: bool = False, verify_cost: float = None,
                 summarize_sample: float = 1.0) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.join = join
        self.left_key = left_key
        self.right_key = right_key
        self.dedup = strategy_for(join, dedup)
        self.translate = translate
        self.self_join = self_join and join.symmetric_summaries()
        self.verify_cost = verify_cost
        if not 0.0 < summarize_sample <= 1.0:
            raise ExecutionError(
                f"summarize sample fraction must be in (0, 1], got "
                f"{summarize_sample}"
            )
        #: SUMMARIZE over a deterministic sample (every k-th record per
        #: worker).  Sound for any FUDJ whose assign clamps keys outside
        #: the summarized domain (all shipped joins do): summaries steer
        #: partitioning quality, verify decides membership.
        self.summarize_sample = summarize_sample

    def describe(self) -> str:
        kind = "single-join" if self.join.uses_default_match() else "multi-join"
        return (
            f"FUDJ JOIN [{self.join.name}] ({kind}, dedup={self.dedup.name}, "
            f"translate={self.translate})"
        )

    def children(self) -> list:
        return [self.left, self.right]

    # -- the key column -----------------------------------------------------------

    def _key_column(self, records: list, side: JoinSide,
                    ctx: ExecutionContext) -> tuple:
        """The one place a join key is made: the key expression, the
        translation layer, then the library's ``prepare`` if it has one.

        Returns ``(keys, raws, clean)``, the lists parallel to
        ``records``: ``keys`` is what the callbacks receive, ``raws`` the
        translated keys a quarantine report renders (the same list for a
        library without ``prepare``), and ``clean`` is False when some
        ``prepare`` raised and left an :class:`_Unprepared` in ``keys``.
        """
        if not records:
            return [], [], True
        key_fn = row_function(
            self.left_key if side is JoinSide.LEFT else self.right_key,
            records[0].schema)
        raws = [key_fn(record.values) for record in records]
        if self.translate:
            to_external = ctx.translator.to_external
            raws = [to_external(boxed) for boxed in raws]
        else:
            raws = [unbox(boxed) for boxed in raws]
        if not self.join.prepares():
            return raws, raws, True
        prepare = self.join.prepare
        keys = []
        clean = True
        for raw in raws:
            try:
                keys.append(prepare(raw, side))
            except Exception as exc:
                keys.append(_Unprepared(exc))
                clean = False
        return keys, raws, clean

    def _key_cost(self, ctx: ExecutionContext) -> float:
        return ctx.cost_model.translation if self.translate else 0.0

    # -- phase 1: SUMMARIZE ------------------------------------------------------

    def _summarize_side(self, result: OperatorResult, column: list,
                        side: JoinSide, ctx: ExecutionContext):
        stage = ctx.metrics.stage(f"{self.stage_name}/summarize-{side.value}")
        with ctx.tracer.span(f"summarize-{side.value}", kind="stage",
                             stage=stage):
            return self._summarize_side_inner(result, column, side, ctx, stage)

    def _summarize_side_inner(self, result, column, side, ctx, stage):
        model = ctx.cost_model
        key_cost = self._key_cost(ctx)
        step = max(1, round(1.0 / self.summarize_sample))
        join = self.join
        poll = None if ctx.cancel is None else ctx.cancel.check
        partials = []
        for worker, partition in enumerate(result.partitions):
            keys, _, clean = column[worker]
            if step > 1:
                partition = partition[::step]
                keys = keys[::step]

            def task(worker=worker, sampled=partition, keys=keys,
                     clean=clean):
                ok = clean
                if ok:
                    ok, summary = ctx.guard_batch(
                        join.name, "local_aggregate", len(keys),
                        _fold, join.local_aggregate, keys, side, poll,
                    )
                if not ok:
                    # The batch's partial summary is dropped, not
                    # resumed: a library may have mutated it in place.
                    summary = None
                    for key, record in zip(keys, sampled):
                        ok, folded = ctx.guard_record(
                            join.name, "local_aggregate", _on_key,
                            join.local_aggregate, key, summary, side,
                            detail=record,
                        )
                        if ok:
                            summary = folded
                stage.charge(
                    worker, len(sampled) * (model.record_touch + key_cost)
                )
                return summary

            summary = ctx.run_task(stage, worker, task)
            if summary is not None:
                partials.append(summary)
        # Global merge at the coordinator; partial summaries are tiny, so
        # the network charge is one small constant per worker.
        stage.network_bytes += 64 * max(0, len(partials) - 1)
        merged = None
        for partial in partials:
            if merged is None:
                merged = partial
            else:
                merged = ctx.guard_record(
                    join.name, "global_aggregate", join.global_aggregate,
                    merged, partial, side)[1]
            stage.charge(0, model.record_touch)
        stage.records_in = len(result)
        return merged

    # -- phase 2: PARTITION ------------------------------------------------------

    def _assign_side(self, result: OperatorResult, column: list,
                     side: JoinSide, pplan, ctx: ExecutionContext) -> list:
        """Unnest each record into ``(bucket_id, key, record, assignment,
        raw_key)`` entries, one per bucket.

        ``assignment`` is the record's whole bucket list, sorted, as one
        tuple shared by its entries — ``None`` when the record has a
        single bucket.  COMBINE answers default duplicate avoidance from
        it (:meth:`~repro.engine.combine.CombineSite.keeps`) instead of
        calling ``assign`` again for every candidate pair.

        With tracing on, the per-bucket record histogram is collected
        here — the raw material for the skew diagnostics (replication
        factor, heaviest buckets).
        """
        stage = ctx.metrics.stage(f"{self.stage_name}/assign-{side.value}")
        with ctx.tracer.span(f"assign-{side.value}", kind="stage",
                             stage=stage):
            out = self._assign_side_inner(result, column, side, pplan, ctx,
                                          stage)
        if ctx.tracer.enabled:
            histogram = {}
            for rows in out:
                for entry in rows:
                    histogram[entry[0]] = histogram.get(entry[0], 0) + 1
            ctx.tracer.note_skew(
                f"{self.stage_name}/assign-{side.value}",
                stage.records_in, histogram,
            )
        return out

    def _assign_side_inner(self, result, column, side, pplan, ctx,
                           stage) -> list:
        model = ctx.cost_model
        key_cost = self._key_cost(ctx)
        join = self.join
        poll = None if ctx.cancel is None else ctx.cancel.check
        out = []
        for worker, partition in enumerate(result.partitions):

            def task(worker=worker, partition=partition):
                keys, raws, ok = column[worker]
                if ok:
                    ok, assigned = ctx.guard_batch(
                        join.name, "assign", len(keys),
                        _assign_all, join.assign_list, keys, pplan, side,
                        poll,
                    )
                if not ok:
                    # ``None`` for a record the policy dropped.
                    assigned = [
                        ctx.guard_record(
                            join.name, "assign", _on_key, _checked_assign,
                            key, join.assign_list, pplan, side,
                            detail=record,
                        )[1]
                        for key, record in zip(keys, partition)
                    ]
                rows = []
                assignments = 0
                for bucket_ids, key, record, raw in zip(
                        assigned, keys, partition, raws):
                    if bucket_ids is None:
                        continue
                    assignments += len(bucket_ids)
                    assignment = (tuple(sorted(bucket_ids))
                                  if len(bucket_ids) > 1 else None)
                    for bucket_id in bucket_ids:
                        rows.append(
                            (bucket_id, key, record, assignment, raw))
                stage.charge(
                    worker,
                    len(partition) * (model.record_touch + key_cost)
                    + assignments * model.hash_op,
                )
                return rows

            rows = ctx.run_task(stage, worker, task)
            stage.records_in += len(partition)
            stage.records_out += len(rows)
            out.append(rows)
        return out

    # -- phase 3: COMBINE ---------------------------------------------------------

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        if ctx.breaker is not None:
            # Fail fast before any phase runs when the library is tripped.
            ctx.breaker.check(self.join.name)
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        join = self.join
        tracer = ctx.tracer

        # SUMMARIZE (+ the self-join summarize-once optimization).
        with tracer.span("SUMMARIZE", kind="phase"):
            left_keys = [self._key_column(partition, JoinSide.LEFT, ctx)
                         for partition in left.partitions]
            right_keys = [self._key_column(partition, JoinSide.RIGHT, ctx)
                          for partition in right.partitions]
            summary1 = self._summarize_side(
                left, left_keys, JoinSide.LEFT, ctx
            )
            if self.self_join:
                summary2 = summary1
            else:
                summary2 = self._summarize_side(
                    right, right_keys, JoinSide.RIGHT, ctx
                )
            pplan = ctx.guard_record(join.name, "divide", join.divide,
                                     summary1, summary2)[1]
            # PPlan broadcast: one small object to every worker.
            ctx.metrics.stage(
                f"{self.stage_name}/pplan-broadcast"
            ).network_bytes += 256 * max(0, ctx.num_partitions - 1)

        # PARTITION.
        with tracer.span("PARTITION", kind="phase"):
            if self.dedup.requires_shuffle:
                _number_records(left.partitions, right.partitions)
            left_assigned = self._assign_side(
                left, left_keys, JoinSide.LEFT, pplan, ctx
            )
            right_assigned = self._assign_side(
                right, right_keys, JoinSide.RIGHT, pplan, ctx
            )

        out_schema = left.schema.concat(right.schema)
        name = self.stage_name
        num = ctx.num_partitions
        model = ctx.cost_model

        def send(assigned, stage, targets_of, delivery_units=model.hash_op):
            # An entry exchange: COMBINE admits what arrives itself.
            return route_exchange(assigned, ctx, f"{name}/{stage}",
                                  targets_of, delivery_units, entry_size)

        with tracer.span("COMBINE", kind="phase"):
            # The plan decides how the two sides meet; the kernel of the
            # same name (repro.engine.combine) joins what arrives.
            if join.uses_default_match():
                # Hash-partition both sides on bucket id; join equal buckets.
                kind = "single"

                def by_bucket(entry):
                    return (hash(entry[0]) % num,)

                left_parts = send(left_assigned, "xleft", by_bucket)
                right_parts = send(right_assigned, "xright", by_bucket)
            elif join.supports_partitioned_matching():
                # Co-partition on the match partitions of each bucket.
                kind = "partitioned"

                def by_match_partitions(entry):
                    return join.partition_buckets(entry[0], num, pplan)

                left_parts = send(left_assigned, "route-left",
                                  by_match_partitions)
                right_parts = send(right_assigned, "route-right",
                                   by_match_partitions)
            else:
                # Theta fallback: spread left, broadcast right.
                kind = "theta"
                left_parts = send(left_assigned, "spread", round_robin(num),
                                  model.record_touch)
                right_parts = replicate_exchange(
                    right_assigned, ctx, f"{name}/broadcast", entry_size)
            partitions = self._combine(
                kind, left_parts, right_parts, pplan, out_schema, ctx
            )
            if self.dedup.requires_shuffle:
                partitions = self._eliminate_duplicates(partitions, ctx)

        result = OperatorResult(partitions, out_schema)
        ctx.metrics.output_records = len(result)
        return result

    def _restore_bytes(self, ctx: ExecutionContext, *entry_lists) -> float:
        """Checkpoint-restore size of a combine task's input, only
        computed when a fault plan could actually charge it."""
        if ctx.fault_plan is None or not ctx.fault_plan.any_faults():
            return 0.0
        return float(sum(wire_bytes(entries, ctx, entry_size)
                         for entries in entry_lists))

    def _combine(self, kind: str, left_parts: list, right_parts: list,
                 pplan, out_schema, ctx: ExecutionContext) -> list:
        """Run the ``kind`` kernel over every partition pair.

        With a healthy process pool attached the stage ships to it;
        :func:`~repro.engine.workers.run_combine` returns None for a
        stage the pool cannot ship (unpicklable join state, an exhausted
        restart budget, a non-callback worker failure), and the serial
        loop below then reproduces any genuine error deterministically.
        """
        stage = ctx.metrics.stage(f"{self.stage_name}/combine")
        v_cost = (
            self.verify_cost if self.verify_cost is not None
            else ctx.cost_model.expensive_predicate
        )
        with ctx.tracer.span("combine", kind="stage", stage=stage):
            pool = ctx.active_pool()
            if pool is not None:
                from repro.engine import workers as _workers
                pooled = _workers.run_combine(
                    pool, self, ctx, stage, kind, left_parts, right_parts,
                    pplan, out_schema, v_cost,
                )
                if pooled is not None:
                    return pooled
            kernel = KERNELS[kind]
            out = []
            for worker in range(ctx.num_partitions):
                left = left_parts[worker]
                right = right_parts[worker]
                site = LocalSite(self, ctx, stage, worker, pplan, out_schema,
                                 v_cost)
                rows = ctx.run_task(
                    stage, worker, partial(kernel, site, left, right),
                    self._restore_bytes(ctx, left, right),
                )
                stage.records_out += len(rows)
                out.append(rows)
        return out

    def _eliminate_duplicates(self, partitions: list, ctx: ExecutionContext) -> list:
        """Post-join distinct: shuffle (pair_id, record) entries by pair
        identity, then drop repeated pairs on each worker (the Duplicate
        Elimination stage)."""
        wrapped = [
            [_DedupEntry(pair_id, record) for pair_id, record in partition]
            for partition in partitions
        ]
        shuffled = hash_exchange(
            wrapped, lambda entry: entry.pair_id, ctx,
            f"{self.stage_name}/dedup-shuffle",
        )
        stage = ctx.metrics.stage(f"{self.stage_name}/dedup")
        model = ctx.cost_model
        out = []
        with ctx.tracer.span("dedup", kind="stage", stage=stage):
            for worker, partition in enumerate(shuffled):

                def task(worker=worker, partition=partition):
                    seen = set()
                    rows = []
                    for entry in partition:
                        if entry.pair_id in seen:
                            continue
                        seen.add(entry.pair_id)
                        rows.append(entry.record)
                    stage.charge(worker, len(partition) * model.hash_op)
                    return rows

                rows = ctx.run_task(stage, worker, task)
                stage.records_in += len(partition)
                stage.records_out += len(rows)
                out.append(rows)
        return out
