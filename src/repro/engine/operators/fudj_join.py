"""The FUDJ composite physical operator — the Figure 8 plan.

The optimizer plugs this operator in whenever a join predicate is a
registered FUDJ.  It drives the user's
:class:`~repro.core.flexible_join.FlexibleJoin` through all three phases
on top of the engine primitives:

1. SUMMARIZE — per-worker ``local_aggregate`` over the join keys, a
   coordinator ``global_aggregate`` merge, then ``divide`` to produce the
   PPlan, which is broadcast.
2. PARTITION — ``assign`` unnests each input row to one entry per
   bucket (:meth:`FudjJoin._assign_side`).
3. COMBINE — single-joins (default ``match``) hash-exchange both sides on
   bucket id and run a per-bucket hash join; multi-joins fall back to the
   theta plan (spread left, broadcast right, ``match`` per bucket pair,
   decided once per query on the coordinator before any task runs —
   :func:`~repro.engine.combine.match_relation` — and looked up by the
   tasks).
   ``verify`` then checks each candidate pair, and the dedup strategy
   suppresses duplicates (locally for avoidance, with one more exchange
   for elimination).  This operator picks the plan and runs the
   exchanges; the per-partition join is a kernel in
   :mod:`repro.engine.combine`.

The operator reads its children's value tuples (``rows``), not
records: no :class:`~repro.engine.record.Record` is made for an input
row, each row is sized once per query, in PARTITION, and COMBINE makes
one Record per joined row.

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
(:meth:`ExecutionContext.guard_batch`), and so does a COMBINE task with
its ``verify`` calls (in bounded blocks), and the match relation with
each left bucket's row of ``match`` calls; only when some call raised
are they made again one by one, so the policy acts on exactly the
records (or pairs) that raise, and a raising bucket pair is reported
once per query.
Phases with no single culprit record (``global_aggregate``, ``divide``,
``local_join``, ``dedup``) always fail hard.
"""

from __future__ import annotations

from functools import partial

from repro.core.dedup import DedupStrategy, strategy_for
from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.engine.combine import (
    KERNELS,
    LocalSite,
    bucket_positions,
    match_relation,
)
from repro.engine.context import ExecutionContext
from repro.engine.exchange import (
    by_bucket,
    entry_size,
    hash_exchange,
    replicate_exchange,
    restore_bytes,
    round_robin,
    route_exchange,
)
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.engine.record import Record, entry_sizes, row_function, row_ids
from repro.errors import ExecutionError, FudjCallbackError
from repro.serde.values import unbox

__all__ = ["FudjCallbackError", "FudjJoin"]

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


def _assign_all(assign_list, keys, pplan, side: JoinSide, poll) -> list:
    """One PARTITION task's calls: the bucket list of each of ``keys``
    (``FlexibleJoin.assign_list`` checks the ids are ints).  ``poll`` is
    the query's cancellation check, or None."""
    assigned = []
    for key in keys:
        if poll is not None:
            poll()
        assigned.append(assign_list(key, pplan, side))
    return assigned


def _assign_one(key, assign_list, pplan, side: JoinSide) -> list:
    """The record-by-record form of :func:`_assign_all`."""
    return _assign_all(assign_list, (key,), pplan, side, None)[0]


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

    def _key_column(self, rows: list, schema, side: JoinSide,
                    ctx: ExecutionContext) -> tuple:
        """The one place a join key is made: the key expression, the
        translation layer, then the library's ``prepare`` if it has one.

        Returns ``(keys, raws, clean)``, the lists parallel to ``rows``
        (value tuples laid out as ``schema``): ``keys`` is what the
        callbacks receive, ``raws`` the translated keys a quarantine
        report renders (the same list for a library without ``prepare``),
        and ``clean`` is False when some ``prepare`` raised and left an
        :class:`_Unprepared` in ``keys``.  A plain column key is read
        boxed (``Column.boxed``) and unboxed once, here.
        """
        if not rows:
            return [], [], True
        key = self.left_key if side is JoinSide.LEFT else self.right_key
        boxed_reader = getattr(key, "boxed", None)
        key_fn = (boxed_reader(schema) if boxed_reader is not None
                  else row_function(key, schema))
        boxed = map(key_fn, rows)
        if self.translate:
            raws = ctx.translator.to_external_all(boxed)
        else:
            raws = list(map(unbox, boxed))
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

    def _summarize_side(self, side_rows: tuple, column: list,
                        side: JoinSide, ctx: ExecutionContext):
        stage = ctx.metrics.stage(f"{self.stage_name}/summarize-{side.value}")
        with ctx.tracer.span(f"summarize-{side.value}", kind="stage",
                             stage=stage):
            return self._summarize_side_inner(side_rows, column, side, ctx,
                                              stage)

    def _summarize_side_inner(self, side_rows, column, side, ctx, stage):
        model = ctx.cost_model
        key_cost = self._key_cost(ctx)
        step = max(1, round(1.0 / self.summarize_sample))
        join = self.join
        poll = None if ctx.cancel is None else ctx.cancel.check
        schema, partitions = side_rows

        def task(worker, sampled, keyed):
            keys, _, ok = keyed
            if step > 1:
                sampled, keys = sampled[::step], keys[::step]
            if ok:
                ok, summary = ctx.guard_batch(
                    join.name, "local_aggregate", len(keys),
                    _fold, join.local_aggregate, keys, side, poll,
                )
            if not ok:
                # The batch's partial summary is dropped, not resumed: a
                # library may have mutated it in place.
                summary = None
                for key, row in zip(keys, sampled):
                    ok, folded = ctx.guard_record(
                        join.name, "local_aggregate", _on_key,
                        join.local_aggregate, key, summary, side,
                        detail=Record(schema, row),
                    )
                    if ok:
                        summary = folded
            stage.charge(
                worker, len(sampled) * (model.record_touch + key_cost)
            )
            return summary

        partials = [summary for summary in ctx.run_tasks(
            stage, task, partitions, column) if summary is not None]
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
        stage.records_in = sum(map(len, partitions))
        return merged

    # -- phase 2: PARTITION ------------------------------------------------------

    def _assign_side(self, side_rows: tuple, column: list, ids: list,
                     side: JoinSide, pplan, ctx: ExecutionContext) -> list:
        """Unnest each row into ``(bucket_id, key, row, size, rid,
        assignment, raw_key)`` entries, one per bucket.

        ``size`` is the entry's wire size, the row's bytes plus 9 for the
        bucket id (:func:`~repro.engine.record.entry_sizes`): made here,
        once per row per query, and read by every exchange, admission,
        checkpoint and restore after.  ``rid`` is the row's id from
        ``ids`` (:func:`~repro.engine.record.row_ids`), a
        duplicate-eliminating join's half of a pair id.  ``assignment``
        is the row's whole bucket list, sorted, as one tuple shared by its
        entries — ``None`` when the row has a single bucket.  COMBINE
        answers default duplicate avoidance from it
        (:meth:`~repro.engine.combine.CombineSite.keeps`) instead of
        calling ``assign`` again for every candidate pair.

        With tracing on, the per-bucket record histogram is collected
        here — the raw material for the skew diagnostics (replication
        factor, heaviest buckets).
        """
        stage = ctx.metrics.stage(f"{self.stage_name}/assign-{side.value}")
        with ctx.tracer.span(f"assign-{side.value}", kind="stage",
                             stage=stage):
            out = self._assign_side_inner(side_rows, column, ids, side,
                                          pplan, ctx, stage)
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

    def _assign_side_inner(self, side_rows, column, ids, side, pplan, ctx,
                           stage) -> list:
        model = ctx.cost_model
        key_cost = self._key_cost(ctx)
        join = self.join
        poll = None if ctx.cancel is None else ctx.cancel.check
        schema, partitions = side_rows

        def task(worker, partition, keyed, rids):
            keys, raws, ok = keyed
            if ok:
                ok, assigned = ctx.guard_batch(
                    join.name, "assign", len(keys),
                    _assign_all, join.assign_list, keys, pplan, side,
                    poll,
                )
            if not ok:
                # ``None`` for a row the policy dropped.
                assigned = [
                    ctx.guard_record(
                        join.name, "assign", _on_key, _assign_one,
                        key, join.assign_list, pplan, side,
                        detail=Record(schema, row),
                    )[1]
                    for key, row in zip(keys, partition)
                ]
            rows = []
            append = rows.append
            assignments = 0
            for bucket_ids, key, row, size, rid, raw in zip(
                    assigned, keys, partition, entry_sizes(partition), rids,
                    raws):
                if bucket_ids is None:
                    continue
                width = len(bucket_ids)
                assignments += width
                if width == 1:
                    append((bucket_ids[0], key, row, size, rid, None, raw))
                    continue
                assignment = tuple(sorted(bucket_ids))
                for bucket_id in bucket_ids:
                    append((bucket_id, key, row, size, rid, assignment, raw))
            stage.charge(
                worker,
                len(partition) * (model.record_touch + key_cost)
                + assignments * model.hash_op,
            )
            return rows

        out = ctx.run_tasks(stage, task, partitions, column, ids)
        stage.records_in += sum(map(len, partitions))
        stage.records_out += sum(map(len, out))
        return out

    # -- phase 3: COMBINE ---------------------------------------------------------

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        if ctx.breaker is not None:
            # Fail fast before any phase runs when the library is tripped.
            ctx.breaker.check(self.join.name)
        left = self.left.rows(ctx)
        right = self.right.rows(ctx)
        join = self.join
        tracer = ctx.tracer

        # SUMMARIZE (+ the self-join summarize-once optimization).
        with tracer.span("SUMMARIZE", kind="phase"):
            left_keys = [self._key_column(rows, left[0], JoinSide.LEFT, ctx)
                         for rows in left[1]]
            right_keys = [self._key_column(rows, right[0], JoinSide.RIGHT,
                                           ctx)
                          for rows in right[1]]
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
            left_ids, right_ids = row_ids(left[1], right[1])
            left_assigned = self._assign_side(
                left, left_keys, left_ids, JoinSide.LEFT, pplan, ctx
            )
            right_assigned = self._assign_side(
                right, right_keys, right_ids, JoinSide.RIGHT, pplan, ctx
            )

        schemas = (left[0], right[0])
        out_schema = left[0].concat(right[0])
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
                left_parts = send(left_assigned, "xleft", by_bucket(num))
                right_parts = send(right_assigned, "xright", by_bucket(num))
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
                kind, left_parts, right_parts, pplan, schemas, out_schema,
                ctx)
            if self.dedup.requires_shuffle:
                partitions = self._eliminate_duplicates(partitions, ctx)

        result = OperatorResult(partitions, out_schema)
        ctx.metrics.output_records = len(result)
        return result

    def _combine(self, kind: str, left_parts: list, right_parts: list,
                 pplan, schemas: tuple, out_schema,
                 ctx: ExecutionContext) -> list:
        """Run the ``kind`` kernel over every partition pair.

        The query's ``match`` relation is decided first, on the
        coordinator (:func:`~repro.engine.combine.match_relation`), and
        every task — on either backend — looks its candidates up in it;
        on the theta plan the broadcast's bucket -> positions map is made
        beside it, once (:func:`~repro.engine.combine.bucket_positions`).
        With a healthy process pool attached the stage ships to it;
        :func:`~repro.engine.workers.run_combine` returns None for a
        stage the pool cannot ship (unpicklable join state, an exhausted
        restart budget, a non-callback worker failure), and the serial
        loop below then reproduces any genuine error deterministically.
        ``schemas`` are the two sides' row layouts, which a spilled
        entry's key is made again from.
        """
        stage = ctx.metrics.stage(f"{self.stage_name}/combine")
        v_cost = (
            self.verify_cost if self.verify_cost is not None
            else ctx.cost_model.expensive_predicate
        )
        with ctx.tracer.span("combine", kind="stage", stage=stage):
            relation = match_relation(ctx, self.join, kind, left_parts,
                                      right_parts, pplan)
            positions = (bucket_positions(right_parts[0])
                         if kind == "theta" else None)
            pool = ctx.active_pool()
            if pool is not None:
                from repro.engine import workers as _workers
                pooled = _workers.run_combine(
                    pool, self, ctx, stage, kind, left_parts, right_parts,
                    pplan, out_schema, v_cost, relation, positions,
                )
                if pooled is not None:
                    return pooled
            kernel = KERNELS[kind]

            def task(worker, left, right):
                return kernel(LocalSite(self, ctx, stage, worker, pplan,
                                        schemas, out_schema, v_cost,
                                        relation, positions),
                              left, right)

            out = ctx.run_tasks(stage, task, left_parts, right_parts,
                                input_bytes=partial(restore_bytes, ctx))
            stage.records_out += sum(map(len, out))
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

        def task(worker, partition):
            seen = set()
            rows = []
            for entry in partition:
                if entry.pair_id in seen:
                    continue
                seen.add(entry.pair_id)
                rows.append(entry.record)
            stage.charge(worker, len(partition) * model.hash_op)
            return rows

        with ctx.tracer.span("dedup", kind="stage", stage=stage):
            out = ctx.run_tasks(stage, task, shuffled)
            stage.records_in += sum(map(len, shuffled))
            stage.records_out += sum(map(len, out))
        return out
