"""Built-in overlapping-interval join operator (hand-written baseline).

OIPJoin as a dedicated engine operator: timeline summary, granule
bucketing with the smallest-fitting-bucket rule, the theta bucket-matching
plan (spread one side, broadcast the other — AsterixDB has no partitioned
theta join, paper §VII-C), and fused verification.  Single-assign, so no
duplicate handling is needed.  Moving entries, task recovery and memory
are the engine's, as for any operator.
"""

from __future__ import annotations

import math
from functools import partial

from repro.engine.combine import bucket_positions
from repro.engine.context import ExecutionContext
from repro.engine.exchange import (
    entry_size,
    replicate_exchange,
    restore_bytes,
    round_robin,
    route_exchange,
)
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.engine.record import Record, entry_sizes, row_function, row_ids
from repro.engine.resources import EntrySpillCodec
from repro.errors import ExecutionError

_BITS = 16
_MASK = (1 << _BITS) - 1


class BuiltinIntervalJoinOperator(PhysicalOperator):
    """OIPJoin-style overlap join as a dedicated operator."""

    label = "builtin-interval-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key, right_key, num_buckets: int = 100) -> None:
        super().__init__()
        if not 1 <= num_buckets <= _MASK:
            raise ExecutionError(
                f"number of buckets must be in [1, {_MASK}], got {num_buckets}"
            )
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.num_buckets = num_buckets

    def describe(self) -> str:
        return f"BUILTIN INTERVAL JOIN (buckets={self.num_buckets})"

    def children(self) -> list:
        return [self.left, self.right]

    # -- phase 1: timeline summary ----------------------------------------------

    def _side_range(self, partitions: list, key_fn, ctx: ExecutionContext):
        stage = ctx.metrics.stage(f"{self.stage_name}/range")
        model = ctx.cost_model

        def task(worker, partition):
            stage.charge(worker, len(partition) * model.record_touch)
            intervals = list(map(key_fn, partition))
            if not intervals:
                return None
            return (min(i.start for i in intervals),
                    max(i.end for i in intervals))

        ranges = [local for local in ctx.run_tasks(stage, task, partitions)
                  if local is not None]
        stage.network_bytes += 32 * max(0, ctx.num_partitions - 1)
        if not ranges:
            return None
        return min(low for low, _ in ranges), max(high for _, high in ranges)

    # -- phase 2: bucket assignment -----------------------------------------------

    def _bucket_of(self, interval, origin: float, granule: float) -> int:
        top = self.num_buckets - 1
        start = int((interval.start - origin) / granule)
        start = max(0, min(top, start))
        end = int(math.ceil((interval.end - origin) / granule)) - 1
        end = max(start, min(top, end))
        return (start << _BITS) | end

    def _assign(self, partitions: list, ids: list, key_fn, origin, granule,
                ctx: ExecutionContext, tag: str) -> list:
        """Each row as the entry ``(bucket_id, interval, row, size, rid)``
        (:func:`~repro.engine.record.entry_sizes`)."""
        stage = ctx.metrics.stage(f"{self.stage_name}/assign-{tag}")
        model = ctx.cost_model

        def task(worker, partition, rids):
            rows = []
            for row, size, rid in zip(partition, entry_sizes(partition),
                                      rids):
                interval = key_fn(row)
                rows.append((self._bucket_of(interval, origin, granule),
                             interval, row, size, rid))
            stage.charge(worker, len(partition) * (model.record_touch + model.hash_op))
            return rows

        assigned = ctx.run_tasks(stage, task, partitions, ids)
        stage.records_in += sum(map(len, partitions))
        return assigned

    # -- phase 3: theta bucket matching ---------------------------------------------

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        left_schema, left = self.left.rows(ctx)
        right_schema, right = self.right.rows(ctx)
        out_schema = left_schema.concat(right_schema)

        # Keys are read off the value tuples, as FUDJ's key column is.
        left_key = row_function(self.left_key, left_schema)
        right_key = row_function(self.right_key, right_schema)
        left_range = self._side_range(left, left_key, ctx)
        right_range = self._side_range(right, right_key, ctx)
        if left_range is None or right_range is None:
            return OperatorResult([[] for _ in range(ctx.num_partitions)], out_schema)
        origin = min(left_range[0], right_range[0])
        granule = (max(left_range[1], right_range[1]) - origin) / self.num_buckets
        if granule <= 0.0:
            # A degenerate timeline, or a tiny positive span whose granule
            # underflows to zero, falls back to unit granules.
            granule = 1.0

        left_ids, right_ids = row_ids(left, right)
        left_assigned = self._assign(left, left_ids, left_key, origin,
                                     granule, ctx, "left")
        right_assigned = self._assign(right, right_ids, right_key, origin,
                                      granule, ctx, "right")

        # Theta plan: spread left round-robin, broadcast right.
        model = ctx.cost_model
        left_parts = route_exchange(
            left_assigned, ctx, f"{self.stage_name}/spread",
            round_robin(ctx.num_partitions), model.record_touch, entry_size)
        right_parts = replicate_exchange(
            right_assigned, ctx, f"{self.stage_name}/broadcast", entry_size)

        stage = ctx.metrics.stage(f"{self.stage_name}/join")

        def task(worker, local, broadcast):
            # The broadcast copy is resident: the accountant prices it and,
            # under a memory budget, spills and replays what does not fit.
            broadcast = ctx.admit(stage, worker, broadcast,
                                  EntrySpillCodec(right_key))
            # No partitioned theta join exists, so bucket matching is
            # charged as a plain NLJ over (bucket_id, row) entries: each
            # worker scans the whole broadcast side once per local row
            # (paper SVII-C).  Tabling the broadcast is charged per node.
            stage.charge(worker, (len(local) + len(broadcast)) * model.hash_op)
            rows = []
            verified = 0
            for entry1, candidates in _bucket_pairs(local, broadcast):
                verified += len(candidates)
                i1 = entry1[1]
                row1 = entry1[2]
                for entry2 in candidates:
                    i2 = entry2[1]
                    if i1.start < i2.end and i1.end > i2.start:
                        rows.append(Record(out_schema, row1 + entry2[2]))
            # Interval overlap is cheap whether it matches or not.
            stage.charge(
                worker,
                len(local) * len(broadcast) * model.match_op
                + verified * model.comparison * 2,
            )
            ctx.metrics.comparisons += verified
            return rows

        out = ctx.run_tasks(stage, task, left_parts, right_parts,
                            input_bytes=partial(restore_bytes, ctx))
        stage.records_out += sum(map(len, out))
        result = OperatorResult(out, out_schema)
        ctx.metrics.output_records = len(result)
        return result


def _bucket_pairs(local: list, broadcast: list):
    """Each local entry with the broadcast entries whose granule range
    overlaps its own, in broadcast order — what the nested loop over the
    broadcast finds.  The broadcast is grouped by bucket id once, and
    each distinct bucket pair is tested once."""
    positions = bucket_positions(broadcast)
    found = {}
    for entry1 in local:
        b1 = entry1[0]
        candidates = found.get(b1)
        if candidates is None:
            s1, e1 = b1 >> _BITS, b1 & _MASK
            candidates = found[b1] = [
                broadcast[position] for position in sorted(
                    position for b2, group in positions.items()
                    if s1 <= (b2 & _MASK) and e1 >= (b2 >> _BITS)
                    for position in group)]
        yield entry1, candidates
