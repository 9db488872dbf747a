"""Binary join operators: hash join and block nested-loop join.

The hash join is the engine's workhorse for equi-joins (and for FUDJ
single-joins on bucket ids).  The block nested-loop join broadcasts its
right input and evaluates an arbitrary predicate per pair — this is the
paper's *on-top* baseline when the predicate is a scalar UDF, and the
theta-join fallback for multi-join bucket matching.
"""

from __future__ import annotations

from collections import defaultdict

from repro.engine.context import ExecutionContext
from repro.engine.exchange import broadcast_exchange, hash_exchange, random_exchange
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.engine.resources import RecordSpillCodec


class HashJoin(PhysicalOperator):
    """Distributed hash equi-join.

    Both inputs are hash-exchanged on their key; each worker builds a hash
    table over its left fragment and probes with its right fragment.  An
    optional ``residual`` predicate filters joined pairs (charged at
    ``residual_cost`` units per evaluation).
    """

    label = "hash-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key, right_key, residual=None,
                 residual_cost: float = None) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual
        self.residual_cost = residual_cost

    def describe(self) -> str:
        return "HASH JOIN" + (" (+residual)" if self.residual else "")

    def children(self) -> list:
        return [self.left, self.right]

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        left_parts = hash_exchange(
            left.partitions, self.left_key, ctx, f"{self.stage_name}/xleft"
        )
        right_parts = hash_exchange(
            right.partitions, self.right_key, ctx, f"{self.stage_name}/xright"
        )
        return self._build_and_probe(ctx, left, right, left_parts,
                                     right_parts, build_left=True)

    def _build_and_probe(self, ctx: ExecutionContext, left: OperatorResult,
                         right: OperatorResult, left_parts: list,
                         right_parts: list,
                         build_left: bool) -> OperatorResult:
        """One task per worker: table the build side's fragment, probe it
        with the other side's, emit ``left ++ right`` rows."""
        sides = [(left_parts, self.left_key, left.schema),
                 (right_parts, self.right_key, right.schema)]
        if not build_left:
            sides.reverse()
        (build_parts, build_key, build_schema), probe = sides
        probe_parts, probe_key, _ = probe
        schema = left.schema.concat(right.schema)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        residual = self.residual
        pair_cost = model.record_touch
        if residual is not None:
            pair_cost += (self.residual_cost if self.residual_cost is not None
                          else model.comparison)
        out = []
        for worker in range(ctx.num_partitions):

            def task(worker=worker):
                # The build side is resident state: the accountant prices
                # its spill (and, under a memory budget, actually spills
                # and replays the overflow) before the table is built.
                build = ctx.admit(stage, worker, build_parts[worker],
                                  RecordSpillCodec(build_schema))
                table = defaultdict(list)
                for record in build:
                    table[build_key(record)].append(record)
                stage.charge(worker, len(build) * model.hash_op)
                rows = []
                probes = 0
                pairs = 0
                for probe in probe_parts[worker]:
                    probes += 1
                    for built in table.get(probe_key(probe), ()):
                        pairs += 1
                        joined = (built.concat(probe, schema) if build_left
                                  else probe.concat(built, schema))
                        if residual is not None and not residual(joined):
                            continue
                        rows.append(joined)
                stage.charge(worker,
                             probes * model.hash_op + pairs * pair_cost)
                ctx.metrics.comparisons += pairs
                return rows

            out.append(ctx.run_task(stage, worker, task))
        stage.records_in = len(left) + len(right)
        stage.records_out = sum(len(p) for p in out)
        return OperatorResult(out, schema)


class BroadcastHashJoin(HashJoin):
    """Hash equi-join with the right (build) side broadcast.

    The left input stays where it is; the right input is broadcast to
    every worker over the shared fabric, each worker builds a hash table
    over the full right side and probes with its local left fragment.
    Chosen by the cost-based operator selection when the build side's
    estimated bytes fit one worker's memory grant and replicating it is
    cheaper than shuffling both sides (small-dimension joins).  Pays the
    same hash/probe/pair unit prices as :class:`HashJoin`; what changes
    is the exchange: fabric broadcast bytes instead of point-to-point
    shuffles.
    """

    label = "broadcast-hash-join"

    def describe(self) -> str:
        return ("BROADCAST HASH JOIN (broadcast right)"
                + (" (+residual)" if self.residual else ""))

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        right_parts = broadcast_exchange(
            right.partitions, ctx, f"{self.stage_name}/broadcast"
        )
        return self._build_and_probe(ctx, left, right, left.partitions,
                                     right_parts, build_left=False)


class BlockNestedLoopJoin(PhysicalOperator):
    """Broadcast nested-loop join with an arbitrary pair predicate.

    The right input is broadcast to every worker; each worker loops its
    left fragment against the full right input.  ``predicate_cost`` is the
    per-pair charge — for the on-top baseline the planner passes the cost
    model's ``expensive_predicate``, which is what makes NLJ plans pay the
    price the paper describes.

    ``spread_left`` randomly repartitions the left side first, which is
    what AsterixDB does for theta joins when no partitioning key exists
    (paper §VII-C).
    """

    label = "nl-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 predicate, predicate_cost: float = None,
                 spread_left: bool = False) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.predicate = predicate
        self.predicate_cost = predicate_cost
        self.spread_left = spread_left

    def describe(self) -> str:
        return "NESTED LOOP JOIN (broadcast right)"

    def children(self) -> list:
        return [self.left, self.right]

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        left_parts = left.partitions
        if self.spread_left:
            left_parts = random_exchange(
                left_parts, ctx, f"{self.stage_name}/spread"
            )
        right_parts = broadcast_exchange(
            right.partitions, ctx, f"{self.stage_name}/broadcast"
        )
        schema = left.schema.concat(right.schema)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        pair_cost = (
            self.predicate_cost
            if self.predicate_cost is not None
            else model.expensive_predicate
        )
        out = []
        for worker in range(ctx.num_partitions):

            def task(worker=worker):
                rows = []
                broadcast = right_parts[worker]
                pairs = 0
                units = 0.0
                for l_record in left_parts[worker]:
                    for r_record in broadcast:
                        pairs += 1
                        joined = l_record.concat(r_record, schema)
                        matched = bool(self.predicate(joined))
                        units += model.predicate_units(pair_cost, matched)
                        if matched:
                            rows.append(joined)
                stage.charge(worker, units)
                ctx.metrics.comparisons += pairs
                return rows

            out.append(ctx.run_task(stage, worker, task))
        stage.records_in = len(left) + len(right)
        stage.records_out = sum(len(p) for p in out)
        return OperatorResult(out, schema)
