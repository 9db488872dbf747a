"""Built-in PBSM spatial join operator (hand-written baseline).

This is the operator a DBMS developer would write to add PBSM to the
engine: its own summary pass, grid construction, tile replication,
per-tile verification, and reference-point duplicate avoidance — all
fused, no FUDJ framework, no translation layer.  Moving entries, task
recovery and memory are the engine's, as for any operator.  The
:class:`AdvancedSpatialJoinOperator` subclass adds the local plane-sweep
optimization of paper §VII-F.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial

from repro.engine.context import ExecutionContext
from repro.engine.exchange import by_bucket, entry_size, restore_bytes, route_exchange
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.engine.record import Record, entry_sizes, row_function, row_ids
from repro.engine.resources import EntrySpillCodec, restore_tails
from repro.errors import ExecutionError
from repro.geometry import UniformGrid, contains, intersects, mbr_of, plane_sweep_pairs


class BuiltinSpatialJoinOperator(PhysicalOperator):
    """PBSM as a dedicated engine operator.

    Args:
        left, right: child operators.
        left_key, right_key: the join key of a row, as
            :class:`~repro.engine.operators.fudj_join.FudjJoin` takes it:
            a bound expression or a plain ``callable(record)``
            (:func:`~repro.engine.record.row_function`).
        n: grid size (n x n tiles over the joint MBR intersection).
        predicate: ``"intersects"`` or ``"contains"`` — the verification
            predicate applied to each candidate pair.
    """

    label = "builtin-spatial-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key, right_key, n: int = 64,
                 predicate: str = "intersects") -> None:
        super().__init__()
        if n < 1:
            raise ExecutionError(f"grid size must be >= 1, got {n}")
        if predicate not in ("intersects", "contains"):
            raise ExecutionError(f"unknown spatial predicate: {predicate}")
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.n = n
        self.predicate = predicate

    def describe(self) -> str:
        return f"BUILTIN SPATIAL JOIN [{self.predicate}] (n={self.n})"

    def children(self) -> list:
        return [self.left, self.right]

    # -- phase 1: MBR summary ----------------------------------------------------

    def _side_mbr(self, partitions: list, keys: list,
                  ctx: ExecutionContext):
        stage = ctx.metrics.stage(f"{self.stage_name}/mbr")
        model = ctx.cost_model

        def task(worker, partition, geometries):
            local = None
            for geometry in geometries:
                local = (mbr_of(geometry) if local is None
                         else local.cover(geometry))
            stage.charge(worker, len(partition) * model.record_touch)
            return local

        side_mbr = None
        for local in ctx.run_tasks(stage, task, partitions, keys):
            if local is not None:
                side_mbr = local if side_mbr is None else side_mbr.union(local)
        stage.network_bytes += 64 * max(0, ctx.num_partitions - 1)
        return side_mbr

    # -- phase 2: tile replication + exchange --------------------------------------

    def _replicate(self, partitions: list, keys: list, ids: list, grid,
                   ctx: ExecutionContext, tag: str) -> list:
        """Per worker, emit ``(tile_id, geometry, row, size, rid, box)``
        entries and hash-exchange them on tile id.  Tiles come off the
        geometry's coordinates (:meth:`UniformGrid.tile_ids_of`); the box
        is kept for the per-tile MBR test."""
        stage = ctx.metrics.stage(f"{self.stage_name}/tiles-{tag}")
        model = ctx.cost_model

        def task(worker, partition, geometries, rids):
            rows = []
            for row, geometry, size, rid in zip(
                    partition, geometries, entry_sizes(partition), rids):
                box = mbr_of(geometry)
                for tile_id in grid.tile_ids_of(geometry):
                    rows.append((tile_id, geometry, row, size, rid, box))
            stage.charge(worker, len(partition) * model.record_touch
                         + len(rows) * model.hash_op)
            return rows

        assigned = ctx.run_tasks(stage, task, partitions, keys, ids)
        stage.records_in += sum(map(len, partitions))
        stage.records_out += sum(map(len, assigned))
        return route_exchange(assigned, ctx, f"{self.stage_name}/x-{tag}",
                              by_bucket(ctx.num_partitions), model.hash_op,
                              entry_size)

    # -- phase 3: per-tile join -------------------------------------------------------

    def _verify(self, geometry1, geometry2) -> bool:
        if self.predicate == "contains":
            return contains(geometry1, geometry2)
        return intersects(geometry1, geometry2)

    def _join_tile(self, tile_id, left_entries, right_entries, grid,
                   out_schema, counter):
        """All-pairs verification within one tile, reference-point dedup."""
        rows = []
        for _, geom1, row1, _, _, mbr1 in left_entries:
            for _, geom2, row2, _, _, mbr2 in right_entries:
                counter["pairs"] += 1
                if not mbr1.intersects(mbr2):
                    continue
                if grid.reference_tile_id(mbr1, mbr2) != tile_id:
                    continue  # another tile owns this pair
                matched = self._verify(geom1, geom2)
                counter["verified"] += 1
                counter["hits"] += 1 if matched else 0
                if matched:
                    rows.append(Record(out_schema, row1 + row2))
        return rows

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        left_schema, left = self.left.rows(ctx)
        right_schema, right = self.right.rows(ctx)

        left_key = row_function(self.left_key, left_schema)
        left_keys = _geometries(left, left_key)
        right_keys = _geometries(right, row_function(self.right_key,
                                                     right_schema))
        left_mbr = self._side_mbr(left, left_keys, ctx)
        right_mbr = self._side_mbr(right, right_keys, ctx)
        out_schema = left_schema.concat(right_schema)
        if left_mbr is None or right_mbr is None:
            return OperatorResult([[] for _ in range(ctx.num_partitions)], out_schema)
        overlap = left_mbr.intersection(right_mbr)
        if overlap is None:
            return OperatorResult([[] for _ in range(ctx.num_partitions)], out_schema)
        grid = UniformGrid(overlap, self.n)

        left_ids, right_ids = row_ids(left, right)
        left_parts = self._replicate(left, left_keys, left_ids, grid, ctx,
                                     "left")
        right_parts = self._replicate(right, right_keys, right_ids, grid,
                                      ctx, "right")

        stage = ctx.metrics.stage(f"{self.stage_name}/join")
        model = ctx.cost_model

        def task(worker, left_entries, right_entries):
            # The left side is resident: the accountant prices it and,
            # under a memory budget, spills and replays what does not fit.
            build = restore_tails(left_entries, ctx.admit(
                stage, worker, left_entries,
                EntrySpillCodec(left_key)))
            tiles_left = defaultdict(list)
            for entry in build:
                tiles_left[entry[0]].append(entry)
            tiles_right = defaultdict(list)
            for entry in right_entries:
                tiles_right[entry[0]].append(entry)
            counter = {"pairs": 0, "verified": 0, "hits": 0}
            rows = []
            for tile_id, tile_left in tiles_left.items():
                tile_right = tiles_right.get(tile_id)
                if tile_right:
                    rows.extend(self._join_tile(tile_id, tile_left, tile_right,
                                                grid, out_schema, counter))
            misses = counter["verified"] - counter["hits"]
            stage.charge(
                worker,
                counter["pairs"] * model.comparison
                + counter["hits"] * model.expensive_predicate
                + misses * model.predicate_units(model.expensive_predicate, False),
            )
            ctx.metrics.comparisons += counter["pairs"]
            return rows

        out = ctx.run_tasks(stage, task, left_parts, right_parts,
                            input_bytes=partial(restore_bytes, ctx))
        stage.records_out += sum(map(len, out))
        result = OperatorResult(out, out_schema)
        ctx.metrics.output_records = len(result)
        return result


def _geometries(partitions: list, key_fn) -> list:
    """Each partition's geometries, read once off the value tuples; the
    MBR and tile phases both use them."""
    return [list(map(key_fn, partition)) for partition in partitions]


class AdvancedSpatialJoinOperator(BuiltinSpatialJoinOperator):
    """The §VII-F operator: plane-sweep within each tile.

    Geometries in a tile are sorted by min-x and swept, so MBR tests drop
    from ``O(|L| * |R|)`` to near ``O((|L|+|R|) log + k)`` per tile —
    the local join optimization the paper measures at ~1.38x.
    """

    label = "advanced-spatial-join"

    def describe(self) -> str:
        return f"ADVANCED SPATIAL JOIN [plane-sweep, {self.predicate}] (n={self.n})"

    def _join_tile(self, tile_id, left_entries, right_entries, grid,
                   out_schema, counter):
        def count():
            counter["pairs"] += 1

        sweep_left = [(mbr, (mbr, geom, row))
                      for _, geom, row, _, _, mbr in left_entries]
        sweep_right = [(mbr, (mbr, geom, row))
                       for _, geom, row, _, _, mbr in right_entries]
        rows = []
        for (mbr1, geom1, row1), (mbr2, geom2, row2) in plane_sweep_pairs(
            sweep_left, sweep_right, counter=count
        ):
            if grid.reference_tile_id(mbr1, mbr2) != tile_id:
                continue
            matched = self._verify(geom1, geom2)
            counter["verified"] += 1
            counter["hits"] += 1 if matched else 0
            if matched:
                rows.append(Record(out_schema, row1 + row2))
        return rows
