"""Global ORDER BY."""

from __future__ import annotations

import math

from repro.engine.context import ExecutionContext
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.serde.values import unbox


class Sort(PhysicalOperator):
    """Globally ordered output: local sorts plus a coordinator merge.

    ``keys`` is a list of ``(key_fn, descending)``.  Output lands on
    worker 0 in order (like a query result returned to the client).
    """

    label = "sort"

    def __init__(self, child: PhysicalOperator, keys) -> None:
        super().__init__()
        self.child = child
        self.keys = list(keys)

    def describe(self) -> str:
        return f"SORT ({len(self.keys)} key(s))"

    def children(self) -> list:
        return [self.child]

    def _sort(self, records: list) -> list:
        # Stable multi-key sort: apply keys right-to-left.
        out = list(records)
        for key_fn, descending in reversed(self.keys):
            out.sort(key=lambda r: _orderable(key_fn(r)), reverse=descending)
        return out

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        source = self.child.execute(ctx)
        stage = ctx.metrics.stage(self.stage_name)
        model = ctx.cost_model
        merged = []
        total_bytes = 0
        for worker, partition in enumerate(source.partitions):
            local = self._sort(partition)
            n = max(1, len(local))
            stage.charge(worker, len(local) * model.comparison * max(1.0, math.log2(n)))
            merged.extend(local)
            if worker != 0:
                total_bytes += sum(r.serialized_size() for r in local) if partition else 0
        stage.network_bytes += total_bytes
        merged = self._sort(merged)
        stage.charge(0, len(merged) * model.comparison)
        stage.records_in = stage.records_out = len(source)
        partitions = [[] for _ in range(ctx.num_partitions)]
        partitions[0] = merged
        return OperatorResult(partitions, source.schema)


def _orderable(value):
    """Make a value sortable: unbox engine values, map None lowest."""
    plain = unbox(value)
    if plain is None:
        return (0, 0)
    return (1, plain)
