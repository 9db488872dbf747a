"""Global ORDER BY."""

from __future__ import annotations

import math

from repro.engine.context import ExecutionContext
from repro.engine.exchange import route_exchange
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.engine.resources import RecordSpillCodec
from repro.serde.values import unbox


class Sort(PhysicalOperator):
    """Globally ordered output: local sorts, a gather of the sorted runs
    to worker 0 (an exchange, so it is serialized, faulted, checkpointed
    and traced like any other), and a merge there.

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
        runs = []
        for worker, partition in enumerate(source.partitions):
            local = self._sort(partition)
            n = max(1, len(local))
            stage.charge(worker, len(local) * model.comparison * max(1.0, math.log2(n)))
            runs.append(local)
        # The runs arrive on worker 0 in worker order, as the merge reads
        # them; under a memory budget worker 0 admits what it receives.
        gathered = route_exchange(runs, ctx, f"{self.stage_name}/gather",
                                  lambda record: 0, model.record_touch,
                                  codec=RecordSpillCodec)
        merged = self._sort(gathered[0])
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
