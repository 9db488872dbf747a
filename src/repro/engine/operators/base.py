"""Operator base class and the result type flowing between operators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.engine.context import ExecutionContext
from repro.engine.record import Record, Schema

_IDS = itertools.count(1)


def format_estimate(value: float) -> str:
    """Deterministic short rendering of a row bound: integers print
    plain, non-integers keep one decimal, infinities print ``inf``."""
    if value != value or value in (float("inf"), float("-inf")):
        return "inf"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.1f}"


@dataclass
class OperatorResult:
    """Output of one physical operator: partitions plus their schema.

    Partitions are frozen at construction (no operator mutates a result
    it has returned), so the record count is computed once here —
    ``len()`` is called per operator per query by tracing and the
    printer, and re-summing every partition each time was pure waste.
    """

    partitions: list
    schema: Schema

    def __post_init__(self) -> None:
        self._num_records = sum(len(p) for p in self.partitions)

    def __len__(self) -> int:
        return self._num_records

    def all_records(self):
        """Yield every record across partitions."""
        for partition in self.partitions:
            yield from partition

    def value_rows(self) -> list:
        """Per-worker lists of the records' value tuples."""
        return [[record.values for record in partition]
                for partition in self.partitions]


def _rows_out(result: tuple) -> int:
    return sum(map(len, result[1]))


class PhysicalOperator:
    """Base class for physical operators.

    Subclasses implement :meth:`run`; callers invoke :meth:`execute` for
    records or :meth:`rows` for bare value tuples, either of which wraps
    the run in a tracing span when the context traces (so the span tree
    is shaped exactly like the physical plan).  ``stage_name`` is unique
    per operator instance so metrics can tell two filters apart.
    """

    label = "operator"

    #: Pessimistic row bound attached by the cost-based optimizer; rule
    #: plans leave it None and render exactly as before.
    est_rows = None

    def __init__(self) -> None:
        self.stage_name = f"{self.label}#{next(_IDS)}"

    def execute(self, ctx: ExecutionContext) -> OperatorResult:
        """Run the operator (inside an ``operator`` span when tracing).

        Dispatches to :meth:`run_batches` when the context executes in
        batch mode; operators without a vectorized path fall back to
        :meth:`run` (the default :meth:`run_batches`), while their
        children still dispatch independently — a row-only join happily
        consumes batched children through the duck-typed
        :class:`~repro.engine.batch.BatchResult` surface.
        """
        ctx.check_cancel()  # every operator boundary is a checkpoint
        runner = self.run_batches if ctx.execution == "batch" else self.run
        return self._spanned(ctx, runner, len)

    def rows(self, ctx: ExecutionContext) -> tuple:
        """The operator's output as ``(schema, per-worker lists of value
        tuples)``: what a consumer that reads its child row by row (an
        aggregate's local fold, the result's row dicts) asks for instead
        of :meth:`execute`.  Here that is the executed result's values;
        a :class:`StreamingOperator` never makes the records."""
        result = self.execute(ctx)
        return result.schema, result.value_rows()

    def _spanned(self, ctx: ExecutionContext, runner, records_out):
        tracer = ctx.tracer
        if not tracer.enabled:
            return runner(ctx)
        with tracer.span(self.stage_name, kind="operator") as span:
            result = runner(ctx)
            stage = ctx.metrics.find_stage(self.stage_name)
            if stage is not None:
                span.copy_stage(stage)
            span.records_out = records_out(result)
            batches = getattr(result, "num_batches", None)
            if batches is not None:
                span.meta["batches_out"] = batches
            return result

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        """Compute the operator's partitioned output (subclass hook)."""
        raise NotImplementedError

    def run_batches(self, ctx: ExecutionContext):
        """Batched execution hook; operators with a vectorized path
        override this to return a :class:`~repro.engine.batch.BatchResult`.
        The default keeps the operator on the row path."""
        return self.run(ctx)

    def explain(self, indent: int = 0) -> str:
        """A one-operator-per-line plan rendering (children indented).

        Cost-optimized plans carry pessimistic row bounds; each is
        rendered as ``[est<=N rows]`` after the operator description.
        """
        line = " " * indent + self.describe()
        if self.est_rows is not None:
            line += f"  [est<={format_estimate(self.est_rows)} rows]"
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + 2))
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line description used by :meth:`explain`."""
        return self.label

    def children(self) -> list:
        """Child operators, outermost first."""
        return []


class StreamingOperator(PhysicalOperator):
    """An operator that reads and writes one row at a time (scan, prune,
    filter, map): below a pipeline breaker these hand each other value
    tuples, and a :class:`Record` is made only for a row that reaches an
    operator that asks for records.

    Subclasses implement :meth:`run_rows` — the one row implementation —
    and ``run_batches``.  Each still charges its own stage with its own
    input count; only the row's container is shared.
    """

    def run_rows(self, ctx: ExecutionContext) -> tuple:
        """``(schema, per-worker lists of value tuples)`` (subclass
        hook); children are read through :meth:`rows`."""
        raise NotImplementedError

    def rows(self, ctx: ExecutionContext) -> tuple:
        if ctx.execution == "batch":
            return super().rows(ctx)
        ctx.check_cancel()
        return self._spanned(ctx, self.run_rows, _rows_out)

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        schema, partitions = self.run_rows(ctx)
        return OperatorResult(
            [[Record(schema, row) for row in partition]
             for partition in partitions],
            schema,
        )
