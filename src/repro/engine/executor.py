"""Physical plan execution entry point."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.cluster import Cluster
from repro.engine.context import ExecutionContext
from repro.engine.faults import FaultPlan
from repro.engine.metrics import QueryMetrics
from repro.engine.operators.base import PhysicalOperator
from repro.engine.tracing import Trace
from repro.serde.values import unbox


@dataclass
class QueryResult:
    """What a query returns: rows (as plain dicts) plus metrics.

    ``rows`` are materialized in result order (sorted plans put their
    output on worker 0 first).  ``trace`` is the structured span trace
    (:class:`~repro.engine.tracing.Trace`) when the query ran with
    tracing enabled, else None.
    """

    rows: list
    schema: tuple
    metrics: QueryMetrics
    trace: Trace = None
    #: Core count of the cluster the query ran on — the default for
    #: per-core views like ``to_dict(cores=...)`` and the shell's timing
    #: line, so the recorded simulated seconds reflect the cluster that
    #: actually executed the plan.
    cores: int = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list:
        """All values of one output column."""
        return [row[name] for row in self.rows]

    def to_dict(self, cores: int = None) -> dict:
        """A JSON-ready summary: row count, schema, and the stable
        metrics dict (:meth:`QueryMetrics.to_dict
        <repro.engine.metrics.QueryMetrics.to_dict>`) — the same field
        list telemetry records, so callers never pluck metrics fields
        ad hoc.  ``cores`` defaults to the executing cluster's core
        count, so ``simulated_seconds`` is present (and meaningful)
        without every caller re-plumbing the cluster config."""
        if cores is None:
            cores = self.cores
        return {
            "rows": len(self.rows),
            "schema": list(self.schema),
            "metrics": self.metrics.to_dict(cores),
        }


def execute_plan(plan: PhysicalOperator, cluster: Cluster,
                 fault_plan: FaultPlan = None,
                 on_error: str = "fail",
                 trace: bool = False,
                 resources=None,
                 breaker=None,
                 pool=None,
                 execution: str = "row",
                 batch_rows: int = None,
                 events=None,
                 cancel=None) -> QueryResult:
    """Execute a physical plan on a cluster and collect rows + metrics.

    Args:
        plan: the physical plan to run.
        cluster: the simulated cluster holding the datasets.
        fault_plan: optional seeded fault injection + recovery schedule.
        on_error: degraded-mode policy for per-record FUDJ callbacks
            (``fail`` / ``skip`` / ``quarantine``).
        trace: record a structured span trace (phase/callback tree, skew
            diagnostics) on :attr:`QueryResult.trace`.  Adds zero charged
            cost — the simulated makespan is identical either way.
        resources: per-query memory accountant
            (:class:`~repro.engine.resources.QueryResources`); created in
            pure-pricing mode when not given.
        breaker: shared FUDJ callback circuit breaker
            (:class:`~repro.engine.resources.CircuitBreaker`), or None.
        pool: process-pool backend — a
            :class:`~repro.engine.workers.WorkerPool` or a lazy provider
            of one; None (the default) runs the query serially.
        execution: ``"row"`` (default) or ``"batch"`` — vectorized
            operators run over columnar record batches; rows and
            deterministic metrics are byte-identical either way.
        batch_rows: rows per batch under batched execution (None keeps
            :data:`~repro.engine.batch.DEFAULT_BATCH_ROWS`).
        events: a bound event emitter
            (:meth:`~repro.engine.events.EventLog.scoped`); None keeps
            the inert null emitter.
        cancel: optional cooperative
            :class:`~repro.engine.cancel.CancellationToken`; cancelling
            it from any thread, or its deadline passing, aborts the query
            at the next engine checkpoint with a clean unwind (spill
            files dropped, pool leases abandoned).
    """
    ctx = ExecutionContext(
        cluster, fault_plan=fault_plan,
        on_error=on_error, trace=trace,
        resources=resources, breaker=breaker, pool=pool,
        execution=execution, batch_rows=batch_rows, events=events,
        cancel=cancel,
    )
    started = time.perf_counter()
    try:
        schema, partitions = plan.rows(ctx)
    except BaseException:
        # Failed queries must not leak spill files, and an aborted pool
        # query must not leave its workers' stale results queued.
        ctx.resources.close()
        active = ctx._pool
        if active is not None:
            active.cancel_active()
        raise
    metrics = ctx.finish()
    fields = schema.fields
    rows = [dict(zip(fields, map(unbox, values)))
            for partition in partitions for values in partition]
    metrics.output_records = len(rows)
    # Stamp the wall clock only after row materialization — building the
    # result dicts is part of what the caller waits for.  The root trace
    # span covers the same window, so it stays >= the sum of its children.
    metrics.wall_seconds = time.perf_counter() - started
    query_trace = ctx.tracer.finish(wall_seconds=metrics.wall_seconds)
    return QueryResult(rows, fields, metrics, query_trace,
                       cores=cluster.cores)
