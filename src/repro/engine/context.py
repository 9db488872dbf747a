"""Execution context shared by every physical operator in one query."""

from __future__ import annotations

import time

from repro.engine.batch import DEFAULT_BATCH_ROWS, EXECUTION_MODES
from repro.engine.cluster import Cluster
from repro.engine.events import NULL_EVENTS
from repro.engine.faults import FaultPlan, stage_key
from repro.engine.metrics import QueryMetrics
from repro.engine.resources import QueryResources
from repro.engine.tracing import Tracer
from repro.errors import (
    ExecutionError,
    FudjCallbackError,
    QueryCancelledError,
    QueryTimeoutError,
    TaskFailedError,
)
from repro.serde.translator import Translator

#: Degraded-mode policies for per-record FUDJ callbacks.
ERROR_POLICIES = ("fail", "skip", "quarantine")

#: What a checkpoint raises to stop the whole query: it passes through
#: every callback guard untouched.
STOP_ERRORS = (QueryCancelledError, QueryTimeoutError)

#: Callbacks with no single culprit record: a failure leaves no plan to
#: continue with, so it aborts the query under every policy.
HARD_PHASES = ("divide", "global_aggregate")


class ExecutionContext:
    """Everything an operator needs at runtime.

    Attributes:
        cluster: the simulated cluster (datasets + cost model).
        metrics: cost accounting sink for this query.
        translator: the FUDJ boundary translator (shared so that the
            per-query conversion count is meaningful).
        measure_bytes: when False, exchanges estimate record sizes from a
            sample instead of serializing every record — a speed knob for
            large benchmark sweeps; accuracy tests keep it True.
        fault_plan: optional :class:`~repro.engine.faults.FaultPlan`;
            when set, per-worker tasks and exchange sends suffer seeded
            crashes/stragglers/transient failures and exchanges
            checkpoint their outputs.
        on_error: what to do when a per-record FUDJ callback raises —
            ``"fail"`` aborts the query (the classic behaviour),
            ``"skip"`` drops the poison record, ``"quarantine"`` drops
            it and keeps a per-phase error report in the metrics.
        cancel: optional
            :class:`~repro.engine.cancel.CancellationToken`, the query's
            one stop condition: another thread cancelling it, or its
            deadline passing, aborts the query at the next checkpoint
            (stage and task boundaries, every guarded FUDJ callback).
        trace: record a structured span trace of the execution (see
            :mod:`repro.engine.tracing`); the :attr:`tracer` is always
            present but inert unless this is True.
        resources: the per-query memory accountant
            (:class:`~repro.engine.resources.QueryResources`); one is
            created in pure-pricing mode when not given, so operators can
            always route their resident state through :meth:`admit`.
        breaker: optional shared
            :class:`~repro.engine.resources.CircuitBreaker` tracking
            consecutive FUDJ callback failures across queries.
        pool: optional process-pool backend — a
            :class:`~repro.engine.workers.WorkerPool`, or a zero-argument
            provider returning one (resolved lazily on the first combine
            stage, so the serial backend never forks).  None keeps the
            query on the serial backend.
        execution: ``"row"`` (the default record-at-a-time loops) or
            ``"batch"`` — operators with a vectorized path run their
            ``run_batches`` hook over columnar
            :class:`~repro.engine.batch.RecordBatch` data instead.
            Rows and deterministic metrics are byte-identical either way.
        batch_rows: rows per batch under batched execution (defaults to
            :data:`~repro.engine.batch.DEFAULT_BATCH_ROWS`).
    """

    def __init__(self, cluster: Cluster, metrics: QueryMetrics = None,
                 measure_bytes: bool = True, fault_plan: FaultPlan = None,
                 on_error: str = "fail",
                 trace: bool = False,
                 resources=None,
                 breaker=None,
                 pool=None,
                 execution: str = "row",
                 batch_rows: int = None,
                 events=None,
                 cancel=None) -> None:
        if on_error not in ERROR_POLICIES:
            raise ExecutionError(
                f"unknown error policy {on_error!r}; use fail/skip/quarantine"
            )
        if execution not in EXECUTION_MODES:
            raise ExecutionError(
                f"unknown execution mode {execution!r}; "
                f"use {'/'.join(EXECUTION_MODES)}"
            )
        self.execution = execution
        self.batch_rows = (DEFAULT_BATCH_ROWS if batch_rows is None
                           else max(1, int(batch_rows)))
        self.cluster = cluster
        self.metrics = metrics or QueryMetrics(cluster.cost_model)
        self.translator = Translator()
        self.measure_bytes = measure_bytes
        self.fault_plan = fault_plan
        self.on_error = on_error
        if resources is None:
            resources = QueryResources(cluster.cost_model)
        self.resources = resources
        self.events = NULL_EVENTS if events is None else events
        self.cancel = cancel
        self.breaker = breaker
        self._breaker_ok = set()
        self._pool_source = pool
        self._pool = pool if (pool is None or hasattr(pool, "run_tasks")) \
            else None
        self.tracer = Tracer(enabled=trace)
        # Every new stage is a cancellation point; with tracing on, every
        # new stage also mirrors its charges into the open span.
        self.metrics.stage_observer = self._observe_stage

    def _observe_stage(self, stage) -> None:
        self.check_cancel()
        if self.tracer.enabled:
            stage.on_charge = self.tracer.record_units

    @property
    def num_partitions(self) -> int:
        return self.cluster.num_partitions

    @property
    def cost_model(self):
        return self.cluster.cost_model

    @property
    def checkpointing(self) -> bool:
        """Whether exchanges spool their outputs to the checkpoint store."""
        return self.fault_plan is not None and self.fault_plan.checkpoint

    # -- process-pool backend --------------------------------------------------

    def active_pool(self):
        """The live :class:`~repro.engine.workers.WorkerPool` for this
        query, or None (serial backend, a provider that failed, or a pool
        that went unhealthy mid-query and degraded to serial)."""
        if self._pool is None and self._pool_source is not None:
            source = self._pool_source
            self._pool_source = None  # resolve the provider at most once
            try:
                self._pool = source()
            except Exception:
                self._pool = None
        pool = self._pool
        if pool is None or not getattr(pool, "healthy", False):
            return None
        return pool

    def pool_tick(self) -> None:
        """Between-stage pool upkeep (exchanges call this): recycle
        workers that died while idle, drain stale results.  No-op on the
        serial backend; never resolves a provider early."""
        pool = self._pool
        if pool is not None and getattr(pool, "healthy", False):
            pool.tick()

    # -- memory accounting -----------------------------------------------------

    def admit(self, stage, worker: int, items: list, codec,
              price: bool = True) -> list:
        """Route one worker's resident collection through the memory
        accountant (:meth:`QueryResources.admit
        <repro.engine.resources.QueryResources.admit>`) and pay for it:
        the accountant decides what spills and what that costs, this
        logs the spill, charges ``stage`` and attributes the units to the
        trace.  Returns the list the operator must use (spilled items
        come back as replayed clones in their original positions)."""
        items, units, spill = self.resources.admit(
            stage.name, worker, items, codec, price)
        if spill is not None and spill[0]:
            self.events.emit("resource.spill", stage=stage.name,
                             worker=worker, spilled_items=spill[0],
                             spill_bytes=spill[1])
        if units:
            stage.charge(worker, units)
            if self.tracer.enabled:
                # An over-budget admission reports the running count of
                # spill files as its calls.
                self.tracer.attribute(
                    "spill", units,
                    calls=0 if spill is None else self.resources.spill_files)
        return items

    # -- cancellation ----------------------------------------------------------

    def check_cancel(self) -> None:
        """Stop here if the query's token is cancelled or past its
        deadline (see :meth:`CancellationToken.check
        <repro.engine.cancel.CancellationToken.check>`)."""
        if self.cancel is not None:
            self.cancel.check()

    # -- task-level fault injection and recovery -------------------------------

    def run_task(self, stage, worker: int, fn, input_bytes: float = 0.0):
        """Run one per-worker task with crash/straggler injection.

        ``fn`` computes the task result, charging its work to ``stage``
        for ``worker`` as usual; it must be free of other side effects so
        a replay is safe.  On an injected crash the attempt's output is
        lost *after* the work was done: the wasted units stay charged,
        result-visible counters (comparisons, quarantines) are rolled
        back, and the task is replayed after a capped exponential
        backoff plus a checkpoint restore of ``input_bytes``.  A
        straggling task is cut short by a speculative copy once it
        overruns detection.  Every recovery charge lands in the normal
        stage accounting, so the simulated makespan reflects it.
        """
        self.metrics.operator_invocations += 1
        plan = self.fault_plan
        if (plan is None or not plan.any_faults()
                or not plan.active_for(stage.name)):
            self.check_cancel()  # every task attempt is a cancellation point
            return fn()
        model = self.cost_model
        metrics = self.metrics
        key = stage_key(stage.name)
        attempt = 0
        while True:
            self.check_cancel()
            units_before = stage.worker_units.get(worker, 0.0)
            comparisons = metrics.comparisons
            quarantined = metrics.records_quarantined
            log_length = len(metrics.quarantine_log)
            result = fn()
            units = stage.worker_units.get(worker, 0.0) - units_before
            if not plan.crashes(key, worker, attempt):
                break
            # The attempt's output is lost: keep the wasted work charged,
            # roll back the logical counters, and replay from the stage's
            # checkpointed input — not from the start of the plan.
            metrics.comparisons = comparisons
            metrics.records_quarantined = quarantined
            del metrics.quarantine_log[log_length:]
            attempt += 1
            if attempt > plan.max_task_retries:
                raise TaskFailedError(stage.name, worker, attempt)
            backoff = plan.backoff_seconds(attempt)
            restore = model.checkpoint_restore_units(input_bytes)
            penalty = backoff * model.core_ops_per_second + restore
            stage.charge(worker, penalty)
            metrics.tasks_retried += 1
            metrics.recovery_seconds += model.cpu_seconds(units + penalty)
            self.events.emit("fault.retry", stage=stage.name, worker=worker,
                             attempt=attempt, backoff_seconds=backoff)
        if plan.straggles(key, worker) and units > 0.0:
            # Left alone the task runs ``slowdown`` times slower; the
            # speculative copy kicks in at detection and replays from the
            # checkpoint, whichever finishes first wins.
            crawl = units * (plan.straggler_slowdown - 1.0)
            speculate = (units * plan.straggler_detect_factor
                         + model.checkpoint_restore_units(input_bytes))
            extra = min(crawl, speculate)
            stage.charge(worker, extra)
            metrics.stragglers_detected += 1
            metrics.recovery_seconds += model.cpu_seconds(extra)
            self.events.emit("fault.straggler", stage=stage.name,
                             worker=worker, extra_units=round(extra, 6))
        return result

    def guard_record(self, join_name: str, phase: str, fn, *args,
                     detail=None):
        """Invoke a FUDJ callback under the error policy.

        Returns ``(ok, value)``: on success ``(True, result)``; when the
        callback raises and the policy is ``skip`` or ``quarantine`` the
        record is dropped and ``(False, None)`` comes back.  ``fail``
        re-raises as :class:`~repro.errors.FudjCallbackError`, and so
        does every policy in one of the :data:`HARD_PHASES`.  ``detail``
        is the poison record (or key pair) — rendered into the quarantine
        report only when an error actually fires.

        The signature is the hot path's: COMBINE calls this once per
        candidate record pair (``verify``), and one more defaulted keyword
        (``hard=False``) measured +4.2 % ``latency_p50_ms`` on
        ``interval_theta`` when ``match`` also came through here per
        record pair, worse in 9 of 10 pairs — which is why what fails
        hard is decided from ``phase``, in the ``except`` branch, and not
        by a flag.

        With tracing enabled, every invocation (including failed ones) is
        folded into the aggregated callback span named ``phase`` under
        the currently open span.
        """
        # Slow user callbacks stop record by record, not phase by phase;
        # a stop error is the query's, never the record's, so no policy
        # swallows or wraps it.
        if self.cancel is not None:
            self.cancel.check()
        tracer = self.tracer
        timed = tracer.enabled
        started = time.perf_counter() if timed else 0.0
        try:
            result = fn(*args)
        except STOP_ERRORS:
            raise
        except Exception as exc:
            if timed:
                tracer.record_call(
                    phase, time.perf_counter() - started, ok=False
                )
            if self.breaker is not None:
                self.breaker.record_failure(join_name)
            if self.on_error == "fail" or phase in HARD_PHASES:
                if isinstance(exc, FudjCallbackError):
                    raise
                raise FudjCallbackError(join_name, phase, exc) from exc
            if self.on_error == "quarantine":
                self.metrics.note_quarantine(
                    phase, join_name, exc,
                    None if detail is None else repr(detail),
                )
            else:  # skip: count the drop, keep no report
                self.metrics.records_quarantined += 1
            return False, None
        if timed:
            tracer.record_call(phase, time.perf_counter() - started)
        self.note_breaker_success(join_name)
        return True, result

    def guard_batch(self, join_name: str, phase: str, calls: int, fn,
                    *args):
        """Run ``fn(*args)``, which makes ``calls`` invocations of the
        ``phase`` callback, under one frame of :meth:`guard_record`: one
        cancellation check, one breaker note and, with tracing enabled,
        one clock pair folded into the ``phase`` callback span.

        Returns ``(True, result)``.  When any invocation raises it
        returns ``(False, None)`` with nothing recorded and no policy
        applied: the caller makes the calls again one by one through
        :meth:`guard_record`, so ``on_error`` acts on exactly the items
        that raise.  A long batch polls the cancellation token between
        its items itself; that stop is the query's, not an item's, and
        passes through.
        """
        if self.cancel is not None:
            self.cancel.check()
        tracer = self.tracer
        timed = tracer.enabled
        started = time.perf_counter() if timed else 0.0
        try:
            result = fn(*args)
        except STOP_ERRORS:
            raise
        except Exception:
            return False, None
        if timed:
            tracer.record_calls(phase, calls, time.perf_counter() - started)
        self.note_breaker_success(join_name)
        return True, result

    def note_breaker_success(self, join_name: str) -> None:
        """Remember a healthy callback; the breaker streak only resets
        when the whole query completes (see :meth:`finish`), so a failing
        query cannot launder its streak through its own earlier
        successes."""
        if self.breaker is not None:
            self._breaker_ok.add(join_name)

    def finish(self) -> QueryMetrics:
        """Fold translator + resource counters into the metrics, drop any
        spill files, and return the metrics — which stop observing this
        context: they outlive the query (result, history), and a cycle
        with it would keep the cluster and every record it holds until a
        generation-2 collection."""
        self.metrics.stage_observer = None
        self.metrics.translation_conversions = self.translator.total_conversions
        self.resources.fold_into(self.metrics)
        self.resources.close()
        if self.breaker is not None:
            for join_name in sorted(self._breaker_ok):
                self.breaker.record_success(join_name)
        return self.metrics
