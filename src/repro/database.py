"""The public facade: a FUDJ-capable distributed database in one object.

Typical use::

    from repro import Database
    from repro.joins import SpatialJoin

    db = Database(num_partitions=8)
    db.execute("CREATE TYPE Park { id: int, boundary: geometry }")
    db.execute("CREATE DATASET Parks(Park) PRIMARY KEY id")
    db.load("Parks", rows)
    db.create_join("st_contains", SpatialJoin, defaults=(64,))
    result = db.execute(
        "SELECT p.id, COUNT(w.id) AS num_fires "
        "FROM Parks p, Wildfires w "
        "WHERE ST_Contains(p.boundary, w.location) GROUP BY p.id"
    )

``mode`` selects the paper's three execution approaches per query:
``"fudj"`` (the rewrite + translation layer), ``"builtin"`` (hand-written
operators), ``"ontop"`` (scalar UDF inside a nested-loop join).
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref

from repro.catalog import Catalog
from repro.engine.batch import EXECUTION_MODES
from repro.core.dedup import (
    DedupStrategy,
    DuplicateAvoidance,
    DuplicateElimination,
    NoDedup,
)
from repro.core.library import JoinRegistry, JoinSignature
from repro.engine import Cluster, PartitionedDataset
from repro.engine.cancel import CancellationToken
from repro.engine.context import ERROR_POLICIES
from repro.engine.costs import CostModel
from repro.engine.events import NULL_EVENTS
from repro.engine.executor import QueryResult, execute_plan
from repro.engine.faults import FaultPlan
from repro.engine.resources import (
    POLL_SECONDS,
    AdmissionController,
    CircuitBreaker,
    QueryResources,
    format_bytes,
    parse_bytes,
)
from repro.engine.telemetry import Telemetry, register_sys_tables
from repro.errors import (
    AdmissionError,
    BreakerOpenError,
    FudjCallbackError,
    PlanError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    TaskFailedError,
)
from repro.optimizer import (
    OPTIMIZER_MODES,
    CardinalityEstimator,
    ExecutionMode,
    SelectionContext,
    annotate_estimates,
    bind_select,
    default_selection,
    enumerate_join_order,
    optimize,
    plan_physical,
)
from repro.query.functions import default_function_registry
from repro.query.logical import (
    CreateDatasetStatement,
    CreateJoinStatement,
    CreateTypeStatement,
    DropDatasetStatement,
    DropJoinStatement,
    ExplainStatement,
    SelectStatement,
)
from repro.query.parser import parse_statement

_DEDUP_STRATEGIES = {
    "avoidance": DuplicateAvoidance,
    "elimination": DuplicateElimination,
    "none": NoDedup,
}


class Database:
    """A self-contained FUDJ-enabled database instance.

    ``fault_plan``, ``on_error``, and ``query_timeout`` set the
    fault-tolerance posture every statement runs under; assigning one
    later is checked like the keyword.  ``trace`` turns structured span
    tracing on for every query (:meth:`execute` can override it).

    Resource governance (all off by default):

    * ``memory_budget`` — per-worker memory grant in bytes (or a string
      like ``"256kb"``).  It rewrites the cost model's
      ``worker_memory_bytes`` so the spill *pricing* and the real
      spill *enforcement* share one number: operator state beyond the
      grant is serialized to temp files and replayed.  Also turns on the
      admission controller with a cluster-wide capacity of
      ``memory_budget * num_partitions``.
    * ``max_concurrent`` — cap on concurrently admitted queries (enables
      the admission controller even without a byte budget).
    * ``queue_limit`` / ``queue_timeout`` — bounded admission queue
      depth and per-query wait budget in seconds; exceeding either sheds
      the query with :class:`~repro.errors.AdmissionError`.
    * ``breaker_threshold`` — consecutive FUDJ callback failures after
      which a join library trips its circuit breaker and later queries
      fail fast with :class:`~repro.errors.BreakerOpenError` until
      ``db.breaker.reset()``.

    Execution backend:

    * ``backend`` — ``"serial"`` (simulated workers in-process, the
      deterministic default) or ``"process"`` (COMBINE tasks run on a
      supervised pool of real worker processes that genuinely crash,
      straggle, and recover; results stay byte-identical to serial).
    * ``workers`` — worker-process count for the process backend
      (default: a small bound from partitions/cores/machine size).

    Execution granularity:

    * ``execution`` — ``"row"`` (record-at-a-time operators, the
      default) or ``"batch"`` (operators exchange columnar
      :class:`~repro.engine.batch.RecordBatch` chunks and run
      vectorized kernels; rows and deterministic metrics stay
      byte-identical to row mode).
    * ``batch_rows`` — target rows per batch in batch mode (default
      1024).

    Query optimizer:

    * ``optimizer`` — ``"rule"`` (the written FROM order with the FUDJ
      rewrite and pushdown, the deterministic default) or ``"cost"``
      (stats-driven: pessimistic cardinality bounds pick the join order
      and the physical operator per join; EXPLAIN gains per-operator
      estimates and ``sys.plans`` records estimates vs. actuals).
      Single-join queries produce byte-identical rows under either
      setting; see ``docs/query_optimizer.md``.

    Every mode is what the keyword (or its setter) says; none is read
    from the environment.  ``tests/test_golden.py`` holds each non-default
    mode to its default twin.

    Observability:

    * ``event_log`` — path of a JSONL file every deterministic engine
      event is teed to as it is emitted (canonical form, byte-identical
      across identical seeded runs).  The same stream is queryable as
      ``sys.events`` and served live by the monitor
      (:meth:`serve_monitor`); see ``docs/observability.md``.
    """

    def __init__(self, num_partitions: int = 8, cores: int = 12,
                 cost_model: CostModel = None, fault_plan=None,
                 on_error: str = "fail",
                 query_timeout: float = None,
                 trace: bool = False,
                 history_limit: int = 256,
                 memory_budget=None,
                 max_concurrent: int = None,
                 queue_limit: int = 16,
                 queue_timeout: float = None,
                 breaker_threshold: int = None,
                 backend: str = None,
                 workers: int = None,
                 execution: str = None,
                 batch_rows: int = None,
                 optimizer: str = None,
                 event_log: str = None) -> None:
        self._base_cost_model = cost_model or CostModel()
        self.memory_budget = _check_budget(memory_budget)
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self.queue_timeout = queue_timeout
        self.cluster = Cluster(num_partitions, cores,
                               self._governed_cost_model())
        self.admission = None
        if self.memory_budget is not None or max_concurrent is not None:
            self.admission = AdmissionController(
                self._admission_capacity(), max_concurrent,
                queue_limit, queue_timeout,
            )
        self.breaker = (CircuitBreaker(breaker_threshold)
                        if breaker_threshold is not None else None)
        self.catalog = Catalog(self.cluster)
        self.functions = default_function_registry()
        self.joins = JoinRegistry()
        self.builtin_factories = {}
        self.fault_plan = fault_plan
        self.on_error = on_error
        self.query_timeout = query_timeout
        self.trace = bool(trace)
        #: Metrics registry + bounded query history; ``history_limit``
        #: caps retained records (oldest evicted first).  Backs the
        #: ``sys.*`` introspection tables.
        self.telemetry = Telemetry(history_limit=history_limit)
        self.workers = workers
        self.worker_pool = None
        self._pool_finalizer = None
        self.cluster.backend = _check_backend(
            "serial" if backend is None else backend)
        self._execution = _check_execution(
            "row" if execution is None else execution)
        self.batch_rows = batch_rows
        self._optimizer = _check_optimizer(
            "rule" if optimizer is None else optimizer)
        #: Serializes the engine core and the catalog: a query holds it
        #: for its whole run, DDL and ``load`` for their change, so
        #: neither sees the other half done (see :meth:`_engine`).  A
        #: query takes it *after* the admission ticket, so the admission
        #: controller — not this lock — is what queues, sheds, and times
        #: out concurrent sessions.
        self._engine_lock = threading.RLock()
        self._monitor = None
        self._server = None
        if event_log is not None:
            self.telemetry.events.attach_sink(event_log)
        self.telemetry.set_build_info(self.cluster.backend, self._execution)
        register_sys_tables(self)

    def __setattr__(self, name: str, value) -> None:
        """Assigning a checked setting runs the constructor's check, so a
        ``SEED:RATE`` spec becomes a :class:`FaultPlan` and a bad value
        raises :class:`~repro.errors.PlanError` before any statement."""
        check = _SETTING_CHECKS.get(name)
        super().__setattr__(name, value if check is None else check(value))

    # -- SQL entry points -----------------------------------------------------------

    def execute(self, sql: str, mode="fudj", dedup=None,
                summarize_sample: float = 1.0,
                trace: bool = None, optimizer: str = None,
                cancel=None, query_id: int = None) -> QueryResult:
        """Parse and run one SQL statement.

        Args:
            sql: the statement text.
            mode: ``"fudj"`` / ``"builtin"`` / ``"ontop"`` (or an
                :class:`ExecutionMode`).
            dedup: optional duplicate-handling override for FUDJ joins:
                ``"avoidance"``, ``"elimination"``, ``"none"``, or a
                :class:`DedupStrategy` instance.
            summarize_sample: run FUDJ SUMMARIZE phases over this fraction
                of each partition (deterministic every-k-th sampling).
                Results are unchanged for the shipped joins — summaries
                steer partitioning quality, ``verify`` decides membership
                — but summarize cost drops proportionally.
            trace: per-query override of the instance ``trace`` flag
                (None keeps it); when True the result carries a structured span trace on
                :attr:`QueryResult.trace`.
            optimizer: per-query override of the instance optimizer
                (``"rule"`` / ``"cost"``).
            cancel: optional cooperative
                :class:`~repro.engine.cancel.CancellationToken`;
                cancelling it from any thread aborts the statement with
                :class:`~repro.errors.QueryCancelledError` at the next
                engine checkpoint (status ``"cancelled"``; ``"timeout"``
                past its deadline), leaving the database reusable.
                ``CancellationToken(seconds)`` is a one-statement
                deadline; with ``query_timeout`` the earlier one wins.
            query_id: a history id already reserved via
                :meth:`Telemetry.next_query_id
                <repro.engine.telemetry.Telemetry.next_query_id>`, for
                callers (the session server) that must know the id
                before execution; None reserves a fresh one.
        """
        timeout = self.query_timeout
        if timeout is not None:
            cancel = (CancellationToken(timeout) if cancel is None
                      else cancel.expire_after(timeout))
        tracing = self.trace if trace is None else bool(trace)
        mode_text = mode.value if isinstance(mode, ExecutionMode) else str(mode)
        started = time.perf_counter()
        kind = "invalid"
        # The statement's emitter carries the history id record_statement
        # will use — reserved up front and stamped on every event this
        # statement emits, so the timeline joins to sys.queries before
        # the query has even finished (and concurrent sessions never
        # share an id).
        events = self.telemetry.events.scoped(
            int(query_id) if query_id else self.telemetry.next_query_id())
        result = error = plan_rows = None
        try:
            statement = parse_statement(sql)
            kind = _statement_kind(statement)
            # The detail deliberately excludes backend/execution (the
            # build-info gauge carries those): serial and process runs of
            # one script emit byte-identical deterministic streams.
            events.emit("query.start", statement=kind, mode=mode_text,
                        sql=sql.strip())
            if isinstance(statement, SelectStatement):
                plan, plan_rows = self._plan_select(
                    statement, _to_mode(mode), _to_dedup(dedup),
                    summarize_sample, optimizer, events)
                result = self._run_plan(plan, tracing, events, cancel)
            elif isinstance(statement, ExplainStatement):
                plan, plan_rows = self._plan_select(
                    statement.select, _to_mode(mode), _to_dedup(dedup),
                    optimizer=optimizer, events=events)
                result = self._execute_explain(
                    statement, plan, plan_rows, events, cancel)
            else:
                result = self._execute_ddl(statement, cancel)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            # Whatever ended the statement — a result, a ReproError, a
            # UDF's own exception — its timeline closes under its id.
            self.telemetry.record_statement(
                events, sql, kind, mode_text,
                "ok" if error is None else _error_status(error),
                result=result, error=error,
                cores=getattr(result, "cores", None) or self.cluster.cores,
                wall_seconds=time.perf_counter() - started,
                plan_rows=plan_rows)

    @contextlib.contextmanager
    def _engine(self, cancel=None):
        """Hold the engine lock.  Concurrent statements queue here; the
        wait polls ``cancel``, so a stopped statement leaves the queue at
        once."""
        while not self._engine_lock.acquire(timeout=POLL_SECONDS):
            if cancel is not None:
                cancel.check()
        try:
            yield
        finally:
            self._engine_lock.release()

    # -- resource governance --------------------------------------------------------

    def _governed_cost_model(self) -> CostModel:
        """The base cost model with the memory budget folded in, so spill
        pricing and spill enforcement agree on one number."""
        if self.memory_budget is None:
            return self._base_cost_model
        from dataclasses import replace

        return replace(self._base_cost_model,
                       worker_memory_bytes=float(self.memory_budget))

    def _admission_capacity(self) -> float:
        """Cluster-wide reservation capacity: every worker's grant."""
        if self.memory_budget is None:
            return float("inf")
        return float(self.memory_budget) * self.cluster.num_partitions

    def set_memory_budget(self, memory_budget) -> None:
        """Change (or clear, with None/"off") the per-worker budget.

        Rewrites the cluster's cost model and the admission capacity in
        place; takes effect for the next query.
        """
        self.memory_budget = _check_budget(memory_budget)
        self.cluster.cost_model = self._governed_cost_model()
        if self.memory_budget is not None and self.admission is None:
            self.admission = AdmissionController(
                self._admission_capacity(), self.max_concurrent,
                self.queue_limit, self.queue_timeout,
            )
        elif self.admission is not None:
            self.admission.capacity_bytes = self._admission_capacity()

    # -- execution backend ----------------------------------------------------------

    @property
    def backend(self) -> str:
        """The active execution backend (``"serial"`` or ``"process"``)."""
        return self.cluster.backend

    def set_backend(self, backend: str) -> None:
        """Switch backends; takes effect for the next query.

        Switching to ``serial`` shuts the worker pool down; switching to
        ``process`` spawns it lazily on the next query's first combine
        stage.
        """
        self.cluster.backend = _check_backend(backend)
        if self.cluster.backend == "serial":
            self._shutdown_pool()
        self.telemetry.set_build_info(self.cluster.backend, self._execution)

    # -- execution granularity --------------------------------------------------------

    @property
    def execution(self) -> str:
        """The active execution granularity (``"row"`` or ``"batch"``)."""
        return self._execution

    def set_execution(self, execution: str) -> None:
        """Switch between row and batch execution; takes effect for the
        next query.  Both modes return byte-identical rows and
        deterministic metrics."""
        self._execution = _check_execution(execution)
        self.telemetry.set_build_info(self.cluster.backend, self._execution)

    def _acquire_pool(self):
        """The live worker pool, spawning or respawning it as needed.

        Returns None when workers cannot be spawned at all (the engine
        then runs the query serially); an existing-but-unhealthy pool is
        torn down and replaced, so one exhausted query does not pin the
        whole database to the serial path.
        """
        pool = self.worker_pool
        if pool is not None and pool.healthy:
            return pool
        if pool is not None:
            self._shutdown_pool()
        try:
            from repro.engine.workers import WorkerPool, default_pool_size

            size = self.workers or default_pool_size(self.cluster)
            pool = WorkerPool(size)
        except Exception:
            return None
        self.worker_pool = pool
        # The pool holds OS processes and a temp spill tree; tie both to
        # this database's lifetime even when close() is never called.
        self._pool_finalizer = weakref.finalize(self, pool.shutdown)
        return pool

    def _shutdown_pool(self) -> None:
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self.worker_pool is not None:
            self.worker_pool.shutdown()
            self.worker_pool = None

    def close(self) -> None:
        """Release OS resources (the session server — drained
        gracefully — the worker pool, the monitor server, the event-log
        sink).  Idempotent; the database remains usable afterwards on
        the serial path (a later process-backend query just respawns
        the pool)."""
        self.stop_server()
        self._shutdown_pool()
        self.stop_monitor()
        self.telemetry.events.close_sink()

    # -- session server -------------------------------------------------------------

    def serve(self, port: int = 0, host: str = "127.0.0.1",
              max_sessions: int = 8, drain_timeout: float = 5.0,
              tenant_depth: int = None):
        """Start the concurrent JSONL session server on ``host:port``
        (port 0 picks a free one) and return the
        :class:`~repro.server.SessionServer`.

        Each connected client gets its own session; requests carry
        per-request deadlines, can be cancelled mid-flight (explicit
        ``cancel`` op or disconnect), are admitted through the
        PR 4 admission queue, and are shed with typed errors when
        ``max_sessions`` or a tenant's lane is full.  ``stop()`` (or
        SIGTERM via the CLI) drains gracefully: accepting stops,
        in-flight requests get up to ``drain_timeout`` seconds to
        finish, stragglers are cancelled cooperatively.  A previous
        session server, if any, is stopped first.  Raises
        :class:`~repro.errors.ServerError` when the port is taken.
        """
        from repro.server import SessionServer

        self.stop_server()
        self._server = SessionServer(
            self, host=host, port=port, max_sessions=max_sessions,
            drain_timeout=drain_timeout, tenant_depth=tenant_depth,
        )
        self._server.start()
        return self._server

    @property
    def server(self):
        """The running :class:`~repro.server.SessionServer`, or None."""
        return self._server

    def stop_server(self) -> None:
        """Drain and stop the session server (idempotent)."""
        if self._server is not None:
            self._server.stop()
            self._server = None

    # -- live monitor ---------------------------------------------------------------

    def serve_monitor(self, port: int = 0, host: str = "127.0.0.1"):
        """Start the read-only HTTP monitor on ``host:port`` (port 0
        picks a free one) and return the
        :class:`~repro.monitor.MonitorServer`.  The monitor serves
        ``/healthz``, ``/metrics`` (Prometheus text, scrape-parity with
        :meth:`metrics_snapshot`), ``/queries``, ``/events``, and
        ``/traces/<query_id>`` from this live session on a daemon
        thread; it never mutates the database.  A previous monitor, if
        any, is stopped first."""
        from repro.monitor import MonitorServer

        self.stop_monitor()
        self._monitor = MonitorServer(self, host=host, port=port)
        self._monitor.start()
        return self._monitor

    @property
    def monitor(self):
        """The running :class:`~repro.monitor.MonitorServer`, or None."""
        return self._monitor

    def stop_monitor(self) -> None:
        """Shut the monitor server down (idempotent)."""
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None

    def _estimate_plan_bytes(self, plan) -> float:
        """Memory-reservation estimate of a physical plan: the wire bytes
        of every stored dataset it scans (catalog statistics).  Virtual
        ``sys.*`` tables are skipped — their snapshots are tiny and
        materializing one just to size it would be circular."""
        total = 0.0
        pending = [plan]
        while pending:
            node = pending.pop()
            dataset_name = getattr(node, "dataset_name", None)
            if dataset_name is not None:
                relation = self.cluster.relation(dataset_name)
                if isinstance(relation, PartitionedDataset):
                    total += relation.total_bytes()
            pending.extend(node.children())
        return total

    def _run_plan(self, plan, tracing, events, cancel=None) -> QueryResult:
        """Execute a physical plan under the governance posture: admission
        first (reservation estimated from catalog stats), then the run
        itself — serialized on the engine lock — with a budget-enforcing
        memory accountant and the shared circuit breaker.  Both waits
        poll ``cancel``, so a stopped query leaves either queue at once."""
        resources = QueryResources(
            self.cluster.cost_model, enforce=self.memory_budget is not None
        )
        ticket = None
        if self.admission is not None:
            try:
                ticket = self.admission.acquire(
                    self._estimate_plan_bytes(plan), cancel=cancel)
            except AdmissionError as exc:
                self.telemetry.note_admission(exc.reason)
                raise
            self.telemetry.note_admission("admitted")
            events.emit("admission.admit",
                        reserved_bytes=ticket.reserved_bytes)
            resources.queue_seconds = ticket.queue_seconds
        pool = self._acquire_pool if self.cluster.backend == "process" else None
        try:
            with self._engine(cancel):
                return execute_plan(plan, self.cluster,
                                    fault_plan=self.fault_plan,
                                    on_error=self.on_error,
                                    trace=tracing,
                                    resources=resources, breaker=self.breaker,
                                    pool=pool, execution=self._execution,
                                    batch_rows=self.batch_rows,
                                    events=events, cancel=cancel)
        finally:
            if ticket is not None:
                self.admission.release(ticket)
            self.telemetry.sync_breaker(self.breaker, events.query_id)
            self.telemetry.sync_pool(self.worker_pool)

    def _governance_lines(self, metrics) -> list:
        """EXPLAIN ANALYZE lines describing the governance posture and
        what it did for this query (only rendered when governance is
        configured, so un-governed EXPLAIN output is unchanged)."""
        lines = [
            f"resources: budget {format_bytes(self.memory_budget)}/worker, "
            f"peak {metrics.peak_reserved_bytes:.0f} reserved bytes, "
            f"{metrics.spill_files} spill files "
            f"({metrics.spill_bytes:.0f} bytes), "
            f"queue wait {metrics.queue_seconds * 1000:.2f} ms"
        ]
        if self.admission is not None:
            snap = self.admission.snapshot()
            lines.append(
                f"admission: capacity {format_bytes(snap['capacity_bytes'])}, "
                f"{snap['running']} running / {snap['waiting']} waiting, "
                f"{snap['admitted_total']} admitted, "
                f"{snap['shed_total']} shed "
                f"({snap['timeout_total']} timeouts)"
            )
        if self.breaker is not None:
            snap = self.breaker.snapshot()
            open_text = ",".join(snap["open"]) if snap["open"] else "none"
            lines.append(
                f"breaker: threshold {snap['threshold']}, "
                f"open [{open_text}], {snap['trips']} trips, "
                f"{snap['rejections']} rejections"
            )
        return lines

    def metrics_snapshot(self, fmt: str = "json") -> str:
        """The process-wide metrics registry, rendered deterministically.

        ``fmt`` is ``"json"`` (canonical: sorted keys, no whitespace) or
        ``"prometheus"`` (text exposition).  The snapshot contains only
        charged units, simulated seconds, and counters — never wall
        clocks — so two identical sessions render byte-identically.
        """
        return self.telemetry.snapshot(fmt)

    # -- query optimizer ------------------------------------------------------------

    @property
    def optimizer(self) -> str:
        """The active optimizer (``"rule"`` or ``"cost"``)."""
        return self._optimizer

    def set_optimizer(self, optimizer: str) -> None:
        """Switch between the rule and cost optimizers; takes effect for
        the next query.  Single-join queries return byte-identical rows
        under both."""
        self._optimizer = _check_optimizer(optimizer)

    def explain(self, sql: str, mode="fudj", optimizer: str = None) -> str:
        """The optimized physical plan of a SELECT, as indented text.
        Not a recorded statement: no history entry, no events."""
        statement = parse_statement(sql)
        if not isinstance(statement, SelectStatement):
            raise PlanError("EXPLAIN supports SELECT statements only")
        plan, _ = self._plan_select(statement, _to_mode(mode), None,
                                    optimizer=optimizer)
        return plan.explain()

    def _plan_select(self, statement: SelectStatement, mode: ExecutionMode,
                     dedup: DedupStrategy, summarize_sample: float = 1.0,
                     optimizer: str = None, events=NULL_EVENTS):
        """``(physical plan, its sys.plans rows)``.  What the cost
        optimizer chooses is narrated on ``events``; explain() plans
        outside any statement and passes none, so nothing is logged."""
        opt = (self._optimizer if optimizer is None
               else _check_optimizer(optimizer))
        bound = bind_select(statement, self.catalog, self.functions, self.joins)
        output_order = [
            item.output_name(i) for i, item in enumerate(statement.items)
        ]
        if opt == "cost":
            logical = self._cost_optimize(bound, mode, output_order, events)
        else:
            logical = optimize(bound, self.joins, mode, output_order)
        plan = plan_physical(
            logical, self.joins, mode, self.cluster.cost_model,
            dedup=dedup, builtin_factories=self.builtin_factories,
            summarize_sample=summarize_sample,
        )
        return plan, _plan_report_rows(plan, opt)

    def _cost_optimize(self, bound, mode: ExecutionMode, output_order,
                       events):
        """The three cost-based stages: pessimistic cardinality bounds,
        upper-bound join ordering, and chained physical operator
        selection (see ``docs/query_optimizer.md``)."""
        estimator = CardinalityEstimator(self.cluster)
        order = enumerate_join_order(bound, estimator)
        events.emit("plan.order", order=" -> ".join(order.aliases))
        logical = optimize(bound, self.joins, mode, output_order,
                           table_order=order.aliases)
        annotate_estimates(logical, estimator, bound.aliases)
        # The parity contract: queries of at most two tables keep the
        # rule plan's operators exactly (estimates are the only
        # annotation), so single-join cost plans stay byte-identical
        # to rule plans.  Selection engages on multi-join queries.
        if len(bound.aliases) > 2:
            context = SelectionContext(
                cost_model=self.cluster.cost_model,
                num_partitions=self.cluster.num_partitions,
                aliases=bound.aliases,
                estimator=estimator,
                breaker=self.breaker,
            )
            assignment = default_selection().select_physical_operators(
                logical, context)
            from repro.optimizer.physical import _walk

            for node in _walk(logical):
                strategy = assignment.strategy_of(node)
                if strategy is not None:
                    events.emit("plan.operator", join=node.describe(),
                                strategy=strategy,
                                note=assignment.note_of(node))
        return logical

    def _execute_explain(self, statement: ExplainStatement, plan, plan_rows,
                         events, cancel=None) -> QueryResult:
        """EXPLAIN: plan text (one row per line); ANALYZE adds a
        per-stage profile, the span trace tree, and skew diagnostics
        from a real (traced) execution.  Under the cost optimizer,
        ANALYZE also tabulates estimated vs. actual rows per stage."""
        from repro.engine.metrics import QueryMetrics

        lines = plan.explain().splitlines()
        metrics = QueryMetrics(self.cluster.cost_model)
        if statement.analyze:
            executed = self._run_plan(plan, True, events, cancel)
            metrics = executed.metrics
            if plan_rows[0]["optimizer"] == "cost":
                lines.append("")
                lines.extend(_estimate_report_lines(plan_rows, metrics))
            lines.append("")
            lines.extend(metrics.profile(self.cluster.cores).splitlines())
            lines.append("")
            lines.extend(executed.trace.render().splitlines())
            skew = executed.trace.skew_report()
            if skew:
                lines.append("")
                lines.extend(skew.splitlines())
            if (self.fault_plan is not None
                    and not metrics.fault_summary_line()):
                # A fault plan ran but nothing fired — still say so, with
                # the zeroed counters, so operators can see the knob is on.
                lines.append(
                    "fault tolerance: 0 task retries, 0 exchange retries, "
                    "0 stragglers, 0 quarantined, recovery 0.00 ms"
                )
            if (self.memory_budget is not None or self.admission is not None
                    or self.breaker is not None):
                lines.append("")
                lines.extend(self._governance_lines(metrics))
        rows = [{"plan": line} for line in lines]
        return QueryResult(rows, ("plan",), metrics)

    def _execute_ddl(self, statement, cancel=None) -> QueryResult:
        from repro.engine.metrics import QueryMetrics

        with self._engine(cancel):
            self._apply_ddl(statement)
        return QueryResult([], (), QueryMetrics(self.cluster.cost_model))

    def _apply_ddl(self, statement) -> None:
        if isinstance(statement, CreateTypeStatement):
            self.catalog.create_type(statement.name, statement.fields)
        elif isinstance(statement, CreateDatasetStatement):
            self.catalog.create_dataset(statement.name, statement.type_name,
                                        statement.primary_key)
        elif isinstance(statement, CreateJoinStatement):
            signature = JoinSignature(
                statement.name.lower(),
                tuple(type_name for _, type_name in statement.params),
                statement.class_path,
                statement.library,
            )
            self.joins.create(signature)
        elif isinstance(statement, DropJoinStatement):
            self.joins.drop(statement.name.lower())
        elif isinstance(statement, DropDatasetStatement):
            self.catalog.drop_dataset(statement.name)
        else:
            raise ReproError(f"unhandled statement: {statement!r}")

    # -- programmatic API -------------------------------------------------------------

    def create_type(self, name: str, fields) -> None:
        """API twin of ``CREATE TYPE``; ``fields`` is [(name, type), ...]."""
        with self._engine():
            self.catalog.create_type(name, fields)

    def create_dataset(self, name: str, type_name: str,
                       primary_key: str) -> PartitionedDataset:
        """API twin of ``CREATE DATASET``; returns the new, empty dataset."""
        with self._engine():
            return self.catalog.create_dataset(name, type_name, primary_key)

    def load(self, dataset_name: str, rows) -> int:
        """Bulk-load plain-dict rows into a dataset.  Waits for a running
        query, which sees the dataset as it was when it started."""
        with self._engine():
            return self.catalog.stored_dataset(dataset_name).bulk_load(rows)

    def create_join(self, name: str, join_class=None, class_path: str = None,
                    param_types=("any", "any"), library: str = "",
                    defaults=()) -> None:
        """API twin of ``CREATE JOIN``.

        Either pass the FlexibleJoin subclass directly (``join_class``) or
        its dotted ``class_path``.  ``defaults`` are constructor parameters
        used when the query call site passes none (e.g. a grid size).
        """
        if join_class is None and class_path is None:
            raise PlanError("create_join needs join_class or class_path")
        signature = JoinSignature(
            name.lower(), tuple(param_types), class_path or "", library
        )
        with self._engine():
            self.joins.create(signature, join_class, defaults)

    def drop_join(self, name: str) -> None:
        """API twin of ``DROP JOIN``."""
        with self._engine():
            self.joins.drop(name.lower())

    def register_builtin_join(self, name: str, factory) -> None:
        """Install a hand-written built-in join operator for BUILTIN mode.

        ``factory(left_op, right_op, left_key_fn, right_key_fn, params)``
        must return a PhysicalOperator.
        """
        self.builtin_factories[name.lower()] = factory

    def register_udf(self, name: str, fn, arity: int = -1) -> None:
        """Register a scalar UDF usable in any query (the on-top path)."""
        self.functions.register_udf(name, fn, arity)


_STATEMENT_KINDS = (
    (SelectStatement, "select"),
    (ExplainStatement, "explain"),
    (CreateTypeStatement, "create_type"),
    (CreateDatasetStatement, "create_dataset"),
    (CreateJoinStatement, "create_join"),
    (DropJoinStatement, "drop_join"),
    (DropDatasetStatement, "drop_dataset"),
)


def _statement_kind(statement) -> str:
    for cls, kind in _STATEMENT_KINDS:
        if isinstance(statement, cls):
            return kind
    return "other"


def _error_status(exc: Exception) -> str:
    """History/registry status class of a failed statement."""
    if isinstance(exc, QueryCancelledError):
        return "cancelled"
    if isinstance(exc, QueryTimeoutError):
        return "timeout"
    if isinstance(exc, AdmissionError):
        return "shed"
    if isinstance(exc, BreakerOpenError):
        return "rejected"
    if isinstance(exc, (TaskFailedError, FudjCallbackError)):
        return "failed"
    return "error"


def _check_budget(memory_budget):
    """Parse and validate a memory budget spec (None/"off" = disabled)."""
    try:
        budget = parse_bytes(memory_budget)
    except ValueError:
        raise PlanError(
            f"cannot parse memory budget {memory_budget!r}; "
            "use bytes or a suffixed amount like '64mb'"
        ) from None
    if budget is not None and budget <= 0:
        raise PlanError(
            f"memory_budget must be positive, got {memory_budget!r}"
        )
    return budget


def _to_mode(mode) -> ExecutionMode:
    if isinstance(mode, ExecutionMode):
        return mode
    try:
        return ExecutionMode(mode)
    except ValueError:
        raise PlanError(
            f"unknown execution mode {mode!r}; use fudj/builtin/ontop"
        ) from None


def _to_dedup(dedup) -> DedupStrategy:
    if dedup is None or isinstance(dedup, DedupStrategy):
        return dedup
    try:
        return _DEDUP_STRATEGIES[dedup]()
    except KeyError:
        raise PlanError(
            f"unknown dedup strategy {dedup!r}; use avoidance/elimination/none"
        ) from None


def _to_fault_plan(fault_plan) -> FaultPlan:
    if fault_plan is None or isinstance(fault_plan, FaultPlan):
        return fault_plan
    if isinstance(fault_plan, str):
        return FaultPlan.parse(fault_plan)
    raise PlanError(
        f"fault_plan must be a FaultPlan, a SEED:RATE spec string, or None; "
        f"got {fault_plan!r}"
    )


def _check_timeout(query_timeout):
    if query_timeout is None or (
            isinstance(query_timeout, (int, float))
            and not isinstance(query_timeout, bool) and query_timeout > 0):
        return query_timeout
    raise PlanError(
        f"query_timeout must be None or a number of seconds > 0; "
        f"got {query_timeout!r}"
    )


def _check_backend(backend: str) -> str:
    if backend not in ("serial", "process"):
        raise PlanError(
            f"unknown backend {backend!r}; use serial or process"
        )
    return backend


def _check_execution(execution: str) -> str:
    if execution not in EXECUTION_MODES:
        raise PlanError(
            f"unknown execution granularity {execution!r}; "
            f"use {'/'.join(EXECUTION_MODES)}"
        )
    return execution


def _check_optimizer(optimizer: str) -> str:
    if optimizer not in OPTIMIZER_MODES:
        raise PlanError(
            f"unknown optimizer {optimizer!r}; "
            f"use {'/'.join(OPTIMIZER_MODES)}"
        )
    return optimizer


def _plan_report_rows(plan, optimizer: str):
    """Flatten a physical plan into ``sys.plans`` rows (preorder walk,
    one row per operator).  ``est_rows`` is -1.0 for operators the
    optimizer did not annotate (all of them under ``rule``)."""
    rows = []

    def _walk(op):
        est = getattr(op, "est_rows", None)
        rows.append({
            "seq": len(rows),
            "optimizer": optimizer,
            "stage": op.stage_name,
            "operator": op.label,
            "detail": op.describe(),
            "est_rows": float(est) if est is not None else -1.0,
        })
        for child in op.children():
            _walk(child)

    _walk(plan)
    return rows


def _estimate_report_lines(plan_rows, metrics):
    """EXPLAIN ANALYZE's estimates-vs-actuals table (cost mode only).

    Pessimistic bounds should dominate actuals; a ``!`` flag marks any
    stage where they do not, which is the signal the estimator's upper
    bound was violated.
    """
    from repro.engine.operators.base import format_estimate

    actuals = {stage.name: stage.records_out for stage in metrics.stages}
    lines = ["estimates vs. actuals (rows):"]
    for row in plan_rows:
        est = row["est_rows"]
        actual = actuals.get(row["stage"])
        est_text = format_estimate(est) if est >= 0 else "-"
        actual_text = str(actual) if actual is not None else "-"
        flag = ""
        if est >= 0 and actual is not None and actual > est:
            flag = "  !bound-exceeded"
        lines.append(
            f"  {row['stage']:<28} est<={est_text:<12} "
            f"actual={actual_text}{flag}"
        )
    return lines


def _check_policy(on_error: str) -> str:
    if on_error not in ERROR_POLICIES:
        raise PlanError(
            f"unknown error policy {on_error!r}; use fail/skip/quarantine"
        )
    return on_error


#: The settings every statement reads, each checked on assignment.
_SETTING_CHECKS = {
    "fault_plan": _to_fault_plan,
    "on_error": _check_policy,
    "query_timeout": _check_timeout,
}
