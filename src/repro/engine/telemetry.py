"""System-wide telemetry: metrics registry, query history, ``sys.*`` tables.

Three tiers on top of the per-query observability layer
(:mod:`repro.engine.metrics` and :mod:`repro.engine.tracing`):

1. A process-wide **metrics registry** of labeled counters, gauges, and
   fixed-bucket histograms.  Every ``Database.execute`` folds its
   :class:`~repro.engine.metrics.QueryMetrics` (and, when tracing ran,
   the per-callback aggregates of the trace) into the registry.  The
   registry renders as Prometheus text exposition or canonical JSON;
   both are **deterministic** — they contain only charged units,
   simulated seconds, and counters, never wall clocks — so two
   identical sessions produce byte-identical snapshots (tested in
   ``tests/test_telemetry.py``).

2. A bounded **query history log**: one structured record per executed
   statement (sql, status, per-phase units, retry/skew summaries, error
   class).  Retention is capped — the oldest record is evicted first —
   so history memory is bounded no matter how long a session runs.

3. **Queryable introspection**: the history and the registry are
   registered as *virtual tables* (``sys.queries``, ``sys.stages``,
   ``sys.callbacks``, ``sys.metrics``) in the cluster's registry of
   relations, so plain SQL reaches them through the normal binder →
   planner → scan-operator path::

       SELECT status, COUNT(1) AS n FROM sys.queries GROUP BY status;

Telemetry never charges the simulated cost model: recording a query,
taking a snapshot, or resetting the registry costs 0 work units (the
acceptance test pins this down).  Scanning a ``sys.*`` table *is* a
query and pays the ordinary scan cost like any other dataset.
"""

from __future__ import annotations

import json
import threading
import time
import weakref

from repro.engine.events import DEFAULT_EVENT_LIMIT, EventLog
from repro.engine.metrics import phase_of, stage_op
from repro.errors import ReproError

#: Histogram bucket upper bounds for per-query simulated seconds.
SIM_SECONDS_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
#: Histogram bucket upper bounds for per-query result row counts.
ROW_COUNT_BUCKETS = (1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0)
#: Histogram bucket upper bounds for rows per record batch (batch mode).
BATCH_ROWS_BUCKETS = (1.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0)

#: Default bound on retained history records (oldest evicted first).
DEFAULT_HISTORY_LIMIT = 256


class TelemetryError(ReproError):
    """Misuse of the metrics registry (name/kind/label conflicts)."""


def _format_number(value) -> str:
    """Canonical text form of a sample value (Prometheus lines)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _label_key(labelnames, labels: dict) -> tuple:
    if set(labels) != set(labelnames):
        raise TelemetryError(
            f"labels {sorted(labels)} do not match declared label names "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    __slots__ = ("name", "help", "labelnames", "_values")

    def __init__(self, name: str, help_text: str, labelnames=()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._values = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise TelemetryError(f"counter {self.name} cannot decrease")
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def reset(self) -> None:
        self._values.clear()

    def samples(self):
        """Sorted ``(label_key, value)`` pairs — the deterministic view."""
        return sorted(self._values.items())


class Gauge(Counter):
    """A value that can go up or down (set, not accumulated)."""

    kind = "gauge"

    #: A zero-argument callable an unlabelled gauge renders instead of a
    #: stored value: a live count has no copy to drift.
    source = None

    def samples(self):
        if self.source is not None:
            return [((), float(self.source()))]
        return super().samples()

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(self.labelnames, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Histogram:
    """A fixed-bucket histogram (cumulative, Prometheus-style)."""

    kind = "histogram"

    __slots__ = ("name", "help", "labelnames", "buckets", "_series")

    def __init__(self, name: str, help_text: str, buckets,
                 labelnames=()) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise TelemetryError(
                f"histogram {name} needs strictly increasing buckets"
            )
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.buckets = bounds
        self._series = {}

    def observe(self, value: float, count: int = 1, **labels) -> None:
        """Fold ``count`` identical observations of ``value`` in one call
        (more than one is how batch-mode rows-per-batch tallies land in
        the registry)."""
        if count < 0:
            raise TelemetryError(
                f"histogram {self.name} cannot observe a negative count"
            )
        if count == 0:
            return
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            series = {"counts": [0] * len(self.buckets), "sum": 0.0,
                      "count": 0}
            self._series[key] = series
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series["counts"][i] += count
        series["sum"] += float(value) * count
        series["count"] += count

    def reset(self) -> None:
        self._series.clear()

    def samples(self):
        return sorted(self._series.items())


def exposition_samples(family):
    """Every sample of one family as ``(sample name, label pairs,
    value)``, in exposition order.  A histogram series expands to its
    cumulative ``_bucket`` samples (an ``le`` pair last, ``+Inf``
    closing), then ``_sum`` and ``_count``."""
    for key, value in family.samples():
        labels = list(zip(family.labelnames, key))
        if family.kind != "histogram":
            yield family.name, labels, value
            continue
        for bound, count in zip(family.buckets, value["counts"]):
            yield (f"{family.name}_bucket",
                   labels + [("le", _format_number(bound))], count)
        yield (f"{family.name}_bucket", labels + [("le", "+Inf")],
               value["count"])
        yield f"{family.name}_sum", labels, value["sum"]
        yield f"{family.name}_count", labels, value["count"]


class MetricsRegistry:
    """A named collection of metric families with a deterministic
    snapshot API.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    them twice with the same name returns the same family (a name reused
    with a different kind raises :class:`TelemetryError`).
    """

    def __init__(self) -> None:
        self._families = {}

    def _register(self, family):
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family):
                raise TelemetryError(
                    f"metric {family.name} already registered as "
                    f"{existing.kind}"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str = "", labelnames=()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(self, name: str, help_text: str = "", labelnames=()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(self, name: str, help_text: str = "", buckets=(),
                  labelnames=()) -> Histogram:
        return self._register(Histogram(name, help_text, buckets, labelnames))

    def families(self):
        """All metric families, sorted by name (deterministic)."""
        return [self._families[name] for name in sorted(self._families)]

    def reset(self, keep=()) -> None:
        """Zero every family but those in ``keep`` (the families
        themselves stay registered)."""
        for family in self._families.values():
            if family not in keep:
                family.reset()

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A canonical, JSON-ready view of every family.

        Contains only deterministic quantities; samples sort by label
        value, families by name, so the same sequence of recordings
        always produces the same object.
        """
        out = []
        for family in self.families():
            entry = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets)
                entry["samples"] = [
                    {
                        "labels": dict(zip(family.labelnames, key)),
                        "counts": list(series["counts"]),
                        "sum": series["sum"],
                        "count": series["count"],
                    }
                    for key, series in family.samples()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(zip(family.labelnames, key)),
                     "value": value}
                    for key, value in family.samples()
                ]
            out.append(entry)
        return {"format": "fudj-metrics", "version": 1, "families": out}

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — byte-stable."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for name, labels, value in exposition_samples(family):
                if labels:
                    body = ",".join(f'{k}="{v}"' for k, v in labels)
                    name += "{" + body + "}"
                lines.append(f"{name} {_format_number(value)}")
        return "\n".join(lines) + "\n"


class QueryHistory:
    """A bounded, append-only log of executed statements.

    Retention is ``limit`` records; appending past it evicts the oldest
    record, so memory stays capped no matter how long the session runs.
    """

    def __init__(self, limit: int = DEFAULT_HISTORY_LIMIT) -> None:
        if limit < 1:
            raise TelemetryError(f"history limit must be >= 1, got {limit}")
        self.limit = limit
        self._entries = []
        self.total_recorded = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def evicted(self) -> int:
        return self.total_recorded - len(self._entries)

    def append(self, entry: dict) -> None:
        self._entries.append(entry)
        self.total_recorded += 1
        if len(self._entries) > self.limit:
            del self._entries[: len(self._entries) - self.limit]

    def entries(self) -> list:
        """Records oldest to newest (a copy, safe to hold)."""
        return list(self._entries)

    def set_limit(self, limit: int) -> None:
        """Change retention; trims immediately when shrinking."""
        if limit < 1:
            raise TelemetryError(f"history limit must be >= 1, got {limit}")
        self.limit = limit
        if len(self._entries) > limit:
            del self._entries[: len(self._entries) - limit]

    def clear(self) -> None:
        self._entries.clear()
        self.total_recorded = 0


# -- per-statement facts ----------------------------------------------------------

#: The one list of what telemetry records from a statement's
#: ``QueryMetrics.to_dict()``: ``(to_dict key, sys.queries column or
#: None, column type, registry counter or None, help)``.  The history
#: entry's fact columns (and their zeros for a statement that never
#: ran), that stretch of ``sys.queries``' schema and the registry's
#: per-statement counters with their fold are all read from here, so a
#: new counter is a ``QueryMetrics`` attribute, a ``to_dict()`` key and
#: one row.  A row without a counter is a reading of one statement that
#: does not sum across statements.
STATEMENT_FACTS = (
    ("cpu_units", "cpu_units", "double", "fudj_cpu_units_total",
     "Work units charged to the cost model."),
    ("network_bytes", "net_bytes", "double", "fudj_network_bytes_total",
     "Bytes moved by exchanges."),
    ("comparisons", "comparisons", "int", "fudj_comparisons_total",
     "Join predicate evaluations."),
    ("translation_conversions", "conversions", "int",
     "fudj_translation_conversions_total",
     "FUDJ boundary translations performed."),
    ("stages", "stage_count", "int", None, "Plan stages the statement ran."),
    ("tasks_retried", "tasks_retried", "int", "fudj_task_retries_total",
     "Compute task attempts replayed."),
    ("exchange_retries", "exchange_retries", "int",
     "fudj_exchange_retries_total", "Shuffle sends re-transmitted."),
    ("stragglers_detected", "stragglers", "int", "fudj_stragglers_total",
     "Tasks cut short by speculation."),
    ("records_quarantined", "quarantined", "int",
     "fudj_records_quarantined_total",
     "Poison records dropped by degraded-mode policies."),
    ("recovery_seconds", "recovery_seconds", "double",
     "fudj_recovery_seconds_total",
     "Simulated seconds of fault-recovery overhead."),
    ("checkpoint_bytes", "checkpoint_bytes", "double",
     "fudj_checkpoint_bytes_total", "Bytes spooled to the checkpoint store."),
    ("worker_restarts", "worker_restarts", "int",
     "fudj_worker_restarts_total",
     "Worker processes that died mid-query and were respawned."),
    ("heartbeat_misses", "heartbeat_misses", "int",
     "fudj_worker_heartbeat_misses_total",
     "Heartbeat deadlines missed by live workers holding a lease."),
    ("peak_reserved_bytes", "peak_reserved_bytes", "double", None,
     "High-water mark of bytes admitted by the memory accountant."),
    ("spill_bytes", "spill_bytes", "double", "fudj_spill_bytes_total",
     "Bytes written to memory-budget spill files."),
    ("spill_files", "spill_files", "int", "fudj_spill_files_total",
     "Memory-budget spill files written."),
    ("queue_seconds", "queue_seconds", "double", None,
     "Wall seconds the statement waited in the admission queue."),
    ("operator_invocations", None, "int", "fudj_operator_invocations_total",
     "Operator kernel/record invocations (one per record in row "
     "mode, one per batch in batch mode)."),
    ("batches", None, "int", "fudj_batches_total",
     "Record batches produced by batch-mode operators."),
)


# -- sys.* table schemas -------------------------------------------------------

SYS_QUERIES_FIELDS = (
    ("id", "int"), ("sql", "string"), ("kind", "string"),
    ("mode", "string"), ("status", "string"), ("error_type", "string"),
    ("error", "string"), ("rows", "int"), ("wall_seconds", "double"),
    ("sim_seconds", "double"),
    *((column, column_type)
      for _, column, column_type, _, _ in STATEMENT_FACTS if column),
    ("summarize_units", "double"), ("partition_units", "double"),
    ("combine_units", "double"), ("other_units", "double"),
    ("max_bucket_imbalance", "double"), ("max_replication", "double"),
    ("traced", "boolean"),
)

SYS_STAGES_FIELDS = (
    ("query_id", "int"), ("seq", "int"), ("stage", "string"),
    ("op", "string"), ("phase", "string"), ("cpu_units", "double"),
    ("net_bytes", "double"), ("records_in", "int"),
    ("records_out", "int"), ("workers", "int"), ("imbalance", "double"),
)


class StageRow:
    """One ``sys.stages`` row of a retained statement.

    The history keeps one per stage of every statement (30-odd for a
    FUDJ query, times 256 statements), so it is a slotted record, not a
    dict: ``row["cpu_units"]`` reads work as they do on a dict, and
    :meth:`to_dict` builds the dict when ``sys.stages`` is read.
    """

    __slots__ = tuple(name for name, _ in SYS_STAGES_FIELDS)

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def __getitem__(self, name: str):
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(name) from None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


SYS_CALLBACKS_FIELDS = (
    ("query_id", "int"), ("callback", "string"), ("parent", "string"),
    ("calls", "int"), ("errors", "int"), ("cpu_units", "double"),
)

SYS_METRICS_FIELDS = (
    ("metric", "string"), ("kind", "string"), ("labels", "string"),
    ("value", "double"),
)

SYS_RESOURCES_FIELDS = (
    ("component", "string"), ("name", "string"), ("value", "double"),
    ("detail", "string"),
)

SYS_WORKERS_FIELDS = (
    ("slot", "int"), ("pid", "int"), ("alive", "boolean"),
    ("busy", "boolean"), ("tasks_ok", "int"), ("tasks_failed", "int"),
    ("restarts", "int"), ("heartbeats", "int"), ("spill_dir", "string"),
)

SYS_PLANS_FIELDS = (
    ("query_id", "int"), ("seq", "int"), ("optimizer", "string"),
    ("stage", "string"), ("operator", "string"), ("detail", "string"),
    ("est_rows", "double"), ("actual_rows", "int"),
)

SYS_EVENTS_FIELDS = (
    ("seq", "int"), ("query_id", "int"), ("kind", "string"),
    ("level", "string"), ("phase", "string"), ("stage", "string"),
    ("worker", "int"), ("runtime", "boolean"), ("detail", "string"),
)

SYS_SESSIONS_FIELDS = (
    ("session", "int"), ("tenant", "string"), ("state", "string"),
    ("requests", "int"), ("active_query", "int"), ("cancelled", "int"),
    ("lane_depth", "int"),
)

#: Every registered ``sys.*`` table: name → field schema.  The docs
#: linter checks each name here is documented in ``docs/``.
SYS_TABLES = {
    "sys.queries": SYS_QUERIES_FIELDS,
    "sys.stages": SYS_STAGES_FIELDS,
    "sys.callbacks": SYS_CALLBACKS_FIELDS,
    "sys.metrics": SYS_METRICS_FIELDS,
    "sys.resources": SYS_RESOURCES_FIELDS,
    "sys.workers": SYS_WORKERS_FIELDS,
    "sys.plans": SYS_PLANS_FIELDS,
    "sys.events": SYS_EVENTS_FIELDS,
    "sys.sessions": SYS_SESSIONS_FIELDS,
}


class Telemetry:
    """The per-database telemetry hub: registry + history + sys rows.

    One instance lives on each :class:`~repro.database.Database`; its
    :meth:`record_statement` is called by ``Database.execute`` for every
    statement — success or failure — after execution finishes.
    """

    def __init__(self, history_limit: int = DEFAULT_HISTORY_LIMIT,
                 event_limit: int = DEFAULT_EVENT_LIMIT) -> None:
        self.registry = MetricsRegistry()
        self.history = QueryHistory(history_limit)
        #: Structured event log (:mod:`repro.engine.events`), exposed as
        #: ``sys.events`` and the monitor's ``/events`` endpoint.
        self.events = EventLog(event_limit)
        self._started_monotonic = time.monotonic()
        #: Concurrent sessions record from their own threads; history
        #: appends and registry folds share this lock so counters never
        #: lose increments and entries never interleave.
        self._lock = threading.RLock()
        self._id_lock = threading.Lock()
        self._assigned_ids = 0
        r = self.registry
        self._statements = r.counter(
            "fudj_statements_total",
            "Statements executed, by statement kind.", ("kind",))
        self._queries = r.counter(
            "fudj_queries_total",
            "SELECT/EXPLAIN executions, by final status.", ("status",))
        self._rows = r.counter(
            "fudj_rows_returned_total", "Result rows returned to callers.")
        #: ``(to_dict key, counter)`` of every summed statement fact.
        self._fact_totals = [
            (key, r.counter(counter, help_text))
            for key, _, _, counter, help_text in STATEMENT_FACTS if counter]
        self._batch_rows = r.histogram(
            "fudj_batch_rows", "Rows per record batch (batch mode).",
            BATCH_ROWS_BUCKETS)
        self._admission = r.counter(
            "fudj_admission_total",
            "Admission controller decisions, by outcome.", ("outcome",))
        self._breaker_trips = r.counter(
            "fudj_breaker_trips_total", "FUDJ circuit breaker trips.")
        self._breaker_rejections = r.counter(
            "fudj_breaker_rejections_total",
            "Queries failed fast by an open circuit breaker.")
        self._speculations = r.counter(
            "fudj_worker_speculations_total",
            "Speculative task copies launched against real stragglers.")
        self._degradations = r.counter(
            "fudj_backend_degraded_total",
            "Queries degraded from the process backend to serial.")
        #: Counter name -> the lifetime count :meth:`_catch_up` last saw.
        self._seen = {}
        self._stage_units = r.counter(
            "fudj_stage_units_total",
            "Work units charged, by stage operator label.", ("op",))
        self._phase_units = r.counter(
            "fudj_phase_units_total",
            "Work units charged, by FUDJ phase.", ("phase",))
        self._callback_calls = r.counter(
            "fudj_callback_calls_total",
            "User callback invocations (traced queries only).",
            ("callback",))
        self._callback_errors = r.counter(
            "fudj_callback_errors_total",
            "Failed user callback invocations (traced queries only).",
            ("callback",))
        self._callback_units = r.counter(
            "fudj_callback_units_total",
            "Work units attributed to user callbacks (traced queries "
            "only).", ("callback",))
        self._sim_seconds = r.histogram(
            "fudj_query_sim_seconds",
            "Per-query simulated seconds on the session's core count.",
            SIM_SECONDS_BUCKETS)
        self._row_hist = r.histogram(
            "fudj_query_rows", "Per-query result row counts.",
            ROW_COUNT_BUCKETS)
        self._history_entries = r.gauge(
            "fudj_history_entries", "Query history records retained.")
        self._history_evicted = r.gauge(
            "fudj_history_evicted", "Query history records evicted.")
        self._events_emitted = r.gauge(
            "fudj_events_total", "Structured engine events emitted.")
        #: Session-server families.  They sample only once a server
        #: runs, so sessions that never serve keep the byte-identical
        #: snapshot contract untouched (``fudj_drain_seconds`` is a
        #: wall clock, sanctioned the same way as uptime).
        self._sessions_total = r.counter(
            "fudj_sessions_total",
            "Client sessions accepted by the session server.")
        self._sessions_open = r.gauge(
            "fudj_sessions_open",
            "Client sessions currently connected.")
        self._session_requests = r.counter(
            "fudj_session_requests_total",
            "Session-server requests, by op and outcome.",
            ("op", "outcome"))
        self._cancelled = r.counter(
            "fudj_cancelled_total",
            "Queries aborted by cooperative cancellation, by reason.",
            ("reason",))
        self._drain_seconds = r.gauge(
            "fudj_drain_seconds",
            "Wall seconds the session server's last graceful drain "
            "took.")
        #: Scrape self-description.  ``fudj_build_info`` is the
        #: conventional constant-1 info gauge (version/backend/execution
        #: labels, stamped by :meth:`set_build_info`).
        #: ``fudj_uptime_seconds`` is the one sanctioned wall-clock in
        #: the registry: it has *no sample* until :meth:`touch_uptime`
        #: stamps it at monitor scrape time, so un-scraped sessions keep
        #: the byte-identical determinism contract untouched.
        self._build_info = r.gauge(
            "fudj_build_info",
            "Constant 1; version/backend/execution identify the build.",
            ("version", "backend", "execution"))
        self._uptime = r.gauge(
            "fudj_uptime_seconds",
            "Seconds since this session started (stamped at scrape "
            "time).")

    # -- scrape self-description ----------------------------------------------

    def set_build_info(self, backend: str, execution: str) -> None:
        """Stamp the ``fudj_build_info`` gauge (value 1 by convention).
        Re-stamping replaces the previous label set, so a backend or
        execution switch never leaves a stale series behind."""
        from repro import __version__

        self._build_info._values.clear()
        self._build_info.set(1, version=__version__, backend=backend,
                             execution=execution)

    def touch_uptime(self) -> float:
        """Stamp ``fudj_uptime_seconds`` with the session age and return
        it.  Called by the monitor before rendering ``/metrics``; the
        stamped value persists, so a ``metrics_snapshot()`` taken right
        after a scrape renders byte-identically to the scrape."""
        uptime = round(time.monotonic() - self._started_monotonic, 3)
        self._uptime.set(uptime)
        return uptime

    # -- recording ------------------------------------------------------------

    def next_query_id(self) -> int:
        """Reserve the history id the next statement will record under.

        Serial callers get exactly the ids they always did
        (``total_recorded + 1``); concurrent sessions each reserve a
        distinct id up front, so the events a query emits while running
        join to the history entry it eventually records, whatever order
        the statements finish in.
        """
        with self._id_lock:
            self._assigned_ids = max(self._assigned_ids,
                                     self.history.total_recorded) + 1
            return self._assigned_ids

    def record_statement(self, events, sql: str, kind: str, mode: str,
                         status: str, result=None, error=None, cores: int = 1,
                         wall_seconds: float = 0.0,
                         plan_rows: list = None) -> dict:
        """Fold one finished ``execute()`` into history + registry.

        ``events`` is the statement's scoped emitter
        (:meth:`EventLog.scoped <repro.engine.events.EventLog.scoped>`
        of an id reserved via :meth:`next_query_id`): the entry and its
        completion events take its id.  ``result`` is the
        statement's :class:`~repro.engine.executor.QueryResult` (None
        for a statement that failed, whether or not it reached
        execution); ``plan_rows`` the planned-operator rows from the
        optimizer (surfaced through ``sys.plans`` with per-stage
        actuals joined in).  Returns the appended history entry.
        """
        metrics = result.metrics if result is not None else None
        facts = metrics.to_dict() if metrics is not None else None
        with self._lock:
            entry = self._build_entry(sql, kind, mode, status, result, facts,
                                      error, cores, wall_seconds, plan_rows,
                                      events.query_id)
            self.history.append(entry)
            self._statements.inc(kind=kind)
            if kind in ("select", "explain"):
                self._queries.inc(status=status)
            if metrics is not None:
                if kind in ("select", "explain"):
                    self._rows.inc(entry["rows"])
                    self._sim_seconds.observe(entry["sim_seconds"])
                    self._row_hist.observe(entry["rows"])
                for key, total in self._fact_totals:
                    total.inc(facts[key])
                for rows_per_batch, count in sorted(
                        metrics.batch_row_counts.items()):
                    self._batch_rows.observe(rows_per_batch, count)
                for stage_row in entry["stages"]:
                    self._stage_units.inc(stage_row["cpu_units"],
                                          op=stage_row["op"])
                    self._phase_units.inc(stage_row["cpu_units"],
                                          phase=stage_row["phase"])
            for cb in entry["callbacks"]:
                self._callback_calls.inc(cb["calls"],
                                         callback=cb["callback"])
                if cb["errors"]:
                    self._callback_errors.inc(cb["errors"],
                                              callback=cb["callback"])
                self._callback_units.inc(cb["cpu_units"],
                                         callback=cb["callback"])
            self._history_entries.set(len(self.history))
            self._history_evicted.set(self.history.evicted)
            self._emit_statement_events(entry, metrics, error)
            self._events_emitted.set(self.events.total_emitted)
            return entry

    def _emit_statement_events(self, entry: dict, metrics, error) -> None:
        """Completion-time events for one statement: the per-stage
        timeline, degraded-mode and estimate summaries, then the
        terminal ``query.finish`` / ``query.error``.  Everything here is
        derived from deterministic entry fields (never ``wall_seconds``
        or ``queue_seconds``), so the stream stays byte-stable."""
        ev = self.events
        qid = entry["id"]
        if metrics is not None:
            for stage_row in entry["stages"]:
                ev.emit("stage.finish", query_id=qid,
                        stage=stage_row["stage"], phase=stage_row["phase"],
                        cpu_units=stage_row["cpu_units"],
                        records_in=stage_row["records_in"],
                        records_out=stage_row["records_out"],
                        workers=stage_row["workers"])
            if entry["quarantined"]:
                ev.emit("fault.quarantine", query_id=qid,
                        records=entry["quarantined"])
        for plan_row in entry["plans"]:
            if plan_row["est_rows"] >= 0 and plan_row["actual_rows"] >= 0:
                ev.emit("plan.actuals", query_id=qid,
                        stage=plan_row["stage"],
                        est_rows=plan_row["est_rows"],
                        actual_rows=plan_row["actual_rows"])
        if error is None:
            ev.emit("query.finish", query_id=qid, status=entry["status"],
                    rows=entry["rows"], cpu_units=entry["cpu_units"],
                    sim_seconds=entry["sim_seconds"])
            return
        if entry["status"] == "shed":
            ev.emit("admission.shed", query_id=qid,
                    reason=getattr(error, "reason", ""))
        elif entry["status"] == "rejected":
            ev.emit("breaker.reject", query_id=qid,
                    error_type=entry["error_type"])
        elif entry["status"] == "cancelled":
            # Runtime kind: cancellation is client/wall-clock driven, so
            # it never lands in the deterministic stream.
            ev.emit("cancel.complete", query_id=qid,
                    reason=getattr(error, "reason", ""))
        ev.emit("query.error", query_id=qid, status=entry["status"],
                error_type=entry["error_type"])

    def _build_entry(self, sql, kind, mode, status, result, facts, error,
                     cores, wall_seconds, plan_rows, query_id) -> dict:
        """The history entry of one statement — a pure function of its
        arguments (``facts`` is ``result.metrics.to_dict()``, or None
        with no result)."""
        metrics = result.metrics if result is not None else None
        trace = result.trace if result is not None else None
        entry = {
            "id": int(query_id),
            "sql": sql.strip(),
            "kind": kind,
            "mode": mode,
            "status": status,
            "error_type": type(error).__name__ if error is not None else "",
            "error": str(error) if error is not None else "",
            "rows": len(result.rows) if result is not None else 0,
            "wall_seconds": float(wall_seconds),
            "sim_seconds": (metrics.simulated_seconds(max(1, cores))
                            if metrics is not None else 0.0),
        }
        for key, column, column_type, _, _ in STATEMENT_FACTS:
            if column is not None:
                entry[column] = (facts[key] if facts is not None
                                 else 0.0 if column_type == "double" else 0)
        entry.update(
            summarize_units=0.0, partition_units=0.0, combine_units=0.0,
            other_units=0.0, max_bucket_imbalance=0.0, max_replication=0.0,
            traced=trace is not None, stages=[], callbacks=[], plans=[],
        )
        if metrics is not None:
            for seq, stage in enumerate(metrics.stages):
                op = stage_op(stage.name)
                units = stage.total_units()
                phase = phase_of(op)
                entry["stages"].append(StageRow(
                    query_id=entry["id"],
                    seq=seq,
                    stage=stage.name,
                    op=op,
                    phase=phase,
                    cpu_units=units,
                    net_bytes=stage.network_bytes + stage.fabric_bytes,
                    records_in=stage.records_in,
                    records_out=stage.records_out,
                    workers=len(stage.worker_units),
                    imbalance=stage.imbalance() or 1.0,
                ))
                entry[f"{phase}_units"] += units
        if plan_rows:
            actuals = {}
            if metrics is not None:
                actuals = {stage.name: stage.records_out
                           for stage in metrics.stages}
            for plan_row in plan_rows:
                entry["plans"].append({
                    "query_id": entry["id"],
                    "seq": plan_row["seq"],
                    "optimizer": plan_row["optimizer"],
                    "stage": plan_row["stage"],
                    "operator": plan_row["operator"],
                    "detail": plan_row["detail"],
                    "est_rows": float(plan_row["est_rows"]),
                    "actual_rows": int(actuals.get(plan_row["stage"], -1)),
                })
        if trace is not None:
            for cb in trace.callback_rows():
                entry["callbacks"].append({
                    "query_id": entry["id"],
                    "callback": cb["callback"],
                    "parent": cb["parent"],
                    "calls": cb["calls"],
                    "errors": cb["errors"],
                    "cpu_units": cb["units"],
                })
            for skew in trace.skew.values():
                entry["max_bucket_imbalance"] = max(
                    entry["max_bucket_imbalance"], skew.imbalance())
                entry["max_replication"] = max(
                    entry["max_replication"], skew.replication_factor())
        return entry

    def note_admission(self, outcome: str) -> None:
        """Count one admission decision (``admitted`` / ``queue-full`` /
        ``lane-full`` / ``timeout``)."""
        with self._lock:
            self._admission.inc(outcome=outcome)

    def note_session(self, open_count) -> None:
        """Count one session opening.  ``fudj_sessions_open`` renders
        ``open_count()``, the server's live session count, from then on."""
        with self._lock:
            self._sessions_total.inc()
            self._sessions_open.source = open_count

    def note_request(self, op: str, outcome: str) -> None:
        """Count one finished session-server request."""
        with self._lock:
            self._session_requests.inc(op=op, outcome=outcome)

    def note_cancel(self, reason: str) -> None:
        """Count one cooperative cancellation, by reason."""
        with self._lock:
            self._cancelled.inc(reason=reason)

    def note_drain(self, seconds: float) -> None:
        """Stamp how long the last graceful drain took."""
        with self._lock:
            self._drain_seconds.set(round(float(seconds), 3))

    def sync_breaker(self, breaker, query_id: int = 0) -> None:
        """Fold a circuit breaker's lifetime trip/rejection counts into
        the registry (idempotent — only deltas are added).  A fresh trip
        also lands in the event log, attributed to ``query_id``."""
        if breaker is None:
            return
        with self._lock:
            trips = self._catch_up(self._breaker_trips, breaker.trips)
            if trips > 0:
                self.events.emit("breaker.trip", query_id=query_id,
                                 trips=trips)
            self._catch_up(self._breaker_rejections, breaker.rejections)

    def sync_pool(self, pool) -> None:
        """Fold a worker pool's lifetime speculation/degradation counts
        into the registry (idempotent — only deltas are added; restart
        and heartbeat-miss counters come from the per-query metrics fold
        instead, so they attribute to the query that suffered them)."""
        if pool is None:
            return
        counters = pool.counters()
        with self._lock:
            self._catch_up(self._speculations, counters["speculations"])
            self._catch_up(self._degradations, counters["degradations"])

    def _catch_up(self, counter, lifetime: int) -> int:
        """Add to ``counter`` what ``lifetime`` — a count its owner keeps
        for its whole life — grew by since the last call; returns that
        growth."""
        grown = lifetime - self._seen.get(counter.name, 0)
        self._seen[counter.name] = lifetime
        if grown > 0:
            counter.inc(grown)
        return grown

    # -- snapshots ------------------------------------------------------------

    def snapshot(self, fmt: str = "json") -> str:
        """The registry in ``"json"`` (canonical) or ``"prometheus"``
        (text exposition) form."""
        if fmt == "json":
            return self.registry.to_json()
        if fmt == "prometheus":
            return self.registry.to_prometheus()
        raise TelemetryError(
            f"unknown snapshot format {fmt!r}; use json or prometheus"
        )

    def reset(self) -> None:
        """Zero the registry (all but ``fudj_build_info``), drop the
        history, and clear the event log (an attached event sink stays
        attached)."""
        with self._lock:
            # Build info says what the session is, not what it has done.
            self.registry.reset(keep=(self._build_info,))
            self.history.clear()
            self.events.clear()
            with self._id_lock:
                self._assigned_ids = 0

    # -- sys.* row providers --------------------------------------------------

    def queries_rows(self) -> list:
        keys = [name for name, _ in SYS_QUERIES_FIELDS]
        return [{key: entry[key] for key in keys}
                for entry in self.history.entries()]

    def entry_rows(self, name: str) -> list:
        """One of the three lists every retained statement's entry holds
        (``stages`` / ``callbacks`` / ``plans``), end to end, oldest
        statement first — the ``sys.*`` table of that name."""
        rows = []
        for entry in self.history.entries():
            rows.extend(entry[name])
        return rows

    def metrics_rows(self) -> list:
        """The registry flattened to one row per sample (histograms
        expand to ``_bucket`` / ``_sum`` / ``_count`` rows)."""
        return [
            {"metric": name, "kind": family.kind,
             "labels": ",".join(f"{k}={v}" for k, v in labels),
             "value": float(value)}
            for family in self.registry.families()
            for name, labels, value in exposition_samples(family)
        ]


def resources_rows(db) -> list:
    """Current resource-governance state as ``sys.resources`` rows."""
    rows = []

    def add(component, name, value, detail=""):
        rows.append({"component": component, "name": name,
                     "value": float(value), "detail": detail})

    budget = getattr(db, "memory_budget", None)
    add("budget", "memory_budget_bytes", budget or 0.0,
        "off" if budget is None else "on")
    add("budget", "worker_memory_bytes",
        db.cluster.cost_model.worker_memory_bytes)
    admission = getattr(db, "admission", None)
    if admission is not None:
        for name, value in sorted(admission.snapshot().items()):
            add("admission", name, value)
    breaker = getattr(db, "breaker", None)
    if breaker is not None:
        snap = breaker.snapshot()
        add("breaker", "threshold", snap["threshold"])
        add("breaker", "trips", snap["trips"])
        add("breaker", "rejections", snap["rejections"])
        add("breaker", "open_libraries", len(snap["open"]),
            ",".join(snap["open"]))
        for join_name, failures in snap["failures"].items():
            add("breaker", "consecutive_failures", failures, join_name)
    return rows


def workers_rows(db) -> list:
    """Current worker-pool seats as ``sys.workers`` rows (empty on the
    serial backend, or before the pool's first process-backend query)."""
    pool = getattr(db, "worker_pool", None)
    if pool is None:
        return []
    return pool.snapshot_rows()


def sessions_rows(db) -> list:
    """Live session-server sessions as ``sys.sessions`` rows (empty
    when no session server is running)."""
    server = getattr(db, "server", None)
    if server is None:
        return []
    return server.sessions_rows()


def register_sys_tables(db) -> None:
    """Register every ``sys.*`` virtual table with a database's catalog
    (one entry each in the cluster's registry of relations), backed by
    its :class:`Telemetry` instance.

    The cluster holds the providers and the database holds the cluster,
    so a provider that reads the database holds it weakly: a closed and
    dropped database is then freed with its last reference, not at some
    later generation-2 collection with every record it loaded."""
    telemetry = db.telemetry
    db = weakref.proxy(db)
    providers = {
        "sys.queries": telemetry.queries_rows,
        "sys.stages": lambda: [row.to_dict()
                               for row in telemetry.entry_rows("stages")],
        "sys.callbacks": lambda: telemetry.entry_rows("callbacks"),
        "sys.metrics": telemetry.metrics_rows,
        "sys.resources": lambda: resources_rows(db),
        "sys.workers": lambda: workers_rows(db),
        "sys.plans": lambda: telemetry.entry_rows("plans"),
        "sys.events": telemetry.events.rows,
        "sys.sessions": lambda: sessions_rows(db),
    }
    for name, fields in SYS_TABLES.items():
        db.catalog.register_virtual_table(name, fields, providers[name])
