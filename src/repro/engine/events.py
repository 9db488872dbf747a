"""Deterministic structured event log: the engine's decision timeline.

Metrics (:mod:`repro.engine.telemetry`) answer *how much*; traces
(:mod:`repro.engine.tracing`) answer *where the time went* inside one
query.  The event log answers *what the engine decided and when*:
retries, stragglers, spills, admission decisions, breaker trips, worker
supervision, optimizer choices — one typed :class:`Event` per discrete
decision, appended in execution order.

Two event classes share one log:

* **Deterministic events** are emitted by seed-deterministic code paths
  (the serial retry loop, the coordinator-side ledger replay of the
  process backend, admission, spill, breaker, optimizer, and query
  lifecycle).  They carry only charged units, simulated seconds,
  counters, and stable identifiers — never wall clocks, PIDs, or temp
  paths — so two identical seeded runs produce a **byte-identical**
  canonical JSONL stream (:meth:`EventLog.to_jsonl`), and the serial
  and process backends produce the *same* deterministic stream for the
  same query (worker-side events ride the process backend's ledger
  replay, not the workers themselves).

* **Runtime events** (the ``worker.*`` kinds) describe physical pool
  supervision — leases, real crashes, heartbeat misses, speculation,
  degradation — which depends on OS scheduling.  They are retained and
  queryable (``sys.events``, the ``/events`` monitor endpoint) but are
  excluded from the canonical JSONL stream and carry negative sequence
  numbers, so they can never perturb the deterministic timeline.

Every emitted ``kind`` must be registered in :data:`EVENT_KINDS`; the
docs linter (``tools/lint_docs.py`` check #9) holds
``docs/observability.md`` to that registry.
"""

from __future__ import annotations

import json
import threading

from repro.engine.metrics import phase_of, stage_op
# The session-stable form of a stage name, under the name the event log
# exports it by.
from repro.engine.metrics import stage_key as normalize_stage
from repro.errors import ReproError

#: Default bound on retained events (oldest evicted first).
DEFAULT_EVENT_LIMIT = 4096

#: Severity levels an event may carry.
EVENT_LEVELS = ("debug", "info", "warn", "error")

#: Every event kind the engine may emit: name -> (default level, help).
#: The docs linter requires each kind to appear in
#: ``docs/observability.md``; :meth:`EventLog.emit` rejects unregistered
#: kinds, so the registry and the code cannot drift apart.
EVENT_KINDS = {
    # query lifecycle (Database.execute / Telemetry.record_statement)
    "query.start": ("info", "A statement was parsed and began executing."),
    "query.finish": ("info", "A statement finished successfully."),
    "query.error": ("error", "A statement failed; detail has the class."),
    "stage.finish": ("debug", "One plan stage completed (per-phase "
                              "timeline: units, records, workers)."),
    # cost optimizer (Database._cost_optimize + record_statement)
    "plan.order": ("info", "The cost optimizer chose a join order."),
    "plan.operator": ("info", "The cost optimizer picked a physical "
                              "operator for one join."),
    "plan.actuals": ("debug", "Estimated vs. actual rows for one "
                              "annotated stage, on completion."),
    # resource governance (resources.py / database.py)
    "admission.admit": ("debug", "The admission controller admitted a "
                                 "query."),
    "admission.shed": ("warn", "The admission controller shed a query "
                               "(queue full or wait timeout)."),
    "resource.spill": ("warn", "Over-budget operator state was spilled "
                               "to disk and replayed."),
    "breaker.trip": ("error", "A join library's circuit breaker "
                              "tripped open."),
    "breaker.reject": ("warn", "A query failed fast against an open "
                               "circuit breaker."),
    # fault/retry path (context.run_task, faults.py, workers replay)
    "fault.retry": ("warn", "A task attempt's output was lost; the "
                            "task replayed from its checkpoint."),
    "fault.straggler": ("warn", "A straggling task was cut short by a "
                                "speculative copy."),
    "fault.exchange_retry": ("warn", "A shuffle send failed in transit "
                                     "and was re-sent."),
    "fault.quarantine": ("warn", "Poison records were dropped by a "
                                 "degraded-mode callback policy."),
    # process-backend supervision (runtime: physical, not deterministic)
    "worker.lease": ("debug", "A task was leased to a pool worker."),
    "worker.crash": ("warn", "A pool worker died holding a lease."),
    "worker.redispatch": ("info", "A dead worker's task was re-dispatched "
                                  "to a fresh process."),
    "worker.heartbeat_miss": ("warn", "A live worker missed a heartbeat "
                                      "deadline."),
    "worker.speculate": ("info", "A speculative copy was launched "
                                 "against a real straggler."),
    "worker.degrade": ("warn", "The process backend degraded to the "
                               "serial path for this stage."),
    # session server (runtime: client timing, not deterministic)
    "server.start": ("info", "The session server began accepting "
                             "connections."),
    "server.drain": ("info", "The session server stopped accepting and "
                             "began draining in-flight requests."),
    "server.stop": ("info", "The session server shut down."),
    "session.open": ("info", "A client session connected."),
    "session.close": ("info", "A client session disconnected."),
    "session.shed": ("warn", "A connection or request was refused "
                             "(session cap, tenant lane full, or "
                             "drain)."),
    "cancel.request": ("warn", "A query's cancellation token was "
                               "cancelled (client CANCEL, disconnect, "
                               "or drain)."),
    "cancel.complete": ("info", "A cancelled query finished unwinding; "
                                "its resources are released."),
}

#: Kinds whose timing depends on OS scheduling or client behaviour:
#: retained and queryable, but excluded from the deterministic JSONL
#: stream.  ``worker.*`` is pool supervision; ``server.*`` /
#: ``session.*`` / ``cancel.*`` follow real sockets and wall-clock
#: races, so they must never perturb the deterministic timeline either.
RUNTIME_KINDS = frozenset(
    kind for kind in EVENT_KINDS
    if kind.startswith(("worker.", "server.", "session.", "cancel."))
)


class EventLogError(ReproError):
    """Misuse of the event log (unknown kind or level, bad limit)."""


class Event:
    """One engine decision.

    ``seq`` is positive and gapless for deterministic events, negative
    for runtime events (their own descending counter), so the
    deterministic timeline stays contiguous whatever the pool does.
    ``detail`` holds the kind-specific payload (deterministic fields
    only: units, counts, names — never wall clocks or PIDs).

    The log retains thousands of these, so the class is slotted; nothing
    writes to an event after :meth:`EventLog.emit` has built it.
    """

    __slots__ = ("seq", "kind", "level", "query_id", "phase", "stage",
                 "worker", "runtime", "detail")

    def __init__(self, seq: int, kind: str, level: str, query_id: int,
                 phase: str, stage: str, worker: int, runtime: bool,
                 detail: dict) -> None:
        self.seq = seq
        self.kind = kind
        self.level = level
        self.query_id = query_id
        self.phase = phase
        self.stage = stage
        self.worker = worker
        self.runtime = runtime
        self.detail = detail

    def __repr__(self) -> str:
        return f"Event({self.to_line()})"

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "level": self.level,
            "query": self.query_id,
            "phase": self.phase,
            "stage": self.stage,
            "worker": self.worker,
            "detail": dict(self.detail),
        }

    def to_line(self) -> str:
        """Canonical JSONL form: sorted keys, no whitespace — the unit
        of the byte-identical determinism contract."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


class _NullEvents:
    """The inert sink: every emit is a no-op (contexts without a log)."""

    __slots__ = ()

    def emit(self, kind: str, stage: str = "", worker: int = -1,
             phase: str = None, level: str = None, **detail) -> None:
        return None


NULL_EVENTS = _NullEvents()


class QueryEvents:
    """An emitter handle bound to one query id (what the execution
    context carries, so operators never thread ids around)."""

    __slots__ = ("log", "query_id")

    def __init__(self, log: "EventLog", query_id: int) -> None:
        self.log = log
        self.query_id = query_id

    def emit(self, kind: str, stage: str = "", worker: int = -1,
             phase: str = None, level: str = None, **detail) -> Event:
        return self.log.emit(kind, query_id=self.query_id, stage=stage,
                             worker=worker, phase=phase, level=level,
                             **detail)


class EventLog:
    """A bounded, append-only log of typed events with a canonical
    JSONL serialization.

    Retention is ``limit`` events (oldest evicted first).  An optional
    file sink (:meth:`attach_sink`) tees every *deterministic* event to
    disk as it is emitted, so the on-disk stream is complete even when
    retention evicts — and byte-identical across identical seeded runs.
    """

    def __init__(self, limit: int = DEFAULT_EVENT_LIMIT) -> None:
        if limit < 1:
            raise EventLogError(f"event limit must be >= 1, got {limit}")
        self.limit = limit
        self._events = []
        self._seq = 0
        self._runtime_seq = 0
        self.total_emitted = 0
        self._sink = None
        self.sink_path = None
        #: Concurrent sessions emit from their own threads; sequence
        #: assignment, retention, and the file sink share one lock so
        #: the stream stays gapless and the sink lines never interleave.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._events)

    # -- emission -------------------------------------------------------------

    def emit(self, kind: str, query_id: int = 0, stage: str = "",
             worker: int = -1, phase: str = None, level: str = None,
             **detail) -> Event:
        """Append one event; returns it.

        ``kind`` must be registered in :data:`EVENT_KINDS` (the default
        level comes from the registry; ``level`` overrides it).
        ``phase`` defaults to the FUDJ phase of ``stage`` when one is
        given (empty for non-stage events).  ``detail`` must be
        JSON-representable and deterministic.
        """
        registered = EVENT_KINDS.get(kind)
        if registered is None:
            raise EventLogError(
                f"unregistered event kind {kind!r}; add it to "
                "repro.engine.events.EVENT_KINDS"
            )
        if level is None:
            level = registered[0]
        elif level not in EVENT_LEVELS:
            raise EventLogError(
                f"unknown event level {level!r}; "
                f"use {'/'.join(EVENT_LEVELS)}"
            )
        runtime = kind in RUNTIME_KINDS
        if phase is None:
            phase = phase_of(stage_op(stage)) if stage else ""
        with self._lock:
            if runtime:
                self._runtime_seq += 1
                seq = -self._runtime_seq
            else:
                self._seq += 1
                seq = self._seq
            event = Event(
                seq=seq, kind=kind, level=level, query_id=int(query_id),
                phase=phase, stage=normalize_stage(stage), worker=int(worker),
                runtime=runtime, detail=detail,
            )
            self._events.append(event)
            self.total_emitted += 1
            if len(self._events) > self.limit:
                del self._events[: len(self._events) - self.limit]
            if self._sink is not None and not runtime:
                self._sink.write(event.to_line() + "\n")
                self._sink.flush()
        return event

    def scoped(self, query_id: int) -> QueryEvents:
        """An emitter bound to ``query_id``."""
        return QueryEvents(self, query_id)

    # -- views ----------------------------------------------------------------

    def events(self, runtime: bool = True) -> list:
        """Retained events, oldest first; ``runtime=False`` keeps only
        the deterministic stream."""
        if runtime:
            return list(self._events)
        return [event for event in self._events if not event.runtime]

    def tail(self, count: int = 10) -> list:
        """The newest ``count`` retained events, oldest first."""
        if count < 1:
            return []
        return list(self._events[-count:])

    def rows(self) -> list:
        """``sys.events`` rows: one per retained event, ``detail``
        rendered as canonical JSON text."""
        return [
            {
                "seq": event.seq,
                "query_id": event.query_id,
                "kind": event.kind,
                "level": event.level,
                "phase": event.phase,
                "stage": event.stage,
                "worker": event.worker,
                "runtime": event.runtime,
                "detail": json.dumps(event.detail, sort_keys=True,
                                     separators=(",", ":")),
            }
            for event in self._events
        ]

    def to_jsonl(self) -> str:
        """The retained *deterministic* stream as canonical JSONL —
        byte-identical across identical seeded runs, serial or process
        backend alike."""
        lines = [event.to_line() for event in self._events
                 if not event.runtime]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- file sink ------------------------------------------------------------

    def attach_sink(self, path: str, append: bool = False) -> None:
        """Tee every deterministic event to ``path`` as it is emitted
        (``Database(event_log=...)`` / ``--events-out``).  Replaces any
        previous sink; ``append`` continues an existing file instead of
        truncating (how ``.demo`` carries the stream across its database
        swap)."""
        self.close_sink()
        self._sink = open(path, "a" if append else "w")
        self.sink_path = path

    def close_sink(self) -> None:
        """Flush and close the file sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def clear(self) -> None:
        """Drop retained events and restart both sequences (the file
        sink, if any, is left attached and untouched)."""
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._runtime_seq = 0
            self.total_emitted = 0
