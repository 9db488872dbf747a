"""Exception hierarchy for the FUDJ reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch one base class.  The engine distinguishes between user
errors (bad SQL, unknown dataset, bad FUDJ implementation) and internal
invariant violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ParseError(ReproError):
    """The SQL text could not be parsed.

    Attributes:
        position: character offset of the offending token, if known.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class CatalogError(ReproError):
    """A catalog object (type, dataset, join) is missing or duplicated."""


class PlanError(ReproError):
    """A logical plan could not be built or optimized."""


class ExecutionError(ReproError):
    """A physical operator failed at runtime."""


class FudjCallbackError(ExecutionError):
    """A user FUDJ callback raised or returned something unusable.

    Carries the join name and the phase (summarize/divide/assign/match/
    verify/dedup) so a developer debugging a join library sees where the
    engine was, not just a raw traceback from deep inside an operator.
    """

    def __init__(self, join_name: str, phase: str, original: Exception) -> None:
        super().__init__(
            f"FUDJ {join_name!r} failed in {phase}: "
            f"{type(original).__name__}: {original}"
        )
        self.join_name = join_name
        self.phase = phase
        self.original = original


class QueryTimeoutError(ExecutionError):
    """The query exceeded its wall-clock budget and was cancelled.

    The budget (``query_timeout``, or a request's ``deadline_ms``) is a
    deadline on the query's :class:`~repro.engine.cancel.CancellationToken`
    counted from the call; the token's ``check()`` raises this at the
    first checkpoint past it, so no partial results escape.
    """

    def __init__(self, elapsed_seconds: float, limit_seconds: float) -> None:
        super().__init__(
            f"query timed out after {elapsed_seconds:.3f}s "
            f"(limit {limit_seconds:.3f}s)"
        )
        self.elapsed_seconds = elapsed_seconds
        self.limit_seconds = limit_seconds


class QueryCancelledError(ExecutionError):
    """The query was cancelled cooperatively before it finished.

    Raised at the next cancellation checkpoint (a wait for the engine,
    a stage or operator boundary, exchange, task attempt, or guarded
    FUDJ callback) after a
    :class:`~repro.engine.cancel.CancellationToken` is cancelled — by an
    explicit client CANCEL, a client disconnect, or a server drain.  The
    unwind is clean: reservations are released, spill files dropped, and
    the worker pool's leases abandoned, so the same query re-run on the
    same database returns byte-identical rows.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(f"query cancelled ({reason})")
        self.reason = reason


class TaskFailedError(ExecutionError):
    """A partition task kept failing past the fault plan's retry cap."""

    def __init__(self, stage: str, worker: int, attempts: int) -> None:
        super().__init__(
            f"task {stage!r} on worker {worker} failed "
            f"{attempts} consecutive attempts; giving up"
        )
        self.stage = stage
        self.worker = worker
        self.attempts = attempts


class AdmissionError(ExecutionError):
    """The admission controller refused to run the query.

    ``reason`` is ``"queue-full"`` (load shed: the bounded wait queue was
    at capacity) or ``"timeout"`` (the query waited past the configured
    queue timeout without getting a grant).  ``estimate_bytes`` is the
    memory reservation the controller computed for the query.
    """

    def __init__(self, reason: str, estimate_bytes: float,
                 detail: str = "") -> None:
        super().__init__(
            f"admission rejected ({reason}): "
            f"estimated {estimate_bytes:.0f} reserved bytes"
            + (f"; {detail}" if detail else "")
        )
        self.reason = reason
        self.estimate_bytes = estimate_bytes


class BreakerOpenError(ExecutionError):
    """A FUDJ callback library's circuit breaker is open.

    After ``threshold`` consecutive callback failures the breaker trips
    and every later query using the library fails fast with this error
    until an operator resets it (shell ``.breaker reset`` or
    :meth:`CircuitBreaker.reset`).
    """

    def __init__(self, join_name: str, failures: int, threshold: int) -> None:
        super().__init__(
            f"circuit breaker open for FUDJ {join_name!r}: "
            f"{failures} consecutive failures (threshold {threshold}); "
            "reset the breaker to re-enable the library"
        )
        self.join_name = join_name
        self.failures = failures
        self.threshold = threshold


class WorkerPoolError(ExecutionError):
    """The process-pool backend is unhealthy and cannot run tasks.

    Raised by the worker supervisor when the restart budget is exhausted
    or no live worker remains.  The engine catches it internally and
    degrades the query to the serial backend; it only escapes to callers
    who drive :class:`~repro.engine.workers.WorkerPool` directly.
    """


class ServerError(ReproError):
    """A server front door (session server or monitor) could not start
    or was misused.

    The common case is a port already in use: the raw ``OSError`` is
    wrapped so callers see *which* port failed and can react (pick
    another, report cleanly) without parsing errno text.
    """

    def __init__(self, message: str, host: str = "", port: int = None) -> None:
        super().__init__(message)
        self.host = host
        self.port = port


class SerdeError(ReproError):
    """A value could not be (de)serialized or translated."""


class JoinLibraryError(ReproError):
    """A FUDJ library is malformed (bad class path, wrong interface, ...)."""
