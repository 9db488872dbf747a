"""Cooperative cancellation: one token per query, its only stop condition.

A :class:`CancellationToken` is a thread-safe latch a *controller* (the
session server, a client disconnect monitor, an operator at a shell)
flips exactly once, plus an optional deadline (``query_timeout``, a
request's ``deadline_ms``).  A *worker* (the query executing on the
engine thread) polls it at its natural checkpoints:

* the two waits before execution — the admission queue and the engine
  lock — every 50 ms,
* every new plan stage (:meth:`ExecutionContext.check_cancel
  <repro.engine.context.ExecutionContext.check_cancel>` runs on the
  stage observer),
* every operator boundary (:meth:`PhysicalOperator.execute
  <repro.engine.operators.base.PhysicalOperator.execute>`),
* every exchange and every record batch built,
* every per-worker task attempt (``ExecutionContext.run_task``) and the
  process-pool lease loop (``WorkerPool.run_tasks(check_cancel=...)``),
* every guarded FUDJ callback invocation, so a slow user ``summarize``
  or ``combine`` phase aborts record-by-record, not phase-by-phase.

Cancellation is *cooperative*: nothing is killed.  The checkpoint
raises :class:`~repro.errors.QueryCancelledError` (the latch) or
:class:`~repro.errors.QueryTimeoutError` (the deadline), the normal
error unwind frees reservations and spill files
(``executor.execute_plan`` closes the accountant and abandons pool
leases on any error), and the engine is immediately reusable —
re-running the same query afterwards returns byte-identical rows,
which ``tests/test_server.py`` pins down.
"""

from __future__ import annotations

import threading
import time

from repro.errors import QueryCancelledError, QueryTimeoutError

__all__ = ["CancellationToken"]


class CancellationToken:
    """A one-shot, thread-safe cancellation latch with an optional
    deadline, ``timeout`` seconds from when the token is made.

    ``cancel(reason)`` may be called from any thread, any number of
    times — the first call wins and records its reason.  ``check()`` is
    cheap enough for per-record polling (two attribute reads on the
    fast path).
    """

    __slots__ = ("_cancelled", "_reason", "_lock", "_deadline", "_limit")

    def __init__(self, timeout: float = None) -> None:
        self._cancelled = False
        self._reason = ""
        self._lock = threading.Lock()
        #: perf_counter() instant :meth:`check` stops at, and the budget
        #: in seconds that set it.
        self._deadline = None
        self._limit = None
        if timeout is not None:
            self.expire_after(timeout)

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (a passed deadline
        does not flip the latch)."""
        return self._cancelled

    @property
    def reason(self) -> str:
        """The first cancel's reason (empty while uncancelled)."""
        return self._reason

    def cancel(self, reason: str = "cancelled") -> bool:
        """Flip the latch; returns True only for the winning call."""
        with self._lock:
            if self._cancelled:
                return False
            self._reason = str(reason) or "cancelled"
            self._cancelled = True
            return True

    def expire_after(self, seconds: float) -> "CancellationToken":
        """Give the token a budget of ``seconds`` from now, keeping the
        earlier deadline if it already has one; returns the token."""
        deadline = time.perf_counter() + seconds
        with self._lock:
            if self._deadline is None or deadline < self._deadline:
                self._deadline, self._limit = deadline, seconds
        return self

    def check(self) -> None:
        """Raise :class:`QueryCancelledError` if cancelled, or
        :class:`QueryTimeoutError` once the deadline has passed (else
        no-op)."""
        if self._cancelled:
            raise QueryCancelledError(self._reason)
        if self._deadline is not None:
            late = time.perf_counter() - self._deadline
            if late >= 0.0:
                raise QueryTimeoutError(self._limit + late, self._limit)

    def __repr__(self) -> str:
        state = f"cancelled: {self._reason!r}" if self._cancelled else "live"
        return f"CancellationToken({state})"
