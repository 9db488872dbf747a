"""Concurrent session server: the database's network front door.

A zero-dependency TCP server multiplexing many client sessions onto one
:class:`~repro.database.Database`.  The wire protocol is JSONL: each
request is one JSON object per line, each response one JSON object per
line, matched by the client-chosen ``id`` — so responses may interleave
freely with later requests on the same connection (a ``cancel`` can
race the query it targets, which is the point).

Request ops::

    {"id": 1, "op": "hello", "tenant": "analytics"}
    {"id": 2, "op": "query", "sql": "SELECT ...", "mode": "fudj",
     "deadline_ms": 500}
    {"id": 3, "op": "cancel", "target": 2}
    {"id": 4, "op": "ping"}
    {"id": 5, "op": "close"}

Responses carry ``type`` (``result`` / ``error`` / ``ok`` / ``pong``)
plus op-specific fields; errors carry a typed ``error`` status
(``timeout`` / ``cancelled`` / ``shed`` / ``rejected`` / ``failed`` /
``error`` / ``draining`` / ``bad-request``) so clients react without
parsing messages.

Request robustness, end to end:

* **One token per request** — every query request gets a
  :class:`~repro.engine.cancel.CancellationToken` when it arrives.
* **Deadlines** — ``deadline_ms`` is that token's deadline.  The engine
  checks it in every wait (admission queue, engine lock) and at every
  checkpoint, so a request stuck behind a long-running query still dies
  on time, answering ``error: "timeout"``.
* **Cooperative cancellation** — an explicit ``cancel`` op, a client
  disconnect, or a server drain cancels the token; the engine aborts at
  the next checkpoint, frees reservations and spill files, and the
  recorded status is ``cancelled``.  Re-running the same query
  afterwards returns byte-identical rows.
* **Per-tenant backpressure** — each session's tenant gets a bounded
  lane (:class:`~repro.engine.resources.TenantLanes`); requests past
  the lane depth are shed with ``error: "shed"`` before they can occupy
  the shared admission queue.  The PR 4
  :class:`~repro.engine.resources.AdmissionController` still governs
  memory capacity and global queueing behind the lanes.
* **Graceful drain** — :meth:`SessionServer.stop` (or SIGTERM via
  ``fudj serve``) stops accepting, lets in-flight requests finish for
  up to ``drain_timeout`` seconds, cancels stragglers cooperatively,
  then closes every session.  ``fudj_drain_seconds`` records how long
  the drain took.

Observability: ``server.*`` / ``session.*`` / ``cancel.*`` events (all
*runtime* kinds — client timing is not deterministic, so they never
perturb the canonical JSONL stream), ``fudj_sessions_*`` /
``fudj_session_requests_total`` / ``fudj_cancelled_total`` counters,
and the live ``sys.sessions`` virtual table.
"""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time

from repro.database import _error_status
from repro.engine.cancel import CancellationToken
from repro.engine.resources import TenantLanes
from repro.errors import AdmissionError, ReproError, ServerError

#: Default in-flight request depth of one tenant's lane.
DEFAULT_TENANT_DEPTH = 4

#: Tenant a session belongs to before (or without) a ``hello``.
DEFAULT_TENANT = "default"

_SESSION_IDS = itertools.count(1)


def _is_key(value) -> bool:
    """Whether an ``id`` / ``target`` can key the in-flight table."""
    return value is None or isinstance(value, (str, int, float))


def _frame_problem(request: dict):
    """Why a parsed frame cannot be dispatched, or None when it can:
    ``id`` and ``target`` key the in-flight table and ``deadline_ms``
    sets a deadline, so each must be what those can take."""
    for name in ("id", "target"):
        if not _is_key(request.get(name)):
            return f"{name} must be a string or a number"
    deadline_ms = request.get("deadline_ms")
    if deadline_ms is not None and not (
            isinstance(deadline_ms, (int, float))
            and not isinstance(deadline_ms, bool)
            and abs(deadline_ms) <= sys.float_info.max):
        return "deadline_ms must be a finite number of milliseconds"
    return None


def _jsonable(value):
    """A JSON-representable form of one row value (exotic engine types
    — geometry tuples, opaque states — render through repr)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class _Session:
    """One connected client: a reader thread plus per-request workers.

    The reader thread owns the socket's input side; each ``query``
    request runs on its own worker thread so the reader stays free to
    see a ``cancel`` (or EOF) while queries are in flight.  Writes are
    serialized by a lock so interleaved responses never garble lines.
    """

    def __init__(self, server: "SessionServer", conn: socket.socket,
                 session_id: int) -> None:
        self.server = server
        self.conn = conn
        self.session_id = session_id
        self.tenant = DEFAULT_TENANT
        self.state = "open"
        self.requests = 0
        self.cancelled = 0
        #: request id -> (CancellationToken, query_id holder) of queries
        #: currently in flight on this session.
        self.inflight = {}
        self._inflight_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._workers = []
        self.thread = threading.Thread(
            target=self._run, name=f"fudj-session-{session_id}",
            daemon=True,
        )

    # -- wire I/O -------------------------------------------------------------

    def send(self, payload: dict) -> None:
        """Write one response line (best effort: a dead peer is not an
        error — the session is about to notice EOF anyway)."""
        line = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
        try:
            with self._write_lock:
                self.conn.sendall(line.encode("utf-8"))
        except OSError:
            pass

    # -- lifecycle ------------------------------------------------------------

    def _run(self) -> None:
        server = self.server
        reader = self.conn.makefile("r", encoding="utf-8", newline="\n")
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                if not self._handle_line(line):
                    break
        except (OSError, ValueError):
            pass  # socket torn down under the reader
        finally:
            self.state = "closing"
            self._cancel_inflight("disconnect")
            for worker in list(self._workers):
                worker.join(timeout=server.drain_timeout + 5.0)
            try:
                reader.close()
            except OSError:
                pass
            try:
                self.conn.close()
            except OSError:
                pass
            server._forget_session(self)

    def _handle_line(self, line: str) -> bool:
        """Dispatch one request line; False ends the session."""
        server = self.server
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            self.send({"id": None, "type": "error", "error": "bad-request",
                       "message": f"unparseable request: {exc}"})
            server.db.telemetry.note_request("invalid", "bad-request")
            return True
        rid = request.get("id")
        op = request.get("op")
        self.requests += 1
        problem = _frame_problem(request)
        if problem is not None:
            self.send({"id": rid if _is_key(rid) else None, "type": "error",
                       "error": "bad-request", "message": problem})
            server.db.telemetry.note_request("invalid", "bad-request")
            return True
        if server.draining and op in ("query", "hello"):
            self.send({"id": rid, "type": "error", "error": "draining",
                       "message": "server is draining; no new requests"})
            server.db.telemetry.note_request(str(op), "draining")
            return True
        if op == "query":
            self._start_query(rid, request)
            return True
        if op == "cancel":
            self._cancel_request(rid, request)
            return True
        if op == "ping":
            self.send({"id": rid, "type": "pong"})
            server.db.telemetry.note_request("ping", "ok")
            return True
        if op == "hello":
            self.tenant = str(request.get("tenant") or DEFAULT_TENANT)
            self.send({"id": rid, "type": "ok", "session": self.session_id,
                       "tenant": self.tenant})
            server.db.telemetry.note_request("hello", "ok")
            return True
        if op == "close":
            self.send({"id": rid, "type": "ok"})
            server.db.telemetry.note_request("close", "ok")
            return False
        self.send({"id": rid, "type": "error", "error": "bad-request",
                   "message": f"unknown op {op!r}"})
        server.db.telemetry.note_request(str(op), "bad-request")
        return True

    # -- query requests -------------------------------------------------------

    def _start_query(self, rid, request: dict) -> None:
        deadline_ms = request.get("deadline_ms")
        token = CancellationToken(
            None if deadline_ms is None else deadline_ms / 1000.0)
        holder = {"token": token, "query_id": 0}
        with self._inflight_lock:
            self.inflight[rid] = holder
        worker = threading.Thread(
            target=self._run_query,
            args=(rid, request, token, holder),
            name=f"fudj-req-{self.session_id}-{rid}", daemon=True,
        )
        self._workers.append(worker)
        worker.start()

    def _run_query(self, rid, request, token, holder) -> None:
        server = self.server
        db = server.db
        tenant = self.tenant
        outcome = "ok"
        in_lane = False

        def finish(payload: dict) -> None:
            # Retire the request *before* the terminal response goes
            # out: once the client can see the outcome, a cancel must
            # miss (``cancelled: false``), never claim a hit on a
            # request that already finished.
            with self._inflight_lock:
                self.inflight.pop(rid, None)
            self.send(payload)

        try:
            sql = request.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                outcome = "bad-request"
                finish({"id": rid, "type": "error",
                        "error": "bad-request",
                        "message": "query request needs a sql string"})
                return
            try:
                server.lanes.enter(tenant)
                in_lane = True
            except AdmissionError as exc:
                db.telemetry.note_admission(exc.reason)
                db.telemetry.events.emit(
                    "session.shed", reason=exc.reason,
                    session=self.session_id, tenant=tenant)
                outcome = "shed"
                finish(self._error_payload(rid, exc))
                return
            token.check()  # an expired deadline runs nothing
            # Reserve the history id up front so sys.sessions can show
            # which query this session is running *while* it runs.
            holder["query_id"] = db.telemetry.next_query_id()
            result = db.execute(
                sql, mode=request.get("mode", "fudj"),
                optimizer=request.get("optimizer"),
                cancel=token, query_id=holder["query_id"])
            rows = [{str(k): _jsonable(v) for k, v in row.items()}
                    for row in result.rows]
            finish({
                "id": rid, "type": "result", "rows": rows,
                "schema": list(result.schema),
                "row_count": len(rows),
                "query_id": holder["query_id"],
            })
        except ReproError as exc:
            outcome = _error_status(exc)
            finish(self._error_payload(rid, exc))
        except Exception as exc:  # never kill the worker silently
            outcome = "error"
            finish({"id": rid, "type": "error", "error": "error",
                    "error_type": type(exc).__name__,
                    "message": str(exc)})
        finally:
            if in_lane:
                server.lanes.leave(tenant)
            with self._inflight_lock:
                self.inflight.pop(rid, None)
            if token.cancelled:
                self.cancelled += 1
                db.telemetry.note_cancel(token.reason)
            db.telemetry.note_request("query", outcome)
            worker = threading.current_thread()
            if worker in self._workers:
                self._workers.remove(worker)

    def _error_payload(self, rid, exc) -> dict:
        return {"id": rid, "type": "error", "error": _error_status(exc),
                "error_type": type(exc).__name__, "message": str(exc)}

    # -- cancellation ---------------------------------------------------------

    def _cancel_request(self, rid, request: dict) -> None:
        target = request.get("target")
        with self._inflight_lock:
            holder = self.inflight.get(target)
        if holder is None:
            # Already finished (or never existed): cancel raced normal
            # completion and lost — a normal outcome, not an error.
            self.send({"id": rid, "type": "ok", "cancelled": False})
            self.server.db.telemetry.note_request("cancel", "miss")
            return
        if holder["token"].cancel("client-cancel"):
            self.server.db.telemetry.events.emit(
                "cancel.request", reason="client-cancel",
                session=self.session_id)
        self.send({"id": rid, "type": "ok", "cancelled": True})
        self.server.db.telemetry.note_request("cancel", "ok")

    def _cancel_inflight(self, reason: str) -> int:
        """Cancel every in-flight query on this session; returns how
        many tokens this call actually flipped."""
        with self._inflight_lock:
            holders = list(self.inflight.values())
        flipped = 0
        for holder in holders:
            if holder["token"].cancel(reason):
                flipped += 1
                self.server.db.telemetry.events.emit(
                    "cancel.request", reason=reason,
                    session=self.session_id)
        return flipped

    # -- introspection --------------------------------------------------------

    def row(self) -> dict:
        """This session as one ``sys.sessions`` row."""
        with self._inflight_lock:
            active = [h["query_id"] for h in self.inflight.values()
                      if h["query_id"]]
        return {
            "session": self.session_id,
            "tenant": self.tenant,
            "state": ("draining" if self.server.draining and
                      self.state == "open" else self.state),
            "requests": self.requests,
            "active_query": max(active) if active else 0,
            "cancelled": self.cancelled,
            "lane_depth": self.server.lanes.depth_of(self.tenant),
        }


class SessionServer:
    """The concurrent JSONL session server over one database.

    Construct via :meth:`Database.serve
    <repro.database.Database.serve>`; ``port=0`` binds any free port
    (read the real one from :attr:`port` after :meth:`start`).
    :meth:`stop` drains gracefully and is idempotent.
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0,
                 max_sessions: int = 8, drain_timeout: float = 5.0,
                 tenant_depth: int = None) -> None:
        if max_sessions < 1:
            raise ServerError(
                f"max_sessions must be >= 1, got {max_sessions}",
                host=host, port=port)
        self.db = database
        self.max_sessions = int(max_sessions)
        self.drain_timeout = float(drain_timeout)
        self.lanes = TenantLanes(tenant_depth or DEFAULT_TENANT_DEPTH)
        self.draining = False
        self._stopped = False
        self._sessions = {}
        self._sessions_lock = threading.Lock()
        self._accept_thread = None
        try:
            self._listener = socket.create_server(
                (host, int(port)), reuse_port=False)
        except OSError as exc:
            raise ServerError(
                f"session server cannot bind {host}:{port}: {exc}",
                host=host, port=int(port),
            ) from exc
        self._listener.settimeout(0.2)
        self._address = self._listener.getsockname()

    # -- addresses ------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def address(self) -> tuple:
        return (self.host, self.port)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "SessionServer":
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="fudj-server-accept",
                daemon=True,
            )
            self._accept_thread.start()
            self.db.telemetry.events.emit(
                "server.start", max_sessions=self.max_sessions)
        return self

    def _accept_loop(self) -> None:
        while not self.draining:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us: drain started
            self._admit_connection(conn)

    def _admit_connection(self, conn: socket.socket) -> None:
        telemetry = self.db.telemetry
        with self._sessions_lock:
            if self.draining or len(self._sessions) >= self.max_sessions:
                reason = ("draining" if self.draining else "server-full")
                session = None
            else:
                session = _Session(self, conn, next(_SESSION_IDS))
                self._sessions[session.session_id] = session
        if session is None:
            payload = json.dumps(
                {"id": None, "type": "error", "error": "shed",
                 "message": f"connection refused: {reason} "
                            f"(max_sessions {self.max_sessions})"},
                sort_keys=True, separators=(",", ":")) + "\n"
            try:
                conn.sendall(payload.encode("utf-8"))
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
            telemetry.events.emit("session.shed", reason=reason)
            telemetry.note_request("connect", "shed")
            return
        telemetry.note_session(+1)
        telemetry.events.emit("session.open", session=session.session_id)
        session.thread.start()

    def _forget_session(self, session: _Session) -> None:
        with self._sessions_lock:
            alive = self._sessions.pop(session.session_id, None)
        if alive is not None:
            session.state = "closed"
            self.db.telemetry.note_session(-1)
            self.db.telemetry.events.emit(
                "session.close", session=session.session_id,
                requests=session.requests)

    def _inflight_count(self) -> int:
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        total = 0
        for session in sessions:
            with session._inflight_lock:
                total += len(session.inflight)
        return total

    def stop(self, drain_timeout: float = None) -> None:
        """Graceful drain, then shutdown.  Idempotent.

        Stops accepting, refuses new requests on live sessions, waits
        up to ``drain_timeout`` seconds for in-flight requests to
        finish, cancels stragglers cooperatively, then closes every
        session socket and the listener.
        """
        if self._stopped:
            return
        self._stopped = True
        budget = (self.drain_timeout if drain_timeout is None
                  else float(drain_timeout))
        started = time.monotonic()
        self.draining = True
        self.db.telemetry.events.emit(
            "server.drain", inflight=self._inflight_count())
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        deadline = started + budget
        while self._inflight_count() > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        # Stragglers past the budget: cancel cooperatively and give the
        # unwind a moment — the engine aborts at its next checkpoint.
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session._cancel_inflight("drain")
        hard_deadline = time.monotonic() + max(budget, 1.0)
        while self._inflight_count() > 0 and time.monotonic() < hard_deadline:
            time.sleep(0.02)
        for session in sessions:
            try:
                session.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                session.conn.close()
            except OSError:
                pass
        for session in sessions:
            session.thread.join(timeout=5.0)
            self._forget_session(session)
        elapsed = time.monotonic() - started
        self.db.telemetry.note_drain(elapsed)
        self.db.telemetry.events.emit("server.stop")

    # -- introspection --------------------------------------------------------

    def sessions_rows(self) -> list:
        """Live sessions as ``sys.sessions`` rows (session order)."""
        with self._sessions_lock:
            sessions = sorted(self._sessions.values(),
                              key=lambda s: s.session_id)
        return [session.row() for session in sessions]

    def snapshot(self) -> dict:
        with self._sessions_lock:
            open_sessions = len(self._sessions)
        return {
            "host": self.host,
            "port": self.port,
            "open_sessions": open_sessions,
            "max_sessions": self.max_sessions,
            "draining": self.draining,
            "inflight": self._inflight_count(),
            "lanes": self.lanes.snapshot(),
        }
