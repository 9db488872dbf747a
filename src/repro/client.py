"""JSONL session client for the FUDJ session server.

A small, dependency-free client over one TCP connection.  A background
reader thread pulls response lines and routes each to the mailbox of
the request id it answers, so requests can overlap: submit a query,
submit a cancel against it, and collect both responses in any order —
exactly the interleaving the chaos tests drive.

Typical use::

    from repro.client import SessionClient

    with SessionClient(host, port, tenant="analytics") as client:
        reply = client.query("SELECT t.id FROM Ts t", deadline_ms=500)
        if reply["type"] == "result":
            rows = reply["rows"]

``query`` returns the raw response dict (``type`` is ``result`` or
``error``) rather than raising — chaos harnesses assert on typed
outcomes, and a shed or timeout is data, not an exception.  Unsolicited
lines (the server's connection-shed notice) land in
:attr:`SessionClient.notices`.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time

from repro.errors import ServerError


class SessionClient:
    """One JSONL session against a running SessionServer."""

    def __init__(self, host: str, port: int, tenant: str = None,
                 connect_timeout: float = 5.0) -> None:
        try:
            self._sock = socket.create_connection(
                (host, int(port)), timeout=connect_timeout)
        except OSError as exc:
            raise ServerError(
                f"cannot connect to {host}:{port}: {exc}",
                host=host, port=int(port),
            ) from exc
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("r", encoding="utf-8",
                                           newline="\n")
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._mailbox = {}
        #: Responses with no (known) request id — e.g. the server's
        #: typed shed notice when the session cap refused us.
        self.notices = []
        self._eof = False
        self._write_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._read_loop, name="fudj-client-reader", daemon=True)
        self._thread.start()
        self.session_id = None
        self.tenant = tenant
        if tenant is not None:
            reply = self.request("hello", tenant=tenant)
            if reply.get("type") == "ok":
                self.session_id = reply.get("session")

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire I/O -------------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            for line in self._reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                with self._cond:
                    rid = payload.get("id")
                    if rid is None or rid not in self._mailbox:
                        self.notices.append(payload)
                    else:
                        self._mailbox[rid] = payload
                    self._cond.notify_all()
        except (OSError, ValueError):
            pass
        finally:
            with self._cond:
                self._eof = True
                self._cond.notify_all()

    def send_raw(self, payload: dict) -> None:
        """Write one request line verbatim (chaos tests use this to send
        malformed or surprising requests)."""
        line = json.dumps(payload) + "\n"
        with self._write_lock:
            self._sock.sendall(line.encode("utf-8"))

    # -- request API ----------------------------------------------------------

    def submit(self, op: str, **fields) -> int:
        """Send one request without waiting; returns its id."""
        rid = next(self._ids)
        with self._cond:
            self._mailbox[rid] = None  # reserve the slot
        self.send_raw({"id": rid, "op": op, **fields})
        return rid

    def wait(self, rid: int, timeout: float = 30.0) -> dict:
        """Block until the response for ``rid`` arrives.

        EOF before a response yields a synthetic
        ``{"type": "error", "error": "disconnected"}`` so callers always
        get a typed outcome; a wait past ``timeout`` raises
        :class:`~repro.errors.ServerError` (a hang is a test failure,
        never a silent stall).
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._mailbox.get(rid) is None:
                if self._eof:
                    self._mailbox.pop(rid, None)
                    return {"id": rid, "type": "error",
                            "error": "disconnected",
                            "message": "connection closed before reply"}
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServerError(
                        f"no response for request {rid} "
                        f"within {timeout:.1f}s")
                self._cond.wait(timeout=remaining)
            return self._mailbox.pop(rid)

    def request(self, op: str, timeout: float = 30.0, **fields) -> dict:
        """Submit one request and wait for its response."""
        return self.wait(self.submit(op, **fields), timeout=timeout)

    # -- convenience ops ------------------------------------------------------

    def query(self, sql: str, timeout: float = 60.0, **fields) -> dict:
        """Run one query; returns the raw ``result``/``error`` response.
        ``fields`` pass through to the wire request (``mode``,
        ``deadline_ms``, ``optimizer``)."""
        return self.request("query", timeout=timeout, sql=sql, **fields)

    def query_async(self, sql: str, **fields) -> int:
        """Submit a query without waiting; returns the request id for
        :meth:`wait` / :meth:`cancel`."""
        return self.submit("query", sql=sql, **fields)

    def cancel(self, target: int, timeout: float = 30.0) -> dict:
        """Cancel in-flight request ``target`` on this session.  The
        response's ``cancelled`` field says whether the cancel won the
        race with normal completion."""
        return self.request("cancel", timeout=timeout, target=target)

    def ping(self, timeout: float = 30.0) -> dict:
        return self.request("ping", timeout=timeout)

    # -- teardown -------------------------------------------------------------

    def close(self, polite: bool = True) -> None:
        """Close the session.  ``polite=True`` sends the ``close`` op
        first; ``polite=False`` just drops the socket — which is exactly
        how chaos tests simulate a client dying mid-query.  Idempotent.
        """
        if polite and not self._eof:
            try:
                self.request("close", timeout=5.0)
            except (ServerError, OSError):
                pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)

    def drop(self) -> None:
        """Abruptly drop the connection (no goodbye): the disconnect
        chaos primitive."""
        self.close(polite=False)
