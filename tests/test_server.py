"""The concurrent session server: end-to-end request robustness.

Everything here talks to a real :class:`~repro.server.SessionServer`
over real sockets via :class:`~repro.client.SessionClient`.  The
acceptance properties pinned down (``docs/serving.md``):

- **Typed outcomes.** Every request — including malformed ones, shed
  ones, cancelled ones, and ones whose deadline expired — gets exactly
  one typed response; a hang is a test failure.
- **Cooperative cancellation.** An explicit ``cancel`` op, a client
  disconnect (during SUMMARIZE *or* COMBINE), or a drain aborts the
  query at the next engine checkpoint, frees its reservations and
  spill temp files, and leaves the pool clean: re-running the same
  query afterwards is byte-identical to a fresh serial run.
- **Deadlines.** ``deadline_ms`` is end-to-end: it covers the wait for
  the engine (admission queue and engine lock), not just execution, and
  answers ``error: "timeout"`` — recorded as ``timeout`` too.
- **Backpressure.** ``max_sessions`` sheds connections and a tenant
  past its lane depth sheds requests — both with typed ``shed``
  errors, never by queueing unboundedly.
- **Graceful drain.** ``stop()`` refuses new work, waits out the drain
  budget, cancels stragglers, closes every session, and is idempotent.
- **Chaos.** A seeded storm of concurrent sessions injecting
  disconnects, cancels, deadline expiries, and malformed requests
  leaves no hung threads, no orphaned spill files, and a database that
  still answers queries byte-identically.
"""

import json
import os
import socket
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import Database
from repro.engine.events import EVENT_KINDS, RUNTIME_KINDS
from repro.errors import QueryCancelledError, ServerError
from repro.client import SessionClient
from repro.server import DEFAULT_TENANT, SessionServer, _error_status
from repro.query.printer import sql_of
from tests.helpers import BandJoin
from tests.test_parser_fuzz import expressions, identifiers

FAST_SQL = "SELECT l.id, r.id FROM L l, R r WHERE band_join(l.k, r.k)"
SLOW_SUM_SQL = "SELECT l.id, r.id FROM L l, R r WHERE slow_sum(l.k, r.k)"
SLOW_COMB_SQL = "SELECT l.id, r.id FROM L l, R r WHERE slow_comb(l.k, r.k)"


class SlowSummarizeJoin(BandJoin):
    """Band join that dawdles in SUMMARIZE (local_aggregate)."""

    name = "slow_sum"

    def local_aggregate(self, key, summary, side):
        time.sleep(0.01)
        return super().local_aggregate(key, summary, side)


class SlowCombineJoin(BandJoin):
    """Band join that dawdles in COMBINE (verify)."""

    name = "slow_comb"

    def verify(self, key1, key2, pplan):
        time.sleep(0.003)
        return super().verify(key1, key2, pplan)


#: Any JSON value, and any JSON object as a request frame: every field
#: the server reads is drawn both well-formed and as any value at all.
#: (``close`` is left out: its one answer is the session's last.)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=12)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
FRAMES = st.fixed_dictionaries({}, optional={
    "op": st.one_of(st.sampled_from(["query", "cancel", "ping", "hello"]),
                    JSON_VALUES.filter(lambda op: op != "close")),
    "id": JSON_VALUES,
    "target": JSON_VALUES,
    "deadline_ms": JSON_VALUES,
    "sql": st.one_of(
        JSON_VALUES,
        st.tuples(expressions(2), identifiers).map(
            lambda drawn: f"SELECT {sql_of(drawn[0])} FROM {drawn[1]} t")),
    "mode": JSON_VALUES,
    "optimizer": JSON_VALUES,
    "tenant": JSON_VALUES,
})


def make_db(rows=24, **kwargs):
    db = Database(num_partitions=4, **kwargs)
    db.create_type("T", [("id", "int"), ("k", "float"), ("pad", "string")])
    db.create_dataset("L", "T", "id")
    db.create_dataset("R", "T", "id")
    db.load("L", [{"id": i, "k": float(i % 7), "pad": "x" * 40}
                  for i in range(rows)])
    db.load("R", [{"id": i, "k": float(i % 5) + 0.2, "pad": "y" * 40}
                  for i in range(rows)])
    db.create_join("band_join", BandJoin, defaults=(1.0, 4))
    db.create_join("slow_sum", SlowSummarizeJoin, defaults=(1.0, 4))
    db.create_join("slow_comb", SlowCombineJoin, defaults=(1.0, 4))
    return db


def fresh_rows(sql=FAST_SQL, rows=24):
    """Ground truth: the same query on a fresh, serial, serverless db."""
    db = make_db(rows)
    try:
        return [{str(k): v for k, v in row.items()}
                for row in db.execute(sql).rows]
    finally:
        db.close()


def metric_value(db, name, default=0.0, **labels):
    import json

    snap = json.loads(db.metrics_snapshot("json"))
    for family in snap["families"]:
        if family["name"] != name:
            continue
        for sample in family["samples"]:
            if all(sample["labels"].get(k) == v for k, v in labels.items()):
                return sample["value"]
    return default


def spill_dirs():
    tmp = tempfile.gettempdir()
    return {name for name in os.listdir(tmp)
            if name.startswith("fudj-spill-")}


def wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def served():
    db = make_db()
    server = db.serve(port=0)
    yield db, server
    db.close()


def connect(server, tenant=None):
    return SessionClient(server.host, server.port, tenant=tenant)


# -- protocol basics -----------------------------------------------------------


class TestProtocol:
    def test_hello_ping_query_close(self, served):
        db, server = served
        with connect(server, tenant="analytics") as client:
            assert client.session_id == 1 or client.session_id >= 1
            assert client.tenant == "analytics"
            assert client.ping()["type"] == "pong"
            reply = client.query(FAST_SQL)
            assert reply["type"] == "result"
            assert reply["schema"] == ["l.id", "r.id"]
            assert reply["row_count"] == len(reply["rows"])
            assert reply["query_id"] >= 1
            assert reply["rows"] == fresh_rows()

    def test_unknown_op_and_missing_sql_are_bad_request(self, served):
        db, server = served
        with connect(server) as client:
            assert client.request("frobnicate")["error"] == "bad-request"
            assert client.request("query")["error"] == "bad-request"
            assert client.request("query", sql="  ")["error"] == "bad-request"

    def test_unparseable_line_is_typed_not_fatal(self, served):
        db, server = served
        with connect(server) as client:
            with client._write_lock:
                client._sock.sendall(b"this is not json\n")
            wait_until(lambda: client.notices, message="bad-request notice")
            assert client.notices[0]["error"] == "bad-request"
            # The session survives the garbage line.
            assert client.ping()["type"] == "pong"

    def test_responses_interleave_by_request_id(self, served):
        db, server = served
        with connect(server) as client:
            slow = client.query_async(SLOW_COMB_SQL)
            assert client.ping()["type"] == "pong"  # answered mid-query
            reply = client.wait(slow, timeout=60.0)
            assert reply["type"] == "result"

    def test_malformed_fields_are_bad_request_not_fatal(self, served):
        db, server = served
        with connect(server) as client:
            for fields in ({"deadline_ms": "abc"}, {"deadline_ms": [1]},
                           {"deadline_ms": True}, {"deadline_ms": 1e400},
                           {"deadline_ms": 10 ** 400}):
                reply = client.request("query", sql=FAST_SQL, **fields)
                assert reply["error"] == "bad-request", fields
                assert "deadline_ms" in reply["message"]
            reply = client.request("cancel", target={"a": 1})
            assert reply["error"] == "bad-request"
            client.send_raw({"id": {"a": 1}, "op": "ping"})
            wait_until(lambda: client.notices, message="bad-request notice")
            assert client.notices[0]["error"] == "bad-request"
            assert client.ping()["type"] == "pong"

    def test_any_json_object_gets_one_answer(self, served):
        """For any JSON object sent as a frame the session answers
        exactly one line, and goes on answering."""
        db, server = served
        sock = socket.create_connection((server.host, server.port),
                                        timeout=30.0)
        lines = sock.makefile("r", encoding="utf-8", newline="\n")

        def exchange(*frames) -> list:
            sock.sendall("".join(json.dumps(frame) + "\n"
                                 for frame in frames).encode("utf-8"))
            return [json.loads(lines.readline()) for _ in frames]

        @settings(max_examples=100, deadline=None)
        @given(frame=FRAMES)
        def check(frame):
            # A query is answered from its own thread, so its one line
            # and the pong may come in either order; were there a second
            # line, it would be read in place of the next pong.
            replies = exchange(frame, {"id": "then", "op": "ping"})
            assert {"id": "then", "type": "pong"} in replies
            assert all(reply.get("type") in ("result", "error", "ok", "pong")
                       for reply in replies)
            assert exchange({"id": "after", "op": "ping"}) == [
                {"id": "after", "type": "pong"}]

        try:
            check()
        finally:
            lines.close()
            sock.close()

    def test_wire_error_status_mapping(self):
        assert _error_status(QueryCancelledError("disconnect")) == "cancelled"


# -- deadlines -----------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_is_timeout(self, served):
        db, server = served
        with connect(server) as client:
            reply = client.query(FAST_SQL, deadline_ms=0)
            assert reply["type"] == "error"
            assert reply["error"] == "timeout"

    def test_deadline_cuts_a_running_query(self, served):
        db, server = served
        with connect(server) as client:
            reply = client.query(SLOW_COMB_SQL, deadline_ms=120)
            assert reply["type"] == "error"
            assert reply["error"] == "timeout"
        # The abort is recorded as what the client was told, and the
        # engine is immediately reusable.
        statuses = [row["q.status"] for row in
                    db.execute("SELECT q.status FROM sys.queries q").rows]
        assert statuses == ["timeout"]
        assert metric_value(db, "fudj_queries_total", status="timeout") == 1.0
        assert metric_value(db, "fudj_queries_total", status="cancelled") == 0
        assert db.execute(FAST_SQL).rows

    def test_deadline_covers_the_wait_for_the_engine(self):
        """A query stuck *behind* another still dies on time, whether it
        waits for the engine lock or in the admission queue: the deadline
        is end-to-end, not execution-only."""
        for kwargs in ({}, {"max_concurrent": 1}):
            db = make_db(**kwargs)
            server = db.serve(port=0)
            try:
                with connect(server) as first, connect(server) as second:
                    running = first.query_async(SLOW_COMB_SQL)
                    wait_until(lambda: any(
                        row["active_query"] for row in server.sessions_rows()),
                        message="first query running")
                    time.sleep(0.05)  # let it take the engine
                    started = time.monotonic()
                    reply = second.query(FAST_SQL, deadline_ms=100,
                                         timeout=30.0)
                    waited = time.monotonic() - started
                    assert reply["type"] == "error", kwargs
                    assert reply["error"] == "timeout", kwargs
                    assert waited < 1.0, (kwargs, waited)
                    # ...while the query it waited behind still runs.
                    assert server._inflight_count() == 1, kwargs
                    assert first.wait(running, timeout=60.0)["type"] == \
                        "result"
            finally:
                db.close()

    def test_generous_deadline_succeeds(self, served):
        db, server = served
        with connect(server) as client:
            reply = client.query(FAST_SQL, deadline_ms=60000)
            assert reply["type"] == "result"


# -- cancellation --------------------------------------------------------------


class TestCancellation:
    def test_explicit_cancel_aborts_and_is_recorded(self, served):
        db, server = served
        with connect(server) as client:
            rid = client.query_async(SLOW_COMB_SQL)
            time.sleep(0.1)
            ack = client.cancel(rid)
            assert ack["type"] == "ok" and ack["cancelled"] is True
            reply = client.wait(rid, timeout=30.0)
            assert reply["type"] == "error"
            assert reply["error"] == "cancelled"
        statuses = [row["q.status"] for row in
                    db.execute("SELECT q.status FROM sys.queries q").rows]
        assert "cancelled" in statuses
        assert metric_value(db, "fudj_cancelled_total",
                            reason="client-cancel") >= 1.0

    def test_cancel_racing_completion_is_a_normal_outcome(self, served):
        db, server = served
        with connect(server) as client:
            rid = client.query_async(FAST_SQL)
            ack = client.cancel(rid)
            assert ack["type"] == "ok"
            assert ack["cancelled"] in (True, False)
            reply = client.wait(rid, timeout=30.0)
            # Whichever side won, the outcome is typed.
            assert reply["type"] in ("result", "error")
            if reply["type"] == "error":
                assert reply["error"] == "cancelled"

    def test_cancel_of_finished_request_misses_politely(self, served):
        db, server = served
        with connect(server) as client:
            rid = client.query_async(FAST_SQL)
            client.wait(rid, timeout=30.0)
            ack = client.cancel(rid)
            assert ack == {"id": ack["id"], "type": "ok",
                           "cancelled": False}

    def test_byte_identical_rerun_after_cancel(self, served):
        db, server = served
        with connect(server) as client:
            rid = client.query_async(SLOW_COMB_SQL)
            time.sleep(0.1)
            client.cancel(rid)
            client.wait(rid, timeout=30.0)
            reply = client.query(FAST_SQL)
        assert reply["type"] == "result"
        assert reply["rows"] == fresh_rows()

    def test_a_client_that_hangs_up_while_queued_frees_its_slot(self):
        """A queued request whose client disconnects leaves the admission
        queue at once, so it cannot shed the next live client."""
        db = make_db(max_concurrent=1, queue_limit=1)
        server = db.serve(port=0)
        admission = db.admission.snapshot
        try:
            with connect(server) as first, connect(server) as third:
                running = first.query_async(SLOW_COMB_SQL)
                wait_until(lambda: admission()["running"] == 1,
                           message="first query admitted")
                second = connect(server)
                second.query_async(FAST_SQL)
                wait_until(lambda: admission()["waiting"] == 1,
                           message="second query queued")
                second.drop()
                wait_until(lambda: admission()["waiting"] == 0, timeout=0.5,
                           message="the hung-up client left the queue")
                assert admission()["running"] == 1  # the first still runs
                reply = third.query(FAST_SQL, timeout=60.0)
                assert reply["type"] == "result", reply
                assert reply["rows"] == fresh_rows()
                assert first.wait(running, timeout=60.0)["type"] == "result"
            assert metric_value(db, "fudj_cancelled_total",
                                reason="disconnect") == 1.0
        finally:
            db.close()

    @pytest.mark.parametrize("sql,phase", [(SLOW_SUM_SQL, "SUMMARIZE"),
                                           (SLOW_COMB_SQL, "COMBINE")])
    def test_disconnect_mid_query_unwinds(self, served, sql, phase):
        """A client dying during SUMMARIZE or COMBINE cancels its
        in-flight query; the session closes and the engine stays
        usable."""
        db, server = served
        client = connect(server, tenant="doomed")
        client.query_async(sql)
        time.sleep(0.1)
        client.drop()  # no goodbye
        wait_until(lambda: server._inflight_count() == 0,
                   message=f"inflight drained after {phase} disconnect")
        wait_until(lambda: not server.sessions_rows(),
                   message="session forgotten")
        assert metric_value(db, "fudj_cancelled_total",
                            reason="disconnect") >= 1.0
        assert [{str(k): v for k, v in row.items()}
                for row in db.execute(FAST_SQL).rows] == fresh_rows()


# -- spill cleanup (cancellation frees disk) -----------------------------------


class TestSpillCleanup:
    def test_cancelled_spilling_query_leaves_no_temp_files(self):
        db = make_db(memory_budget="512b")
        server = db.serve(port=0)
        try:
            before = spill_dirs()
            with connect(server) as client:
                rid = client.query_async(SLOW_COMB_SQL)
                time.sleep(0.15)  # let it reserve and spill
                client.cancel(rid)
                reply = client.wait(rid, timeout=30.0)
            assert reply["type"] in ("error", "result")
            wait_until(lambda: spill_dirs() <= before,
                       message="spill tempdirs released")
            # Budgeted execution still works, byte-identically.
            budgeted = [{str(k): v for k, v in row.items()}
                        for row in db.execute(FAST_SQL).rows]
            assert budgeted == fresh_rows()
        finally:
            db.close()

    def test_disconnect_during_spilling_query_leaves_no_temp_files(self):
        db = make_db(memory_budget="512b")
        server = db.serve(port=0)
        try:
            before = spill_dirs()
            client = connect(server)
            client.query_async(SLOW_COMB_SQL)
            time.sleep(0.15)
            client.drop()
            wait_until(lambda: server._inflight_count() == 0,
                       message="inflight drained")
            wait_until(lambda: spill_dirs() <= before,
                       message="spill tempdirs released")
        finally:
            db.close()


# -- backpressure --------------------------------------------------------------


class TestBackpressure:
    def test_tenant_lane_sheds_past_depth(self):
        db = make_db()
        server = db.serve(port=0, tenant_depth=1)
        try:
            with connect(server, tenant="t1") as a, \
                    connect(server, tenant="t1") as b, \
                    connect(server, tenant="t2") as c:
                running = a.query_async(SLOW_COMB_SQL)
                wait_until(lambda: server.lanes.depth_of("t1") == 1,
                           message="lane occupied")
                shed = b.query(FAST_SQL, timeout=30.0)
                assert shed["type"] == "error"
                assert shed["error"] == "shed"
                # A different tenant's lane is unaffected.
                ok = c.query(FAST_SQL, timeout=60.0)
                assert ok["type"] == "result"
                a.wait(running, timeout=60.0)
            assert server.lanes.shed_total >= 1
            assert metric_value(db, "fudj_session_requests_total",
                                op="query", outcome="shed") >= 1.0
        finally:
            db.close()

    def test_session_cap_sheds_connections(self):
        db = make_db()
        server = db.serve(port=0, max_sessions=1)
        try:
            with connect(server) as keeper:
                assert keeper.ping()["type"] == "pong"
                extra = SessionClient(server.host, server.port)
                try:
                    wait_until(lambda: extra.notices or extra._eof,
                               message="shed notice")
                    assert extra.notices
                    assert extra.notices[0]["error"] == "shed"
                    assert "server-full" in extra.notices[0]["message"]
                finally:
                    extra.drop()
            assert metric_value(db, "fudj_session_requests_total",
                                op="connect", outcome="shed") >= 1.0
        finally:
            db.close()

    def test_bad_max_sessions_rejected(self):
        db = make_db()
        try:
            with pytest.raises(ServerError):
                SessionServer(db, max_sessions=0)
        finally:
            db.close()


# -- graceful drain ------------------------------------------------------------


class TestDrain:
    def test_idle_drain_is_clean_and_stamped(self, served):
        db, server = served
        with connect(server) as client:
            assert client.ping()["type"] == "pong"
            server.stop()
        wait_until(lambda: not server.sessions_rows(),
                   message="sessions closed")
        assert metric_value(db, "fudj_drain_seconds", default=-1.0) >= 0.0
        kinds = [e.kind for e in db.telemetry.events.events()]
        assert "server.drain" in kinds and "server.stop" in kinds

    def test_drain_refuses_new_queries_but_allows_cancel(self):
        db = make_db()
        server = db.serve(port=0, drain_timeout=8.0)
        try:
            with connect(server) as client:
                rid = client.query_async(SLOW_COMB_SQL)
                time.sleep(0.05)
                stopper = threading.Thread(target=server.stop, daemon=True)
                stopper.start()
                wait_until(lambda: server.draining, message="draining flag")
                refused = client.query(FAST_SQL, timeout=30.0)
                assert refused["error"] == "draining"
                ack = client.cancel(rid)  # cancel still works mid-drain
                assert ack["type"] == "ok"
                reply = client.wait(rid, timeout=30.0)
                assert reply["type"] in ("error", "result")
                stopper.join(timeout=30.0)
                assert not stopper.is_alive()
        finally:
            db.close()

    def test_drain_cancels_stragglers_past_budget(self):
        db = make_db()
        server = db.serve(port=0, drain_timeout=0.1)
        try:
            client = connect(server)
            rid = client.query_async(SLOW_SUM_SQL)
            time.sleep(0.05)
            server.stop()  # budget far smaller than the query
            reply = client.wait(rid, timeout=30.0)
            assert reply["type"] == "error"
            assert reply["error"] in ("cancelled", "disconnected")
            client.drop()
            assert server._inflight_count() == 0
            assert metric_value(db, "fudj_cancelled_total",
                                reason="drain") >= 1.0
        finally:
            db.close()

    def test_drain_with_full_admission_queue(self):
        """Queries queued behind admission when the drain starts are
        cancelled and unwound — the drain never deadlocks on them."""
        db = make_db(memory_budget="64kb", max_concurrent=1)
        server = db.serve(port=0, drain_timeout=0.2)
        try:
            clients = [connect(server) for _ in range(3)]
            rids = [c.query_async(SLOW_COMB_SQL) for c in clients]
            time.sleep(0.15)  # first holds the engine, rest queue
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 20.0
            for client, rid in zip(clients, rids):
                reply = client.wait(rid, timeout=30.0)
                assert reply["type"] in ("error", "result")
            for client in clients:
                client.drop()
            assert server._inflight_count() == 0
        finally:
            db.close()

    def test_connections_during_drain_are_shed(self):
        db = make_db()
        server = db.serve(port=0)
        try:
            server.draining = True  # simulate mid-drain accept race
            conn_shed_before = metric_value(
                db, "fudj_session_requests_total",
                op="connect", outcome="shed")
            client = SessionClient(server.host, server.port)
            try:
                wait_until(lambda: client.notices or client._eof,
                           message="drain shed notice")
            finally:
                client.drop()
            server.draining = False
        finally:
            db.close()


# -- lifecycle: port-in-use, idempotent close ----------------------------------


class TestLifecycle:
    def test_port_in_use_is_typed_for_both_servers(self):
        db = make_db()
        try:
            server = db.serve(port=0)
            with pytest.raises(ServerError) as excinfo:
                SessionServer(db, port=server.port)
            assert excinfo.value.port == server.port
            monitor = db.serve_monitor(port=0)
            from repro.monitor import MonitorServer

            with pytest.raises(ServerError) as excinfo:
                MonitorServer(db, port=monitor.port)
            assert excinfo.value.port == monitor.port
        finally:
            db.close()

    def test_stop_is_idempotent_everywhere(self):
        db = make_db()
        server = db.serve(port=0)
        monitor = db.serve_monitor(port=0)
        server.stop()
        server.stop()  # no double-close
        monitor.stop()
        monitor.stop()
        db.close()
        db.close()  # and the database teardown is too

    def test_serve_replaces_previous_server(self):
        db = make_db()
        try:
            first = db.serve(port=0)
            second = db.serve(port=0)
            assert db.server is second
            assert first._stopped
            with connect(second) as client:
                assert client.ping()["type"] == "pong"
        finally:
            db.close()

    def test_close_drains_the_session_server(self):
        db = make_db()
        server = db.serve(port=0)
        db.close()
        assert db.server is None
        assert server._stopped
        with pytest.raises(ServerError):
            SessionClient(server.host, server.port, connect_timeout=0.5)


# -- observability: sys.sessions, events, metrics ------------------------------


class TestObservability:
    def test_sys_sessions_live_rows(self, served):
        db, server = served
        with connect(server, tenant="analytics") as client:
            rid = client.query_async(SLOW_COMB_SQL)
            # Live introspection while the query holds the engine (an
            # SQL probe would queue behind it, so read the rows the
            # virtual table is built from).
            wait_until(lambda: any(
                row["active_query"] for row in server.sessions_rows()),
                message="active query visible")
            live = server.sessions_rows()[0]
            assert live["tenant"] == "analytics"
            assert live["state"] == "open"
            assert live["active_query"] >= 1
            assert live["lane_depth"] == 1
            client.wait(rid, timeout=60.0)
            # The SQL surface sees the (now idle) session.
            rows = db.execute(
                "SELECT s.session, s.tenant, s.state, s.active_query "
                "FROM sys.sessions s").rows
            assert len(rows) == 1
            assert rows[0]["s.tenant"] == "analytics"
            assert rows[0]["s.state"] == "open"
            assert rows[0]["s.active_query"] == 0
        wait_until(lambda: not db.execute(
            "SELECT s.session FROM sys.sessions s").rows,
            message="sys.sessions empty after close")

    def test_sys_sessions_empty_without_server(self):
        db = make_db()
        try:
            assert db.execute("SELECT s.session FROM sys.sessions s") \
                .rows == []
        finally:
            db.close()

    def test_server_events_are_runtime_kinds(self, served):
        db, server = served
        for kind in ("server.start", "server.drain", "server.stop",
                     "session.open", "session.close", "session.shed",
                     "cancel.request", "cancel.complete"):
            assert kind in EVENT_KINDS
            assert kind in RUNTIME_KINDS
        with connect(server) as client:
            rid = client.query_async(SLOW_COMB_SQL)
            time.sleep(0.1)
            client.cancel(rid)
            client.wait(rid, timeout=30.0)
        wait_until(lambda: not server.sessions_rows(),
                   message="session closed")
        kinds = {e.kind for e in db.telemetry.events.events()}
        assert {"server.start", "session.open", "session.close",
                "cancel.request", "cancel.complete"} <= kinds
        # Runtime kinds never reach the canonical deterministic stream.
        assert "server.start" not in db.telemetry.events.to_jsonl()

    def test_session_counters(self, served):
        db, server = served
        with connect(server) as client:
            client.ping()
        wait_until(lambda: metric_value(db, "fudj_sessions_open",
                                        default=-1.0) == 0.0,
                   message="open gauge back to zero")
        assert metric_value(db, "fudj_sessions_total") >= 1.0
        assert metric_value(db, "fudj_session_requests_total",
                            op="ping", outcome="ok") >= 1.0

    def test_open_gauge_reads_the_live_count_after_a_reset(self, served):
        db, server = served
        with connect(server) as client:
            client.ping()
            db.telemetry.reset()  # the `.metrics reset` command
            assert "\nfudj_sessions_open 1\n" in db.metrics_snapshot(
                "prometheus")
        wait_until(lambda: not server.sessions_rows(),
                   message="session closed")
        assert "\nfudj_sessions_open 0\n" in db.metrics_snapshot(
            "prometheus")

    def test_a_database_that_never_serves_has_no_open_gauge_sample(self):
        db = make_db()
        assert "\nfudj_sessions_open " not in db.metrics_snapshot(
            "prometheus")


# -- determinism: serving never perturbs the canonical stream ------------------


class TestDeterminism:
    def test_served_session_stream_matches_serial_session(self):
        serial = make_db()
        try:
            serial.execute(FAST_SQL)
            expected = serial.telemetry.events.to_jsonl()
        finally:
            serial.close()
        db = make_db()
        server = db.serve(port=0)
        try:
            with connect(server, tenant="t") as client:
                client.ping()
                assert client.query(FAST_SQL)["type"] == "result"
        finally:
            db.close()
        assert db.telemetry.events.to_jsonl() == expected


# -- parity across backends after cancellation ---------------------------------


class TestBackendParity:
    def test_process_batch_parity_after_cancel(self):
        """Tier-1 parity: on the same Database with backend="process"
        and execution="batch", a cancelled query leaves the pool able
        to produce byte-identical rows."""
        db = make_db(backend="process", execution="batch", workers=2)
        server = db.serve(port=0)
        try:
            with connect(server) as client:
                rid = client.query_async(SLOW_COMB_SQL)
                time.sleep(0.1)
                client.cancel(rid)
                client.wait(rid, timeout=60.0)
                reply = client.query(FAST_SQL, timeout=120.0)
            assert reply["type"] == "result"
            assert reply["rows"] == fresh_rows()
        finally:
            db.close()


# -- the seeded chaos harness --------------------------------------------------


ALLOWED_ERRORS = {"timeout", "cancelled", "shed", "rejected", "failed",
                  "error", "draining", "bad-request", "disconnected"}


class TestChaos:
    def test_seeded_chaos_storm(self):
        """≥8 concurrent sessions injecting disconnects, cancels,
        deadline expiries, and malformed requests: every outcome is
        typed, nothing hangs, nothing leaks, and the database still
        answers byte-identically afterwards."""
        import random

        db = make_db(memory_budget="8kb")
        server = db.serve(port=0, max_sessions=16)
        before = spill_dirs()
        failures = []

        def chaos_client(seed):
            rng = random.Random(seed)
            try:
                client = connect(server, tenant=f"t{seed % 3}")
                for _ in range(rng.randint(3, 5)):
                    action = rng.random()
                    if action < 0.25:  # plain query
                        reply = client.query(FAST_SQL, timeout=120.0)
                        assert reply["type"] in ("result", "error")
                        if reply["type"] == "result":
                            assert reply["rows"] == fresh_rows()
                        else:
                            assert reply["error"] in ALLOWED_ERRORS
                    elif action < 0.45:  # cancel storm
                        rid = client.query_async(SLOW_COMB_SQL)
                        time.sleep(rng.uniform(0.0, 0.1))
                        client.cancel(rid)
                        reply = client.wait(rid, timeout=120.0)
                        assert reply["type"] in ("result", "error")
                    elif action < 0.6:  # deadline expiry
                        reply = client.query(
                            SLOW_COMB_SQL, timeout=120.0,
                            deadline_ms=rng.choice([0, 1, 50]))
                        assert reply["type"] == "error"
                        assert reply["error"] in ALLOWED_ERRORS
                    elif action < 0.75:  # malformed request
                        client.send_raw({"op": "??", "id": None})
                        assert client.ping(timeout=60.0)["type"] == "pong"
                    elif action < 0.9:  # disconnect mid-query, reconnect
                        client.query_async(SLOW_SUM_SQL)
                        time.sleep(rng.uniform(0.0, 0.05))
                        client.drop()
                        client = connect(server, tenant=f"t{seed % 3}")
                    else:
                        assert client.ping(timeout=60.0)["type"] == "pong"
                client.close()
            except Exception as exc:  # noqa: BLE001 - collected, not raised
                failures.append(f"client {seed}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=chaos_client, args=(seed,),
                                    daemon=True)
                   for seed in range(10)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180.0)
            assert not any(t.is_alive() for t in threads), \
                "chaos clients hung"
            assert failures == []
            # Nothing in flight, nothing leaked.
            wait_until(lambda: server._inflight_count() == 0,
                       message="all inflight drained")
            wait_until(lambda: not server.sessions_rows(), timeout=30.0,
                       message="all sessions closed")
            wait_until(lambda: spill_dirs() <= before, timeout=30.0,
                       message="no orphaned spill files")
            assert server.lanes.snapshot()["tenants"] == {}
            # The database is unharmed: byte-identical to a fresh run.
            post = [{str(k): v for k, v in row.items()}
                    for row in db.execute(FAST_SQL).rows]
            assert post == fresh_rows()
        finally:
            started = time.monotonic()
            db.close()
            assert time.monotonic() - started < 30.0, "drain hung"
        assert metric_value(db, "fudj_sessions_open", default=-1.0) == 0.0
