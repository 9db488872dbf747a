"""The live read-only monitor: endpoints, scrape parity, lifecycle.

Everything here talks to a real ``http.server`` instance over a real
socket (``port=0`` — an ephemeral port per test), with nothing but
``urllib`` on the client side.  The headline contract: the ``/metrics``
body equals ``Database.metrics_snapshot("prometheus")`` for the same
instant, so a Prometheus scrape and an in-process snapshot can never
disagree.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.database import Database
from repro.monitor import METRICS_CONTENT_TYPE, chrome_trace

JOIN_SQL = "SELECT l.id, r.v FROM L l, R r WHERE l.k = r.k"


def make_db(**kwargs):
    kwargs.setdefault("num_partitions", 4)
    kwargs.setdefault("cores", 4)
    db = Database(**kwargs)
    db.execute("CREATE TYPE T { id: int, k: int, v: int }")
    db.execute("CREATE DATASET L(T) PRIMARY KEY id")
    db.execute("CREATE DATASET R(T) PRIMARY KEY id")
    db.load("L", [{"id": i, "k": i % 3, "v": i} for i in range(24)])
    db.load("R", [{"id": i, "k": i % 3, "v": i * 2} for i in range(16)])
    return db


@pytest.fixture
def served():
    db = make_db()
    db.execute(JOIN_SQL)
    monitor = db.serve_monitor(port=0)
    yield db, monitor.url
    db.close()


def get(url, path):
    with urllib.request.urlopen(url + path, timeout=10) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


def get_status(url, path):
    """Status code even for error responses."""
    try:
        return get(url, path)[0]
    except urllib.error.HTTPError as error:
        return error.code


class TestEndpoints:
    def test_healthz(self, served):
        db, url = served
        status, ctype, body = get(url, "/healthz")
        assert status == 200
        assert ctype.startswith("application/json")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["backend"] == db.backend
        assert health["queries_recorded"] == len(db.telemetry.history)
        assert health["events_emitted"] == db.telemetry.events.total_emitted
        assert health["uptime_seconds"] >= 0

    def test_metrics_scrape_parity(self, served):
        db, url = served
        status, ctype, body = get(url, "/metrics")
        assert status == 200
        assert ctype == METRICS_CONTENT_TYPE
        # The scrape stamps uptime, then snapshots — so the same
        # instant's in-process snapshot is byte-identical.
        assert body == db.metrics_snapshot("prometheus")
        assert "# TYPE fudj_queries_total counter" in body
        assert "fudj_build_info{" in body

    def test_queries(self, served):
        db, url = served
        status, ctype, body = get(url, "/queries")
        assert status == 200
        queries = json.loads(body)
        assert len(queries) == len(db.telemetry.history)
        assert queries[-1]["sql"] == JOIN_SQL
        assert queries[-1]["status"] == "ok"

    def test_events_is_ndjson(self, served):
        db, url = served
        status, ctype, body = get(url, "/events")
        assert status == 200
        assert ctype.startswith("application/x-ndjson")
        events = [json.loads(line) for line in body.splitlines()]
        assert len(events) == len(db.telemetry.events)
        assert events[0]["kind"] == "query.start"

    def test_events_tail(self, served):
        _, url = served
        _, _, body = get(url, "/events?tail=3")
        events = [json.loads(line) for line in body.splitlines()]
        assert len(events) == 3
        assert events[-1]["kind"] == "query.finish"

    def test_trace_endpoint_serves_chrome_trace_json(self, served):
        db, url = served
        entry = db.telemetry.history.entries()[-1]
        status, ctype, body = get(url, f"/traces/{entry['id']}")
        assert status == 200
        trace = json.loads(body)
        assert trace == chrome_trace(entry)
        assert trace["traceEvents"], "a join query has stages to trace"
        assert all(event["ph"] == "X" for event in trace["traceEvents"])

    def test_unknown_paths_and_bad_traces_404(self, served):
        _, url = served
        assert get_status(url, "/nope") == 404
        assert get_status(url, "/traces/99999") == 404
        assert get_status(url, "/traces/zzz") == 404

    def test_post_is_rejected(self, served):
        _, url = served
        request = urllib.request.Request(
            url + "/healthz", data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 501


class TestScrapeReflectsLiveState:
    def test_new_queries_show_up_in_the_next_scrape(self, served):
        db, url = served
        before = get(url, "/metrics")[2]
        db.execute("SELECT l.k, COUNT(1) AS n FROM L l GROUP BY l.k")
        after = get(url, "/metrics")[2]
        assert before != after
        assert after == db.metrics_snapshot("prometheus")

    def test_healthz_counts_move(self, served):
        db, url = served
        first = json.loads(get(url, "/healthz")[2])
        db.execute(JOIN_SQL)
        second = json.loads(get(url, "/healthz")[2])
        assert second["queries_recorded"] == first["queries_recorded"] + 1
        assert second["events_emitted"] > first["events_emitted"]


class TestLifecycle:
    def test_port_zero_binds_an_ephemeral_port(self):
        db = make_db()
        try:
            monitor = db.serve_monitor(port=0)
            assert monitor.port > 0
            assert monitor.url == f"http://127.0.0.1:{monitor.port}"
            assert db.monitor is monitor
        finally:
            db.close()

    def test_serve_again_replaces_the_previous_monitor(self):
        db = make_db()
        try:
            first = db.serve_monitor(port=0)
            second = db.serve_monitor(port=0)
            assert db.monitor is second
            with pytest.raises(urllib.error.URLError):
                urllib.request.urlopen(first.url + "/healthz", timeout=2)
            assert get(second.url, "/healthz")[0] == 200
        finally:
            db.close()

    def test_stop_monitor_is_idempotent(self):
        db = make_db()
        try:
            db.serve_monitor(port=0)
            db.stop_monitor()
            assert db.monitor is None
            db.stop_monitor()
        finally:
            db.close()

    def test_close_stops_the_monitor(self):
        db = make_db()
        monitor = db.serve_monitor(port=0)
        db.close()
        assert db.monitor is None
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(monitor.url + "/healthz", timeout=2)


class TestChromeTrace:
    def test_trace_shape(self):
        db = make_db()
        try:
            db.execute(JOIN_SQL)
            entry = db.telemetry.history.entries()[-1]
        finally:
            db.close()
        trace = chrome_trace(entry)
        assert {"traceEvents", "displayTimeUnit"} <= set(trace)
        names = [event["name"] for event in trace["traceEvents"]]
        assert len(names) == len(entry["stages"])
        starts = [event["ts"] for event in trace["traceEvents"]]
        assert starts == sorted(starts), "stages lay out sequentially"
