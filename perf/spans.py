"""The benchmark's own span recorder, and the reading of the engine's
span tree (``QueryResult.trace``) into per-layer figures.

Nothing under ``src/`` knows about this file.  The recorder wraps the
program's public calls from outside (``SpanRecorder.wrap`` swaps an
attribute for a timing wrapper and puts it back afterwards), keeps the
spans in memory and writes them out once, when the traced pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time


class NullRecorder:
    """Stands in for a recorder on the untraced, measured path."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()


class SpanRecorder:
    """Spans as dicts: ``id``, ``name``, ``parent``, ``start``, ``end``
    plus free attributes.  A root span carries ``op``, the operation's
    id; its descendants are found through ``parent`` (same thread) or,
    across the server's socket, through ``query_id``."""

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        record = {"id": next(self._ids), "name": name,
                  "parent": stack[-1]["id"] if stack else None, **attrs}
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def wrap(self, owner, attr, name, note=None):
        """Time every call of ``owner.attr`` as a span called ``name``
        for the length of the ``with`` block.  ``note(span, args,
        kwargs, result)`` may copy facts of the call onto the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    span["error"] = type(exc).__name__
                    raise
                if note is not None:
                    note(span, args, kwargs, result)
                return result

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def by_operation(self) -> dict:
        """``op`` → its spans.  A span belongs to the operation of its
        nearest ancestor that carries ``op``; a server-side span with no
        such ancestor belongs to the operation whose client span saw the
        same ``query_id`` in its reply."""
        by_id = {span["id"]: span for span in self.spans}
        of_query = {span["query_id"]: span["id"] for span in self.spans
                    if span.get("query_id") and span["name"] == "client.query"}
        out = {}
        for span in self.spans:
            node = span
            while node is not None and "op" not in node:
                parent = by_id.get(node["parent"])
                if parent is None and node.get("query_id") in of_query \
                        and node["name"] != "client.query":
                    parent = by_id[of_query[node["query_id"]]]
                node = parent
            if node is not None:
                out.setdefault(node["op"], []).append(span)
        return out

    def dump(self, path) -> None:
        spans = sorted(self.spans, key=lambda span: span["start"])
        # Written beside and moved into place: two runs of one workload
        # side by side must not write into each other's file.
        partial = f"{path}.{os.getpid()}"
        with open(partial, "w") as handle:
            json.dump({"clock": "time.perf_counter seconds",
                       "spans": spans}, handle)
            handle.write("\n")
        os.replace(partial, path)


def duration_ms(span) -> float:
    return (span["end"] - span["start"]) * 1000.0


def total_ms(spans, name) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(duration_ms(span) for span in spans if span["name"] == name)


# -- the engine's own span tree ------------------------------------------------

#: Raw sums read off one engine trace; ``engine_layers`` fills exactly
#: these, so operations with several statements add up key by key.
ENGINE_KEYS = (
    "join_ms", "input_ms", "summarize_ms", "partition_ms", "combine_ms",
    "combine_exchange_ms", "summarize_cb_ms", "partition_cb_ms",
    "combine_cb_ms", "local_aggregate_ms", "assign_ms", "match_ms",
    "verify_ms", "assign_calls", "match_calls", "verify_calls",
    "assign_records", "assignments", "result_pairs", "exchange_ms",
    "exchange_bytes", "exchange_records",
)


def engine_layers(trace) -> dict:
    """Sums over one ``QueryResult.trace``: FUDJ phases, callback
    self-times and counts, exchanges.  Milliseconds, calls and bytes."""
    out = dict.fromkeys(ENGINE_KEYS, 0.0)
    for span in trace.walk():
        if span.kind == "exchange":
            out["exchange_ms"] += span.wall_seconds * 1000.0
            out["exchange_bytes"] += span.network_bytes
            out["exchange_records"] += span.records_in
        elif span.kind == "operator" and span.name.startswith("fudj-join"):
            _fudj_join(span, out)
    return out


def _callbacks(span) -> dict:
    """name → (wall ms, calls) of the callback spans below ``span``."""
    found = {}
    for node in span.walk():
        if node.kind == "callback":
            wall, calls = found.get(node.name, (0.0, 0))
            found[node.name] = (wall + node.wall_seconds * 1000.0,
                                calls + node.calls)
    return found


def _fudj_join(join, out) -> None:
    out["join_ms"] += join.wall_seconds * 1000.0
    out["result_pairs"] += join.records_out
    for child in join.children:
        wall = child.wall_seconds * 1000.0
        if child.kind == "operator":
            out["input_ms"] += wall
            continue
        callbacks = _callbacks(child)
        callback_ms = sum(ms for ms, _ in callbacks.values())
        if child.name == "SUMMARIZE":
            out["summarize_ms"] += wall
            out["summarize_cb_ms"] += callback_ms
            out["local_aggregate_ms"] += callbacks.get(
                "local_aggregate", (0.0, 0))[0]
        elif child.name == "PARTITION":
            out["partition_ms"] += wall
            out["partition_cb_ms"] += callback_ms
            assign_ms, assign_calls = callbacks.get("assign", (0.0, 0))
            out["assign_ms"] += assign_ms
            out["assign_calls"] += assign_calls
            for stage in child.children:
                if stage.kind == "stage":
                    out["assign_records"] += stage.records_in
                    out["assignments"] += stage.records_out
        elif child.name == "COMBINE":
            out["combine_ms"] += wall
            out["combine_cb_ms"] += callback_ms
            out["combine_exchange_ms"] += sum(
                node.wall_seconds * 1000.0 for node in child.children
                if node.kind == "exchange")
            for name in ("match", "verify"):
                ms, calls = callbacks.get(name, (0.0, 0))
                out[f"{name}_ms"] += ms
                out[f"{name}_calls"] += calls
