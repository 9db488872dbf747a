"""Structured span tracing: where time goes *inside* a query.

:class:`QueryMetrics` answers "how much work did each stage charge";
this module answers "where inside a phase did it go" — the paper's
Fig. 9 breakdown (user callbacks vs. engine shuffle vs. verification)
at query granularity.  A :class:`Tracer` records a tree of
:class:`Span` objects:

- the root ``query`` span covers the whole execution (including result
  materialization, mirroring ``QueryMetrics.wall_seconds``);
- every physical operator opens an ``operator`` span (the span tree is
  therefore shaped exactly like the physical plan);
- :class:`~repro.engine.operators.fudj_join.FudjJoin` opens nested
  ``phase`` spans (SUMMARIZE / PARTITION / COMBINE) with ``stage`` and
  ``exchange`` spans below them;
- every user callback (``local_aggregate``, ``global_aggregate``,
  ``divide``, ``assign``, ``match``, ``verify``, ``dedup``,
  ``local_join``) aggregates into one ``callback`` span per enclosing
  stage, carrying call counts, error counts, charged units, and wall
  time.

Accounting invariants (tested in ``tests/test_tracing.py``):

- **No double counting.** ``Span.units`` is *exclusive* (own work only);
  charges mirrored from :meth:`StageMetrics.charge` land on the span
  open at charge time, and :meth:`Tracer.attribute` *moves* units from a
  stage span to one of its callback children.  Hence
  ``trace.total_units() == QueryMetrics.total_cpu_units()`` always.
- **Monotonic wall time.** Span wall clocks come from
  ``time.perf_counter`` and spans nest strictly, so the summed wall time
  of a span's children never exceeds the parent's
  (:meth:`Trace.validate_wall`).
- **Determinism.** :meth:`Trace.to_dict` and the Chrome-trace exporter
  (with the default ``clock="units"``) contain only charged units and
  counters — no wall clocks — so repeated runs of the same query (same
  data, same fault plan) serialize byte-identically.

Tracing is strictly opt-in: a disabled tracer short-circuits every hot
path (one attribute load + branch), and it never charges work to the
cost model, so the simulated makespan is identical with tracing on or
off (asserted by ``benchmarks/bench_observability.py``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: Span kinds, outermost to innermost.  ``worker`` spans are emitted by
#: the process backend under a ``stage`` span, one per pool task; their
#: wall time lives in ``meta`` (tasks overlap, so summing them against
#: the parent's wall clock would be meaningless).
SPAN_KINDS = ("query", "operator", "phase", "stage", "exchange", "callback",
              "worker")


class Span:
    """One node of the trace tree.

    Attributes:
        name: display name (operator stage name, phase, callback name).
        kind: one of :data:`SPAN_KINDS`.
        units: work units charged *directly* to this span (exclusive —
            children hold their own; see :meth:`total_units`).
        wall_seconds: measured wall time.  Inclusive (open→close) for
            context-manager spans; accumulated across calls for
            ``callback`` spans.
        calls: invocation count (callback spans).
        errors: failed invocations (callback spans, degraded-mode drops).
        records_in / records_out: row counts copied from the matching
            metrics stage where one exists.
        network_bytes: bytes moved (exchange spans).
        meta: extra diagnostics, e.g. ``imbalance`` (max/mean per-worker
            units of the matching stage).
    """

    __slots__ = ("name", "kind", "units", "wall_seconds", "calls", "errors",
                 "records_in", "records_out", "network_bytes", "meta",
                 "children", "_callback_index")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.units = 0.0
        self.wall_seconds = 0.0
        self.calls = 0
        self.errors = 0
        self.records_in = 0
        self.records_out = 0
        self.network_bytes = 0.0
        self.meta = {}
        self.children = []
        self._callback_index = None

    def child(self, name: str, kind: str) -> "Span":
        span = Span(name, kind)
        self.children.append(span)
        return span

    def callback_child(self, name: str) -> "Span":
        """The aggregated callback span named ``name`` (created once)."""
        if self._callback_index is None:
            self._callback_index = {}
        span = self._callback_index.get(name)
        if span is None:
            span = self.child(name, "callback")
            self._callback_index[name] = span
        return span

    def copy_stage(self, stage) -> None:
        """Pull row/byte counters and worker imbalance off a metrics stage."""
        self.records_in = stage.records_in
        self.records_out = stage.records_out
        self.network_bytes = stage.network_bytes + stage.fabric_bytes
        imbalance = stage.imbalance()
        if imbalance is not None:
            self.meta["imbalance"] = imbalance

    # -- aggregate views ----------------------------------------------------

    def total_units(self) -> float:
        """Units charged in this span's whole subtree."""
        return self.units + sum(c.total_units() for c in self.children)

    def walk(self):
        """Yield every span in the subtree, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span":
        """First span in the subtree with this name (None if absent)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self, wall: bool = False) -> dict:
        """A JSON-ready dict.  ``wall=False`` (the default) omits wall
        clocks so the result is deterministic across runs."""
        out = {
            "name": self.name,
            "kind": self.kind,
            "units": round(self.units, 6),
            "calls": self.calls,
            "errors": self.errors,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "network_bytes": round(self.network_bytes, 6),
        }
        if self.meta:
            out["meta"] = {k: round(v, 6) if isinstance(v, float) else v
                           for k, v in sorted(self.meta.items())}
        if wall:
            out["wall_ms"] = self.wall_seconds * 1000.0
        if self.children:
            out["children"] = [c.to_dict(wall=wall) for c in self.children]
        return out

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, kind={self.kind}, "
                f"units={self.total_units():.0f}, "
                f"children={len(self.children)})")


class BucketSkew:
    """Skew diagnostics for one PARTITION (``assign``) stage.

    Built from the full per-bucket record histogram, so every standard
    skew question is answerable: replication factor, heaviest buckets,
    bucket imbalance.
    """

    __slots__ = ("name", "records_in", "histogram")

    def __init__(self, name: str, records_in: int, histogram: dict) -> None:
        self.name = name
        self.records_in = records_in
        self.histogram = dict(histogram)

    @property
    def assignments(self) -> int:
        """Total ``(bucket, record)`` pairs emitted by ``assign``."""
        return sum(self.histogram.values())

    @property
    def num_buckets(self) -> int:
        return len(self.histogram)

    @property
    def is_empty(self) -> bool:
        """True for a zero-bucket stage (empty join input) — every ratio
        below is degenerate, so reports render it as a plain note."""
        return not self.histogram or not self.records_in

    def replication_factor(self) -> float:
        """Assignments per input record (1.0 = single-assign, no skew
        from duplication; >1 means multi-assign replication)."""
        if not self.records_in:
            return 0.0
        return self.assignments / self.records_in

    def top_buckets(self, k: int = 5) -> list:
        """The ``k`` heaviest ``(bucket_id, count)`` pairs, heaviest
        first (ties broken by bucket id for determinism)."""
        ranked = sorted(self.histogram.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def imbalance(self) -> float:
        """Heaviest bucket over the mean bucket (1.0 = perfectly even)."""
        if not self.histogram:
            return 0.0
        mean = self.assignments / len(self.histogram)
        return max(self.histogram.values()) / mean if mean else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "records_in": self.records_in,
            "assignments": self.assignments,
            "num_buckets": self.num_buckets,
            "replication_factor": round(self.replication_factor(), 6),
            "imbalance": round(self.imbalance(), 6),
            "histogram": sorted(self.histogram.items()),
        }


class Trace:
    """The finished product: the span tree plus skew diagnostics.

    Exposed as :attr:`QueryResult.trace <repro.engine.executor.QueryResult>`
    when a query runs with tracing enabled.
    """

    __slots__ = ("root", "skew")

    def __init__(self, root: Span, skew: dict = None) -> None:
        self.root = root
        self.skew = skew or {}

    def walk(self):
        return self.root.walk()

    def find(self, name: str) -> Span:
        return self.root.find(name)

    def total_units(self) -> float:
        return self.root.total_units()

    def callback_rows(self) -> list:
        """Aggregated per-callback totals, one row per distinct
        ``(callback, parent-span)`` pair, sorted for determinism.

        This is what flows into the telemetry registry and the
        ``sys.callbacks`` table at query end.
        """
        totals = {}

        def visit(span: Span) -> None:
            for child in span.children:
                if child.kind == "callback":
                    row = totals.setdefault(
                        (child.name, span.name),
                        {"calls": 0, "errors": 0, "units": 0.0},
                    )
                    row["calls"] += child.calls
                    row["errors"] += child.errors
                    row["units"] += child.units
                visit(child)

        visit(self.root)
        return [
            {"callback": callback, "parent": parent, **row}
            for (callback, parent), row in sorted(totals.items())
        ]

    def to_dict(self, wall: bool = False) -> dict:
        return {
            "spans": self.root.to_dict(wall=wall),
            "skew": {name: s.to_dict()
                     for name, s in sorted(self.skew.items())},
        }

    def render(self) -> str:
        """The aligned text tree (EXPLAIN ANALYZE / shell rendering)."""
        from repro.query.printer import render_trace

        return render_trace(self)

    def skew_report(self, top_k: int = 5) -> str:
        """Bucket skew + worker imbalance, one diagnostic block."""
        lines = []
        for name in sorted(self.skew):
            skew = self.skew[name]
            if skew.is_empty:
                lines.append(f"skew {name}: empty input "
                             f"({skew.records_in} records, no buckets)")
                continue
            lines.append(
                f"skew {name}: {skew.records_in} records -> "
                f"{skew.assignments} assignments over {skew.num_buckets} "
                f"buckets, replication {skew.replication_factor():.2f}x, "
                f"bucket imbalance {skew.imbalance():.2f}x"
            )
            top = skew.top_buckets(top_k)
            if top:
                rendered = ", ".join(f"{b}:{n}" for b, n in top)
                lines.append(f"  heaviest buckets: {rendered}")
        imbalances = [
            (span.name, span.meta["imbalance"])
            for span in self.walk() if "imbalance" in span.meta
        ]
        if imbalances:
            worst = sorted(imbalances, key=lambda kv: -kv[1])[:top_k]
            rendered = ", ".join(f"{name} {ratio:.2f}x" for name, ratio in worst)
            lines.append(f"worker imbalance (max/mean units): {rendered}")
        return "\n".join(lines)

    def validate_wall(self, epsilon: float = 1e-6) -> None:
        """Assert the monotonic-wall invariant: the summed wall time of a
        span's children never exceeds the parent's own wall time."""
        for span in self.walk():
            if not span.children:
                continue
            child_wall = sum(c.wall_seconds for c in span.children)
            if child_wall > span.wall_seconds + epsilon:
                raise AssertionError(
                    f"span {span.name!r}: children wall {child_wall:.6f}s "
                    f"exceeds parent wall {span.wall_seconds:.6f}s"
                )

    # -- Chrome trace export -------------------------------------------------

    def to_chrome_trace(self, path: str, clock: str = "units") -> None:
        """Write a ``chrome://tracing`` / Perfetto JSON file.

        ``clock="units"`` (default) lays spans out on the deterministic
        charged-units timeline (1 unit = 1 µs of trace time) — the same
        query always produces the same file.  ``clock="wall"`` uses the
        measured wall clocks instead.
        """
        if clock not in ("units", "wall"):
            raise ValueError(f"clock must be 'units' or 'wall', got {clock!r}")
        events = []

        def duration(span: Span) -> float:
            if clock == "wall":
                return span.wall_seconds * 1e6
            return span.total_units()

        def emit(span: Span, ts: float) -> None:
            events.append({
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round(ts, 3),
                "dur": round(duration(span), 3),
                "args": {
                    "units": round(span.total_units(), 3),
                    "own_units": round(span.units, 3),
                    "calls": span.calls,
                    "errors": span.errors,
                    "records_in": span.records_in,
                    "records_out": span.records_out,
                    "network_bytes": round(span.network_bytes, 3),
                },
            })
            cursor = ts
            for child in span.children:
                emit(child, cursor)
                cursor += duration(child)

        emit(self.root, 0.0)
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")


class Tracer:
    """The recording side: a span stack fed by the execution context.

    A disabled tracer (the default) is inert — every entry point checks
    :attr:`enabled` first, so the per-record cost of ``--trace off`` is a
    single attribute load and branch.
    """

    __slots__ = ("enabled", "root", "skew", "_stack")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.root = Span("query", "query") if self.enabled else None
        self.skew = {}
        self._stack = [self.root] if self.enabled else []

    @property
    def current(self) -> Span:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, kind: str = "stage", stage=None):
        """Open a child span of the current span for the ``with`` body.

        When ``stage`` (a :class:`StageMetrics`) is given, its row/byte
        counters are copied onto the span at close time.
        """
        if not self.enabled:
            yield None
            return
        span = self.current.child(name, kind)
        self._stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.wall_seconds += time.perf_counter() - started
            self._stack.pop()
            if stage is not None:
                span.copy_stage(stage)

    def record_units(self, units: float) -> None:
        """Mirror of :meth:`StageMetrics.charge` — installed as the
        stage's ``on_charge`` hook while tracing is enabled."""
        self._stack[-1].units += units

    def record_call(self, name: str, wall_seconds: float,
                    ok: bool = True) -> None:
        """Fold one callback invocation into the aggregated callback span
        under the current span."""
        span = self.current.callback_child(name)
        span.calls += 1
        span.wall_seconds += wall_seconds
        if not ok:
            span.errors += 1

    def record_calls(self, name: str, calls: int, wall_seconds: float,
                     errors: int = 0) -> None:
        """Bulk form of :meth:`record_call` — replays a batch of callback
        invocations measured elsewhere (the process backend aggregates
        per-callback counts worker-side and folds them in here)."""
        if not calls:
            return
        span = self.current.callback_child(name)
        span.calls += calls
        span.wall_seconds += wall_seconds
        span.errors += errors

    def worker_span(self, worker: int, meta: dict) -> None:
        """Attach a ``worker`` span under the current span for one pool
        task.  Carries diagnostics only (pid, attempts, wall time in
        ``meta``) — zero units and zero wall, so every accounting
        invariant is untouched."""
        span = self.current.child(f"worker-{worker}", "worker")
        span.meta.update(meta)

    def attribute(self, name: str, units: float, calls: int = 0) -> None:
        """Move ``units`` of already-charged work from the current span
        to its ``name`` callback child (keeps totals intact — the whole
        point is *no double counting*)."""
        span = self.current.callback_child(name)
        span.units += units
        self.current.units -= units
        span.calls += calls

    def note_skew(self, name: str, records_in: int, histogram: dict) -> None:
        """Record the per-bucket histogram of one ``assign`` stage."""
        self.skew[name] = BucketSkew(name, records_in, histogram)

    def finish(self, wall_seconds: float = None) -> Trace:
        """Seal the root span and hand back the immutable trace."""
        if not self.enabled:
            return None
        if wall_seconds is not None:
            # The root covers everything the caller waited for, incl.
            # result materialization (same window as metrics.wall_seconds).
            self.root.wall_seconds = max(
                wall_seconds,
                sum(c.wall_seconds for c in self.root.children),
            )
        return Trace(self.root, self.skew)
