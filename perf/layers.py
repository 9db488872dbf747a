"""The traced pass: per-layer figures for one workload.

Three parts, all after the measured rounds:

A. workload-shaped operations, untraced and traced in turn, under the
   benchmark's span recorder (wrapped round ``Database.execute`` and the
   calls it makes into parser, optimizer and executor) — layer times,
   FUDJ phases and counts from ``QueryResult.trace``, tracing overhead,
   on ``serving_mixed`` the server's share, and on ``cold_ingest`` the
   steps of the database's life cycle an operation goes through;
B. the same script on a warm embedded Database under each switch the
   ROADMAP wants decided (optimizer, execution, backend, mode), timed in
   turn with the default so that drift cancels in the ratio, and the
   join library alone through ``StandaloneRunner``;
C. per-record serde cost.

A metric of a layer the workload does not run is not measured there
(``SCOPED``).  Every figure is per operation (one pass of the workload's
script) and a median over operations unless it is a count; a count must
be the same on every operation or the pass fails.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

import repro.database
from repro.core.flexible_join import JoinSide
from repro.core.standalone import StandaloneRunner
from repro.serde.serializer import deserialize_value, serialize_value

from spans import ENGINE_KEYS, SpanRecorder, duration_ms, engine_layers, total_ms
from workloads import Nondeterministic, build_database, run_script

MIN_OPERATIONS = 15   # traced, and as many untraced, per client
VARIANT_ROUNDS = 5    # after one discarded warm-up round
PINGS = 50

#: (attribute of repro.database, span name): the calls Database.execute
#: makes into the other layers, wrapped where it looks them up.
LAYER_CALLS = (
    ("parse_statement", "query.parse"),
    ("bind_select", "optimizer.bind"),
    ("optimize", "optimizer.optimize"),
    ("plan_physical", "optimizer.plan_physical"),
    ("execute_plan", "engine.execute_plan"),
)

STATEMENT_CLASSES = ("join_spatial", "join_text", "scan_agg", "filter",
                     "lookup")

#: Metrics measured on some workloads only, and on which (ISSUE 12's
#: table): the server's share where there is a server, the execution and
#: backend switches where the workload calls the engine itself, the
#: database's life cycle where an operation is that cycle.
SCOPED = {
    **dict.fromkeys(
        ("server.ping_ms", "server.wire_overhead_ms",
         "server.contention_wait_ms", "server.reply_bytes_per_op",
         *(f"client.{name}_p50_ms" for name in STATEMENT_CLASSES)),
        ("serving_mixed",)),
    **dict.fromkeys(
        ("batch.batch_vs_row_x", "workers.process_vs_serial_x"),
        ("spatial_partition", "interval_theta", "cold_ingest")),
    **dict.fromkeys(
        ("database.ddl_ms", "database.load_ms", "database.load_rows_per_s",
         "storage.save_ms", "storage.load_ms", "storage.bytes_per_user_byte",
         "cold.first_query_ms", "cold.first_over_warm_x"),
        ("cold_ingest",)),
}


def measured_on(workload, metric: str) -> bool:
    return workload.name in SCOPED.get(metric, (workload.name,))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def the_count(values, name: str) -> float:
    """A count: identical on every operation, or the pass fails."""
    distinct = set(values)
    if len(distinct) > 1:
        raise Nondeterministic(f"{name} differs between operations of one "
                               f"run: {sorted(distinct)[:4]}")
    return distinct.pop() if distinct else 0.0


# -- A: workload-shaped operations ----------------------------------------------


def _note_execute(span, args, kwargs, result) -> None:
    span["query_id"] = kwargs.get("query_id")
    span["queue_s"] = result.metrics.queue_seconds
    span["spill_bytes"] = result.metrics.spill_bytes
    if result.trace is not None:
        span["engine"] = engine_layers(result.trace)


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder):
    with contextlib.ExitStack() as stack:
        for attr, name in LAYER_CALLS:
            stack.enter_context(recorder.wrap(repro.database, attr, name))
        stack.enter_context(recorder.wrap(
            repro.database.Database, "execute", "database.execute",
            note=_note_execute))
        yield


class Operations:
    """Runs operations under root spans and counts what failed."""

    def __init__(self, runner, recorder: SpanRecorder) -> None:
        self.runner = runner
        self.recorder = recorder
        self._numbers = itertools.count(1)  # next() is atomic
        self.failures = []

    @property
    def attempted(self) -> int:
        return sum(1 for span in self.recorder.spans
                   if span["name"] == "operation")

    def one(self, client: int, **tags) -> None:
        workload = self.runner.workload
        op = f"{workload.name}-{next(self._numbers)}"
        with self.recorder.span("operation", op=op, client=client,
                                **tags) as root:
            try:
                workload.operate(self.runner.state, client, self.recorder,
                                 trace=tags["traced"])
            except Exception as exc:  # a failed operation, counted
                root["error"] = type(exc).__name__
                self.failures.append(f"{type(exc).__name__}: {exc}")

    def round(self, clients: int, **tags) -> None:
        """One operation per client, all at once, as in the slices."""
        if clients == 1:
            return self.one(0, **tags)
        threads = [threading.Thread(target=self.one, args=(client,),
                                    kwargs=tags)
                   for client in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def shaped_operations(runner, recorder, seconds: float) -> dict:
    """Part A.  Returns the figures, how many operations were attempted
    and which failed, and the statement sum check."""
    workload = runner.workload
    operations = Operations(runner, recorder)
    with instrumented(recorder):
        deadline = time.perf_counter() + seconds * 0.3
        rounds = 0
        while rounds < MIN_OPERATIONS or time.perf_counter() < deadline:
            operations.round(workload.clients, traced=False, solo=False)
            operations.round(workload.clients, traced=True, solo=False)
            rounds += 1
        if workload.clients > 1:
            # The same script from one connection: what a statement costs
            # the engine when nothing else wants the engine lock.
            deadline = time.perf_counter() + seconds * 0.15
            solos = 0
            while solos < VARIANT_ROUNDS or time.perf_counter() < deadline:
                operations.one(0, traced=False, solo=True)
                solos += 1

    groups = {"untraced": [], "traced": [], "solo": []}
    for spans in recorder.by_operation().values():
        root = next(s for s in spans if s["name"] == "operation")
        if any(s.get("error") for s in spans):
            continue
        key = ("solo" if root["solo"]
               else "traced" if root["traced"] else "untraced")
        groups[key].append((root, spans))

    def layer(group: str, *names) -> float:
        return median(sum(total_ms(spans, name) for name in names)
                      for _, spans in groups[group])

    figures = {
        "query.parse_ms": layer("untraced", "query.parse"),
        "optimizer.bind_ms": layer("untraced", "optimizer.bind"),
        "optimizer.plan_ms": layer("untraced", "optimizer.optimize",
                                   "optimizer.plan_physical"),
        "engine.execute_plan_ms": layer("untraced", "engine.execute_plan"),
    }
    execute_ms = layer("untraced", "database.execute")
    figures["database.statement_overhead_ms"] = (
        execute_ms - sum(figures.values()))
    untraced_ms = median(duration_ms(root) for root, _ in groups["untraced"])
    traced_ms = median(duration_ms(root) for root, _ in groups["traced"])
    figures["tracing.overhead_share"] = ratio(traced_ms - untraced_ms,
                                              untraced_ms)
    figures.update(_engine_figures(groups["traced"]))
    figures.update(_resource_figures(groups["untraced"], recorder))
    if measured_on(workload, "server.ping_ms"):
        figures.update(_server_figures(runner, groups))
    if measured_on(workload, "storage.save_ms"):
        figures.update(_lifecycle_figures(groups["untraced"],
                                          workload.inputs))
    return {
        "figures": figures,
        "attempted": operations.attempted,
        "failures": operations.failures,
        "checks": {
            # parse + bind + plan + execute_plan + overhead is the p50 of
            # Database.execute by construction; the overhead must be >= 0.
            "statement_sum_ms": execute_ms,
            "statement_overhead_not_negative":
                figures["database.statement_overhead_ms"] >= 0.0,
        },
    }


#: metric → key of the per-operation sums (spans.ENGINE_KEYS plus the
#: ratios ``_engine_figures`` derives); times and ratios of times are
#: medians over operations, counts must be one value.
ENGINE_TIMES = {
    "fudj.input_ms": "input_ms",
    "fudj.summarize_ms": "summarize_ms",
    "fudj.partition_ms": "partition_ms",
    "fudj.combine_ms": "combine_ms",
    "fudj.combine_stage_ms": "combine_stage_ms",
    "fudj.cb_local_aggregate_ms": "local_aggregate_ms",
    "fudj.cb_assign_ms": "assign_ms",
    "fudj.cb_match_ms": "match_ms",
    "fudj.cb_verify_ms": "verify_ms",
    "fudj.summarize_tax_x": "summarize_tax",
    "fudj.partition_tax_x": "partition_tax",
    "fudj.combine_tax_x": "combine_tax",
    "exchange.wall_ms": "exchange_ms",
    "_fudj_sum_share": "phase_share",
}
ENGINE_COUNTS = {
    "fudj.assign_calls": "assign_calls",
    "fudj.match_calls": "match_calls",
    "fudj.verify_calls": "verify_calls",
    "fudj.replication_x": "replication",
    "fudj.verify_hit_ratio": "verify_hits",
    "fudj.match_hit_ratio": "match_hits",
    "exchange.bytes": "exchange_bytes",
    "exchange.records": "exchange_records",
}


def _engine_figures(traced) -> dict:
    """FUDJ phases, callbacks, exchanges: the engine traces of each
    traced operation summed key by key, the ratios taken per operation."""
    per_op = []
    for _, spans in traced:
        s = dict.fromkeys(ENGINE_KEYS, 0.0)
        for span in spans:
            for key, value in span.get("engine", {}).items():
                s[key] += value
        # COMBINE without its exchanges: the stage the kernels run in.
        s["combine_stage_ms"] = s["combine_ms"] - s["combine_exchange_ms"]
        # Engine tax: phase wall over the wall of the user's callbacks in it.
        s["summarize_tax"] = ratio(s["summarize_ms"], s["summarize_cb_ms"])
        s["partition_tax"] = ratio(s["partition_ms"], s["partition_cb_ms"])
        s["combine_tax"] = ratio(s["combine_stage_ms"], s["combine_cb_ms"])
        s["replication"] = ratio(s["assignments"], s["assign_records"])
        s["verify_hits"] = ratio(s["result_pairs"], s["verify_calls"])
        s["match_hits"] = ratio(s["verify_calls"], s["match_calls"])
        # input + SUMMARIZE + PARTITION + COMBINE over the fudj-join span
        s["phase_share"] = ratio(
            s["input_ms"] + s["summarize_ms"] + s["partition_ms"]
            + s["combine_ms"], s["join_ms"])
        per_op.append(s)
    figures = {metric: median(s[key] for s in per_op)
               for metric, key in ENGINE_TIMES.items()}
    figures.update((metric, the_count([s[key] for s in per_op], metric))
                   for metric, key in ENGINE_COUNTS.items())
    return figures


def _resource_figures(untraced, recorder) -> dict:
    executes = [span for _, spans in untraced for span in spans
                if span["name"] == "database.execute"]
    shed = sum(1 for span in recorder.spans
               if span.get("error") in ("shed", "AdmissionError"))
    return {
        "resources.queue_wait_ms": (
            statistics.fmean(s["queue_s"] for s in executes) * 1000.0
            if executes else 0.0),
        "resources.spill_bytes": the_count(
            [sum(s["spill_bytes"] for s in spans
                 if s["name"] == "database.execute")
             for _, spans in untraced], "resources.spill_bytes"),
        "resources.shed": float(shed),
    }


def _server_figures(runner, groups) -> dict:
    """The server's share of an operation."""
    figures = {}

    def per_op(group, fn) -> float:
        return median(fn(spans) for _, spans in groups[group])

    def engine_ms(spans):
        return total_ms(spans, "database.execute")

    connection = runner.state.clients[0]
    pings = []
    for _ in range(PINGS):
        started = time.perf_counter()
        connection.ping()
        pings.append((time.perf_counter() - started) * 1000.0)
    figures["server.ping_ms"] = median(pings)
    figures["server.wire_overhead_ms"] = per_op(
        "untraced", lambda spans: total_ms(spans, "client.query")
        - engine_ms(spans))
    figures["server.contention_wait_ms"] = (
        per_op("untraced", engine_ms) - per_op("solo", engine_ms))
    figures["server.reply_bytes_per_op"] = per_op(
        "untraced", lambda spans: sum(s.get("reply_bytes", 0)
                                      for s in spans))
    for name in STATEMENT_CLASSES:
        figures[f"client.{name}_p50_ms"] = median(
            duration_ms(span) for _, spans in groups["untraced"]
            for span in spans if span.get("statement") == name)
    return figures


def _lifecycle_figures(untraced, inputs) -> dict:
    """DDL, load, first query, save and reopen, from the spans
    ``cold_cycle`` records inside every ``cold_ingest`` operation."""
    rows = sum(len(rows) for rows in inputs.tables.values())

    def mid(name) -> float:
        return median(total_ms(spans, name) for _, spans in untraced)

    return {
        "database.ddl_ms": mid("database.ddl"),
        "database.load_ms": mid("database.load"),
        "database.load_rows_per_s": ratio(rows * 1000.0,
                                          mid("database.load")),
        "storage.save_ms": mid("storage.save"),
        "storage.load_ms": mid("storage.load"),
        "cold.first_query_ms": mid("cold.first_query"),
        "_disk_bytes": the_count(
            [span["disk_bytes"] for _, spans in untraced for span in spans
             if span["name"] == "storage.load"], "bytes on disk"),
    }


# -- B: one switch at a time, and the join library alone -------------------------


def standalone_phases(joins) -> dict:
    """SUMMARIZE, PARTITION and COMBINE of every join of the script
    through StandaloneRunner: the library's cost with no engine."""
    out = dict.fromkeys(("summarize", "partition", "combine"), 0.0)
    for join in joins:
        runner = StandaloneRunner(join.join_class(*join.arguments))
        clock = time.perf_counter
        t0 = clock()
        summary1 = runner.summarize(join.left_keys, JoinSide.LEFT)
        summary2 = runner.summarize(join.right_keys, JoinSide.RIGHT)
        pplan = runner.join.divide(summary1, summary2)
        t1 = clock()
        buckets1 = runner.partition(join.left_keys, pplan, JoinSide.LEFT)
        buckets2 = runner.partition(join.right_keys, pplan, JoinSide.RIGHT)
        t2 = clock()
        runner.combine(buckets1, buckets2, pplan)
        t3 = clock()
        out["summarize"] += (t1 - t0) * 1000.0
        out["partition"] += (t2 - t1) * 1000.0
        out["combine"] += (t3 - t2) * 1000.0
    return out


def variants(workload) -> dict:
    """Part B.  Every sample of a round is taken within a second or two
    of that round's default-settings sample, so a ratio of medians
    compares like with like on a host whose speed drifts."""
    inputs, script, expected = (workload.inputs, workload.script,
                                workload.expected)
    samples = defaultdict(list)

    def timed(db, name, **how) -> None:
        started = time.perf_counter()
        run_script(db, script, expected, **how)
        samples[name].append((time.perf_counter() - started) * 1000.0)

    embedded = measured_on(workload, "batch.batch_vs_row_x")
    with contextlib.ExitStack() as stack:
        db = stack.enter_context(contextlib.closing(build_database(inputs)))
        if embedded:
            pooled = stack.enter_context(
                contextlib.closing(build_database(inputs)))
            pooled.set_backend("process")  # the pool starts on first use
        for _ in range(VARIANT_ROUNDS + 1):
            timed(db, "default")
            timed(db, "cost", optimizer="cost")
            if embedded:
                db.set_execution("batch")
                timed(db, "batch")
                db.set_execution("row")
                timed(pooled, "process")
            timed(db, "builtin", mode="builtin")
            for phase, ms in standalone_phases(inputs.joins).items():
                samples[phase].append(ms)
    mid = {name: median(values[1:]) for name, values in samples.items()}
    library_ms = mid["summarize"] + mid["partition"] + mid["combine"]
    figures = {
        "optimizer.cost_vs_rule_x": ratio(mid["cost"], mid["default"]),
        "fig9.fudj_over_builtin_x": ratio(mid["default"], mid["builtin"]),
        "fig9.ontop_over_fudj_x": ratio(workload.ontop_ms, mid["default"]),
        "standalone.summarize_ms": mid["summarize"],
        "standalone.partition_ms": mid["partition"],
        "standalone.combine_ms": mid["combine"],
        "fudj.engine_vs_standalone_x": ratio(mid["default"], library_ms),
        "_warm_script_ms": mid["default"],
    }
    if embedded:
        figures["batch.batch_vs_row_x"] = ratio(mid["batch"], mid["default"])
        figures["workers.process_vs_serial_x"] = ratio(mid["process"],
                                                       mid["default"])
    return figures


# -- C: serde ----------------------------------------------------------------------


def serde_figures(workload) -> dict:
    """Per-record cost of sizing and of a serialize/deserialize round
    trip, over the workload's largest dataset; and the bytes the user's
    records come to, for ``storage.bytes_per_user_byte``."""
    with contextlib.closing(build_database(workload.inputs)) as db:
        datasets = {name: [record for partition
                           in db.cluster.dataset(name).partitions
                           for record in partition]
                    for name in workload.inputs.tables}
    records = max(datasets.values(), key=len)
    sizing, roundtrip = [], []
    for _ in range(VARIANT_ROUNDS):
        started = time.perf_counter()
        for record in records:
            record.serialized_size()
        sizing.append(time.perf_counter() - started)
        started = time.perf_counter()
        for record in records:
            buffer = bytearray()
            for value in record.values:
                serialize_value(value, buffer)
            offset = 0
            for _value in record.values:
                _, offset = deserialize_value(buffer, offset)
        roundtrip.append(time.perf_counter() - started)
    return {
        "serde.serialized_size_us": median(sizing) * 1e6 / len(records),
        "serde.roundtrip_us": median(roundtrip) * 1e6 / len(records),
        "_user_bytes": float(sum(record.serialized_size()
                                 for each in datasets.values()
                                 for record in each)),
    }


# -- the pass ----------------------------------------------------------------------


def traced_pass(runner, seconds: float, results_dir: str) -> dict:
    """All three parts for ``runner``'s workload.  Closes the runner's
    warm state after part A: part B forks a worker pool, which a process
    with live server threads must not do."""
    workload = runner.workload
    recorder = SpanRecorder()
    shaped = shaped_operations(runner, recorder, seconds)
    runner.close()
    figures = shaped["figures"]
    figures.update(variants(workload))
    figures.update(serde_figures(workload))
    if measured_on(workload, "storage.bytes_per_user_byte"):
        figures["storage.bytes_per_user_byte"] = ratio(
            figures["_disk_bytes"], figures["_user_bytes"])
        figures["cold.first_over_warm_x"] = ratio(
            figures["cold.first_query_ms"], figures["_warm_script_ms"])
    shaped["checks"]["fudj_sum_share"] = figures["_fudj_sum_share"]
    os.makedirs(results_dir, exist_ok=True)
    recorder.dump(os.path.join(results_dir, f"trace-{workload.name}.json"))
    return {"figures": {metric: value for metric, value in figures.items()
                        if not metric.startswith("_")},
            "not_applicable": [metric for metric in SCOPED
                               if not measured_on(workload, metric)],
            "checks": shaped["checks"],
            "attempted": shaped["attempted"],
            "failed": len(shaped["failures"]),
            "errors": shaped["failures"][:3]}
