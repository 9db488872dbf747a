"""An interactive SQL shell and script runner for the FUDJ database.

Usage::

    python -m repro                        # interactive shell
    python -m repro script.sql             # run a ;-separated script
    python -m repro --demo spatial         # preload a synthetic demo workload
    python -m repro --trace                # structured span tracing on
    python -m repro --inject-faults 7:0.05 # seeded fault injection
                                           # (SEED:RATE or
                                           #  SEED:CRASH:STRAGGLER:EXCHANGE)
    python -m repro --metrics-out m.json   # write the telemetry snapshot
                                           # on exit (.prom/.txt for
                                           # Prometheus text exposition)
    python -m repro --events-out e.jsonl   # tee every deterministic
                                           # engine event to a JSONL
                                           # file as it is emitted
    python -m repro --monitor-port 8088    # serve the read-only live
                                           # monitor (/healthz /metrics
                                           # /queries /events
                                           # /traces/<id>) on this port
    python -m repro serve --port 7878      # concurrent session server:
                                           # JSONL queries over TCP with
                                           # per-request deadlines,
                                           # cooperative cancellation,
                                           # per-tenant backpressure, and
                                           # graceful drain on SIGTERM
                                           # (--max-sessions N caps
                                           # concurrent sessions,
                                           # --drain-timeout S bounds the
                                           # drain wait; --port 0 binds
                                           # any free port and prints it)
    python -m repro --memory-budget 64kb   # per-worker memory budget:
                                           # over-budget operator state
                                           # spills to disk, admission
                                           # control activates
    python -m repro --backend process      # run COMBINE tasks on a
                                           # supervised pool of real
                                           # worker processes (serial is
                                           # the deterministic default)
    python -m repro --execution batch      # vectorized batch-at-a-time
                                           # operators (row is the
                                           # default; rows and metrics
                                           # stay byte-identical)
    python -m repro --optimizer cost       # stats-driven join ordering
                                           # and physical operator
                                           # selection (rule is the
                                           # deterministic default)

Inside the shell, statements end with ``;``.  Dot-commands control the
session:

    .mode fudj|builtin|ontop    execution mode for joins
    .dedup avoidance|elimination|none|default
    .faults SEED:RATE|off|show  seeded fault injection for this session
    .onerror fail|skip|quarantine  poison-record policy for FUDJ callbacks
    .trace on|off|show|save <path>  structured span tracing: print the
                                phase/callback tree and skew report after
                                each query, re-show the last trace, or
                                export it as a Chrome/Perfetto JSON file
    .metrics show|save <path>|reset  the telemetry registry: print the
                                Prometheus text exposition, save a
                                snapshot (JSON, or Prometheus for
                                .prom/.txt paths), or zero the counters
                                and clear the query history
    .events [n]|save <path>|clear  the structured event log: print the
                                newest n events (default 10) as
                                canonical JSON lines, save the retained
                                deterministic stream as JSONL, or drop
                                the retained events
    .budget <bytes>|off|show    per-worker memory budget (e.g. 64kb,
                                2mb): over-budget operator state spills
                                to temp files and is charged through
                                the cost model; admission control
                                activates while a budget is set
    .breaker show|reset [name]  circuit-breaker state for FUDJ join
                                libraries: open/closed per library,
                                trip and rejection counts; reset closes
                                one library (or all) again
    .backend serial|process|show  execution backend: serial (simulated
                                workers, deterministic) or process (a
                                supervised pool of real worker processes
                                that crash, straggle, and recover; rows
                                stay byte-identical to serial)
    .exec row|batch|show        execution granularity: row (record at a
                                time) or batch (operators exchange
                                columnar record batches and run
                                vectorized kernels; rows and
                                deterministic metrics stay
                                byte-identical to row mode)
    .opt rule|cost|show         query optimizer: rule (written join
                                order, partitioned hash joins) or cost
                                (pessimistic cardinality bounds drive
                                join ordering and hash vs. broadcast
                                selection; EXPLAIN shows the bounds and
                                sys.plans records them per query)
    .demo spatial|interval|text load a synthetic demo workload
    .save <dir>                 persist the database to disk
    .open <dir>                 load a database saved with .save
    .datasets                   list datasets
    .joins                      list installed joins
    .timing on|off              print per-query timings
    .help                       this text
    .quit                       exit

With faults active, ``EXPLAIN ANALYZE <query>;`` shows the retry /
straggler / quarantine counters and the simulated recovery overhead.
``EXPLAIN ANALYZE`` always includes the span trace tree and skew
diagnostics, whatever ``.trace`` is set to.
"""

from __future__ import annotations

import argparse
import sys

from repro.database import Database
from repro.engine.faults import FaultPlan
from repro.errors import ReproError

_HELP = __doc__.split("Inside the shell", 1)[1]
_MAX_ROWS = 40


class Shell:
    """The shell engine, decoupled from stdin/stdout for testability.

    Args:
        db: the database to run against (a fresh one by default).
        write: sink for output lines (defaults to ``print``).
    """

    def __init__(self, db: Database = None, write=print) -> None:
        self.db = db or Database()
        self.write = write
        self.mode = "fudj"
        self.dedup = None
        self.timing = True
        self.trace = False
        self.last_trace = None
        self._buffer = []

    # -- line-oriented driver ------------------------------------------------------

    def feed(self, line: str) -> bool:
        """Process one input line; returns False when the shell should
        exit."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("."):
            return self._dot_command(stripped)
        if not stripped:
            return True
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            self.run_statement(statement)
        return True

    def run_script(self, text: str) -> None:
        """Execute a whole ;-separated script."""
        for line in text.splitlines():
            if not self.feed(line):
                break
        if self._buffer:
            self.run_statement("\n".join(self._buffer))
            self._buffer = []

    # -- statements -------------------------------------------------------------------

    def run_statement(self, sql: str) -> None:
        try:
            result = self.db.execute(sql, mode=self.mode, dedup=self.dedup,
                                     trace=self.trace)
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        except Exception as exc:  # defensive: never dump a traceback
            self.write(f"internal error ({type(exc).__name__}): {exc}")
            return
        if result.trace is not None:
            self.last_trace = result.trace
        self._print_result(result)
        if self.trace and result.trace is not None:
            self.write(result.trace.render())
            skew = result.trace.skew_report()
            if skew:
                self.write(skew)

    def _print_result(self, result) -> None:
        if result.schema == ("plan",):
            for row in result.rows:
                self.write(row["plan"])
        elif result.schema:
            from repro.bench.harness import format_table

            rows = [
                [row[name] for name in result.schema]
                for row in result.rows[:_MAX_ROWS]
            ]
            self.write(format_table(list(result.schema), rows))
            if len(result.rows) > _MAX_ROWS:
                self.write(f"... ({len(result.rows) - _MAX_ROWS} more rows)")
        else:
            self.write("ok")
        if self.timing and result.metrics.wall_seconds:
            from repro.query.printer import render_timing_line

            self.write(render_timing_line(
                result, result.cores or self.db.cluster.cores
            ))

    # -- dot commands ------------------------------------------------------------------

    def _dot_command(self, command: str) -> bool:
        parts = command.split()
        name, args = parts[0], parts[1:]
        if name in (".quit", ".exit"):
            return False
        if name == ".help":
            self.write(_HELP)
        elif name == ".mode":
            if args and args[0] in ("fudj", "builtin", "ontop"):
                self.mode = args[0]
                self.write(f"mode = {self.mode}")
            else:
                self.write("usage: .mode fudj|builtin|ontop")
        elif name == ".dedup":
            if args and args[0] in ("avoidance", "elimination", "none",
                                    "default"):
                self.dedup = None if args[0] == "default" else args[0]
                self.write(f"dedup = {args[0]}")
            else:
                self.write("usage: .dedup avoidance|elimination|none|default")
        elif name == ".faults":
            if not args or args[0] == "show":
                plan = self.db.fault_plan
                self.write(
                    "faults = off" if plan is None
                    else f"faults = {plan.describe()}"
                )
            elif args[0] == "off":
                self.db.fault_plan = None
                self.write("faults = off")
            else:
                try:
                    self.db.fault_plan = args[0]
                except ReproError as exc:
                    self.write(f"error: {exc}")
                else:
                    self.write(f"faults = {self.db.fault_plan.describe()}")
        elif name == ".onerror":
            if args and args[0] in ("fail", "skip", "quarantine"):
                self.db.on_error = args[0]
                self.write(f"on_error = {args[0]}")
            else:
                self.write("usage: .onerror fail|skip|quarantine")
        elif name == ".trace":
            if args and args[0] in ("on", "off"):
                self.trace = args[0] == "on"
                self.write(f"trace = {args[0]}")
            elif args and args[0] == "show":
                if self.last_trace is None:
                    self.write("no trace recorded yet; .trace on and run "
                               "a query")
                else:
                    self.write(self.last_trace.render())
                    skew = self.last_trace.skew_report()
                    if skew:
                        self.write(skew)
            elif len(args) == 2 and args[0] == "save":
                if self.last_trace is None:
                    self.write("no trace recorded yet; .trace on and run "
                               "a query")
                else:
                    try:
                        self.last_trace.to_chrome_trace(args[1])
                    except OSError as exc:
                        self.write(f"error: cannot write trace: {exc}")
                    else:
                        self.write(f"trace saved to {args[1]} "
                                   "(open in chrome://tracing or Perfetto)")
            else:
                self.write("usage: .trace on|off|show|save <path>")
        elif name == ".metrics":
            if not args or args[0] == "show":
                self.write(self.db.metrics_snapshot("prometheus"))
            elif args[0] == "reset":
                self.db.telemetry.reset()
                self.write("metrics reset (counters zeroed, history "
                           "cleared)")
            elif len(args) == 2 and args[0] == "save":
                try:
                    _write_metrics(self.db, args[1])
                except OSError as exc:
                    self.write(f"error: cannot write metrics: {exc}")
                else:
                    self.write(f"metrics saved to {args[1]}")
            else:
                self.write("usage: .metrics show|save <path>|reset")
        elif name == ".events":
            log = self.db.telemetry.events
            if not args or args[0].isdigit():
                count = int(args[0]) if args else 10
                tail = log.tail(count)
                if not tail:
                    self.write("no events recorded yet")
                for event in tail:
                    self.write(event.to_line())
            elif args[0] == "clear":
                log.clear()
                self.write("events cleared")
            elif len(args) == 2 and args[0] == "save":
                try:
                    with open(args[1], "w") as handle:
                        handle.write(log.to_jsonl())
                except OSError as exc:
                    self.write(f"error: cannot write events: {exc}")
                else:
                    self.write(f"events saved to {args[1]}")
            else:
                self.write("usage: .events [n]|save <path>|clear")
        elif name == ".budget":
            from repro.engine.resources import format_bytes

            if not args or args[0] == "show":
                self.write(f"budget = {format_bytes(self.db.memory_budget)}")
            else:
                try:
                    self.db.set_memory_budget(args[0])
                except ReproError as exc:
                    self.write(f"error: {exc}")
                else:
                    self.write(
                        f"budget = {format_bytes(self.db.memory_budget)}"
                    )
        elif name == ".breaker":
            breaker = self.db.breaker
            if breaker is None:
                self.write("breaker = off (pass breaker_threshold= to "
                           "Database to enable)")
            elif not args or args[0] == "show":
                state = breaker.snapshot()
                self.write(f"breaker threshold = {state['threshold']}")
                self.write(
                    "open libraries: "
                    + (", ".join(state["open"]) if state["open"] else "none")
                )
                self.write(f"trips = {state['trips']}, "
                           f"rejections = {state['rejections']}")
                for join_name, count in sorted(state["failures"].items()):
                    self.write(f"  {join_name}: {count} consecutive "
                               "failures")
            elif args[0] == "reset":
                breaker.reset(args[1] if len(args) > 1 else None)
                target = args[1] if len(args) > 1 else "all libraries"
                self.write(f"breaker reset ({target})")
            else:
                self.write("usage: .breaker show|reset [name]")
        elif name == ".backend":
            if not args or args[0] == "show":
                line = f"backend = {self.db.backend}"
                pool = self.db.worker_pool
                if pool is not None:
                    line += f" ({pool.describe()})"
                self.write(line)
            elif args[0] in ("serial", "process"):
                self.db.set_backend(args[0])
                self.write(f"backend = {self.db.backend}")
            else:
                self.write("usage: .backend serial|process|show")
        elif name == ".exec":
            if not args or args[0] == "show":
                self.write(f"execution = {self.db.execution}")
            elif args[0] in ("row", "batch"):
                self.db.set_execution(args[0])
                self.write(f"execution = {self.db.execution}")
            else:
                self.write("usage: .exec row|batch|show")
        elif name == ".opt":
            if not args or args[0] == "show":
                self.write(f"optimizer = {self.db.optimizer}")
            elif args[0] in ("rule", "cost"):
                self.db.set_optimizer(args[0])
                self.write(f"optimizer = {self.db.optimizer}")
            else:
                self.write("usage: .opt rule|cost|show")
        elif name == ".timing":
            if args and args[0] in ("on", "off"):
                self.timing = args[0] == "on"
                self.write(f"timing = {args[0]}")
            else:
                self.write("usage: .timing on|off")
        elif name == ".datasets":
            for dataset in self.db.catalog.dataset_names():
                count = len(self.db.cluster.dataset(dataset))
                self.write(f"{dataset}  ({count} records)")
        elif name == ".joins":
            for join_name in self.db.joins.names():
                self.write(str(self.db.joins.signature(join_name)))
        elif name == ".demo":
            self._load_demo(args[0] if args else "spatial")
        elif name == ".save":
            if not args:
                self.write("usage: .save <dir>")
            else:
                from repro.storage import save_database

                save_database(self.db, args[0])
                self.write(f"saved to {args[0]}")
        elif name == ".open":
            if not args:
                self.write("usage: .open <dir>")
            else:
                from repro.storage import load_database

                try:
                    self.db = load_database(args[0])
                except ReproError as exc:
                    self.write(f"error: {exc}")
                else:
                    self.write(f"opened {args[0]}")
                    self._dot_command(".datasets")
        else:
            self.write(f"unknown command {name!r}; try .help")
        return True

    def _load_demo(self, which: str) -> None:
        """Replace the session database with a loaded demo workload."""
        from repro.bench import workloads

        builders = {
            "spatial": lambda: workloads.spatial_database(200, 2000),
            "interval": lambda: workloads.interval_database(2000),
            "text": lambda: workloads.text_database(1500),
        }
        builder = builders.get(which)
        if builder is None:
            self.write("usage: .demo spatial|interval|text")
            return
        previous = self.db
        self.db = builder()
        # Demo databases are freshly built; the session's fault-tolerance
        # and resource-governance posture carries over.
        self.db.fault_plan = previous.fault_plan
        self.db.on_error = previous.on_error
        self.db.query_timeout = previous.query_timeout
        if previous.memory_budget is not None:
            self.db.set_memory_budget(previous.memory_budget)
        self.db.breaker = previous.breaker
        self.db.workers = previous.workers
        self.db.set_backend(previous.backend)
        self.db.set_execution(previous.execution)
        self.db.set_optimizer(previous.optimizer)
        # Observability carries over too: the event sink continues the
        # same file (append), and the monitor re-binds its port to the
        # new database.
        sink_path = previous.telemetry.events.sink_path
        monitor = previous.monitor
        monitor_port = monitor.port if monitor is not None else None
        previous.close()  # release the old pool, monitor, and sink
        if sink_path is not None:
            self.db.telemetry.events.attach_sink(sink_path, append=True)
        if monitor_port is not None:
            self.db.serve_monitor(monitor_port)
        queries = {
            "spatial": workloads.SPATIAL_SQL,
            "interval": workloads.INTERVAL_SQL,
            "text": workloads.TEXT_SQL.format(threshold=0.9),
        }
        self.write(f"loaded the {which} demo; datasets:")
        self._dot_command(".datasets")
        self.write("try:")
        self.write(f"  {queries[which]};")


def _write_metrics(db: Database, path: str) -> None:
    """Write the telemetry snapshot to ``path``; the extension picks the
    format (``.prom``/``.txt`` → Prometheus text exposition, else JSON)."""
    fmt = ("prometheus" if path.endswith((".prom", ".txt")) else "json")
    with open(path, "w") as handle:
        handle.write(db.metrics_snapshot(fmt))


class _UsageError(Exception):
    """A command line the shell cannot run; the message is the report."""


class _FlagParser(argparse.ArgumentParser):
    """``argparse`` with the shell's contract for a bad command line: one
    line on stderr and exit status 1 (:meth:`error` would print a usage
    block and exit 2).  The usage text is the module docstring."""

    def error(self, message: str):
        raise _UsageError(message)


def _count(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError("needs a whole number")
    return int(text)


def _seconds(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        seconds = -1.0
    if not seconds >= 0:
        raise argparse.ArgumentTypeError("needs a number of seconds")
    return seconds


def _fault_plan(text: str) -> FaultPlan:
    try:
        return FaultPlan.parse(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_flags(argv: list) -> argparse.Namespace:
    """The command line as a namespace; ``serve`` as the first word
    selects the session server and is what admits its three flags."""
    parser = _FlagParser(prog="python -m repro", add_help=False,
                         allow_abbrev=False)
    parser.add_argument("--demo", nargs="?", const="spatial")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject-faults", type=_fault_plan)
    parser.add_argument("--metrics-out")
    parser.add_argument("--events-out")
    parser.add_argument("--monitor-port", type=_count)
    parser.add_argument("--memory-budget")
    parser.add_argument("--backend", choices=("serial", "process"))
    parser.add_argument("--execution", choices=("row", "batch"))
    parser.add_argument("--optimizer", choices=("rule", "cost"))
    serve = argv[:1] == ["serve"]
    if serve:
        parser.add_argument("--port", type=_count, default=0)
        parser.add_argument("--max-sessions", type=_count, default=8)
        parser.add_argument("--drain-timeout", type=_seconds, default=5.0)
    else:
        parser.add_argument("script", nargs="?")
    parser.set_defaults(serve=serve)
    return parser.parse_args(argv[1:] if serve else argv)


def main(argv=None) -> int:
    """CLI entry point."""
    try:
        flags = _parse_flags(list(sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        shell = Shell(db=Database(fault_plan=flags.inject_faults,
                                  memory_budget=flags.memory_budget,
                                  backend=flags.backend,
                                  execution=flags.execution,
                                  optimizer=flags.optimizer,
                                  event_log=flags.events_out))
    except ReproError as exc:
        print(f"bad --memory-budget value: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot open --events-out path: {exc}", file=sys.stderr)
        return 1
    shell.trace = flags.trace
    if flags.monitor_port is not None:
        try:
            monitor = shell.db.serve_monitor(flags.monitor_port)
        except OSError as exc:
            print(f"cannot start monitor on port {flags.monitor_port}: "
                  f"{exc}", file=sys.stderr)
            return 1
        print(f"monitor serving on {monitor.url} "
              "(/healthz /metrics /queries /events /traces/<id>)")
    if flags.events_out is not None:
        print(f"event log streaming to {flags.events_out}")
    if shell.db.backend == "process":
        print("process backend active: COMBINE tasks run on a supervised "
              "worker-process pool")
    if shell.db.execution == "batch":
        print("batch execution active: operators run vectorized kernels "
              "over columnar record batches")
    if shell.db.optimizer == "cost":
        print("cost optimizer active: stats-driven join ordering and "
              "physical operator selection")
    if flags.inject_faults is not None:
        print("fault injection active: "
              f"{flags.inject_faults.describe()}")
    if shell.db.memory_budget is not None:
        from repro.engine.resources import format_bytes

        print("memory budget active: "
              f"{format_bytes(shell.db.memory_budget)} per worker "
              "(over-budget state spills to disk)")
    if flags.trace:
        print("tracing active: span tree printed after each query")
    if flags.demo is not None:
        shell._load_demo(flags.demo)
    if flags.serve:
        return _serve(shell.db, flags.port, flags.max_sessions,
                      flags.drain_timeout, flags.metrics_out)
    if flags.script is not None:
        try:
            with open(flags.script) as handle:
                shell.run_script(handle.read())
        except OSError as exc:
            print(f"cannot read script: {exc}", file=sys.stderr)
            return 1
        return _finish(shell.db, flags.metrics_out)
    print("FUDJ shell — statements end with ';', .help for commands")
    try:
        while True:
            prompt = "fudj> " if not shell._buffer else "  ... "
            try:
                line = input(prompt)
            except EOFError:
                break
            if not shell.feed(line):
                break
    except KeyboardInterrupt:
        pass
    return _finish(shell.db, flags.metrics_out)


def _serve(db: Database, port: int, max_sessions: int,
           drain_timeout: float, metrics_out: str) -> int:
    """Run the concurrent session server until SIGTERM/SIGINT, then
    drain gracefully: stop accepting, let in-flight queries finish
    within the drain budget, cancel stragglers, and exit 0."""
    import signal
    import threading

    from repro.errors import ServerError

    try:
        server = db.serve(port=port, max_sessions=max_sessions,
                          drain_timeout=drain_timeout)
    except ServerError as exc:
        print(f"cannot start session server: {exc}", file=sys.stderr)
        return 1
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    print(f"session server listening on {server.host}:{server.port} "
          f"(max {max_sessions} sessions, "
          f"drain timeout {drain_timeout:.1f}s)", flush=True)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    print("draining: refusing new work, waiting for in-flight queries",
          flush=True)
    db.close()  # graceful drain, then pool/monitor/sink teardown
    if _finish(db, metrics_out):
        return 1
    print("session server stopped cleanly", flush=True)
    return 0


def _finish(db: Database, metrics_out: str) -> int:
    """Flush the exit-time telemetry snapshot (``.demo``/``.open`` swap
    ``shell.db``, so a shell passes its session's final database)."""
    if metrics_out is None:
        return 0
    try:
        _write_metrics(db, metrics_out)
    except OSError as exc:
        print(f"cannot write metrics: {exc}", file=sys.stderr)
        return 1
    print(f"metrics written to {metrics_out}")
    return 0
