"""Observability overhead + the Figure 9 phase breakdown from traces.

Two experiments over the Figure 9 workloads:

1. *Tracing overhead* — the tracer never charges work to the cost
   model, so the simulated makespan must be **identical** with tracing
   on and off (target: <= 5% of the trace-off makespan; achieved: 0%).
   What recording spans costs on a stopwatch is not measured here: that
   is ``tracing.overhead_share`` in ``perf/``.
2. *Phase breakdown* — a traced run of each workload reproduces the
   paper's Fig 9-style split: how much of the FUDJ join's work lands in
   SUMMARIZE vs PARTITION vs COMBINE, and inside them, how much is user
   callbacks (``verify``, ``assign``, ...) vs engine shuffle.

Shape targets:
- simulated makespan with tracing on == makespan with tracing off, on
  every workload (the <= 5% acceptance bound with margin to spare);
- the traced span tree's units sum exactly to the metrics' total CPU
  units (no double counting);
- COMBINE dominates on every workload (verification is the expensive
  phase, as in the paper).
"""

from repro.bench import (
    INTERVAL_SQL,
    SPATIAL_SQL,
    TEXT_SQL,
    format_table,
    interval_database,
    spatial_database,
    text_database,
)

CORES = 12

WORKLOADS = (
    ("spatial", lambda: spatial_database(400, 6000, partitions=8, grid_n=32,
                                         seed=7), SPATIAL_SQL),
    ("interval", lambda: interval_database(3000, partitions=8, num_buckets=200,
                                           seed=7), INTERVAL_SQL),
    ("text", lambda: text_database(2000, partitions=8, seed=7),
     TEXT_SQL.format(threshold=0.9)),
)


def run(make_db, sql, trace):
    return make_db().execute(sql, mode="fudj", measure_bytes=False,
                             trace=trace)


class TestTracingOverhead:
    """Experiment 1: tracing must not move the simulated makespan."""

    def test_makespan_unchanged_with_tracing(self, report, benchmark):
        rows = []
        for name, make_db, sql in WORKLOADS:
            plain = run(make_db, sql, trace=False)
            traced = run(make_db, sql, trace=True)
            assert plain.trace is None and traced.trace is not None
            assert traced.rows == plain.rows
            sim_off = plain.metrics.simulated_seconds(CORES)
            sim_on = traced.metrics.simulated_seconds(CORES)
            overhead = sim_on / sim_off - 1.0
            # The acceptance bound is 5%; the design point is exactly 0:
            # spans mirror charges, they never add any.
            assert abs(overhead) <= 0.05
            assert sim_on == sim_off
            rows.append([name, f"{sim_off:.4f}", f"{sim_on:.4f}",
                         f"{overhead * 100:.2f}%"])
        report("observability_overhead", format_table(
            ["workload", f"sim s off ({CORES}c)", f"sim s on ({CORES}c)",
             "sim overhead"],
            rows,
            title="Observability 1: tracing overhead (simulated makespan "
                  "must not move)",
        ))
        benchmark(lambda: run(*WORKLOADS[0][1:], trace=False))


class TestPhaseBreakdown:
    """Experiment 2: the Fig 9-style SUMMARIZE/PARTITION/COMBINE split."""

    def test_phase_breakdown(self, report, benchmark):
        rows = []
        for name, make_db, sql in WORKLOADS:
            result = run(make_db, sql, trace=True)
            trace = result.trace
            # The whole tree accounts for every charged unit, exactly.
            assert abs(trace.total_units()
                       - result.metrics.total_cpu_units()) < 1e-6
            fudj = next(s for s in trace.walk()
                        if s.name.startswith("fudj-join"))
            # The join subtree also contains its input operators (the
            # scans/projects feeding it); the phase split covers what is
            # left — the join's own work.
            inputs = sum(c.total_units() for c in fudj.children
                         if c.kind == "operator")
            total = fudj.total_units() - inputs
            phases = {c.name: c.total_units() for c in fudj.children
                      if c.kind == "phase"}
            assert set(phases) == {"SUMMARIZE", "PARTITION", "COMBINE"}
            # The three phases plus the operator's own residue must add
            # up to the join's work — nothing leaks, nothing is counted
            # twice.
            assert abs(sum(phases.values()) + fudj.units - total) < 1e-6
            callbacks = sum(s.total_units() for s in fudj.walk()
                            if s.kind == "callback")
            exchanges = sum(s.total_units() for s in fudj.walk()
                            if s.kind == "exchange")
            assert phases["COMBINE"] >= max(phases["SUMMARIZE"],
                                            phases["PARTITION"])
            rows.append([
                name, f"{total:.0f}",
                f"{phases['SUMMARIZE'] / total:.1%}",
                f"{phases['PARTITION'] / total:.1%}",
                f"{phases['COMBINE'] / total:.1%}",
                f"{callbacks / total:.1%}",
                f"{exchanges / total:.1%}",
            ])
        report("observability_phase_breakdown", format_table(
            ["workload", "join units", "SUMMARIZE", "PARTITION", "COMBINE",
             "user callbacks", "exchanges"],
            rows,
            title="Observability 2: Fig 9-style phase breakdown of the "
                  "FUDJ join (share of charged units)",
        ))
        benchmark(lambda: run(*WORKLOADS[0][1:], trace=True))


def main(argv=None) -> int:
    """Standalone run: execute the three workloads into one shared
    telemetry hub and optionally write its snapshot.

    ``--metrics-out <path>`` picks the format by extension
    (``.prom``/``.txt`` -> Prometheus text exposition, else canonical
    JSON).  CI runs this and uploads the snapshot as a build artifact,
    so a regression in the metrics surface shows up as an artifact diff.
    """
    import sys

    from repro.engine.telemetry import Telemetry

    args = list(sys.argv[1:] if argv is None else argv)
    out = None
    if "--metrics-out" in args:
        at = args.index("--metrics-out")
        if at + 1 >= len(args):
            print("--metrics-out needs a path", file=sys.stderr)
            return 1
        out = args[at + 1]
    hub = Telemetry()
    for name, make_db, sql in WORKLOADS:
        db = make_db()
        # All three databases record into one hub so the snapshot covers
        # the whole run (sys.* tables keep pointing at each db's own
        # telemetry; only recording is redirected).
        db.telemetry = hub
        result = db.execute(sql, mode="fudj", measure_bytes=False,
                            trace=True)
        print(f"{name}: {len(result.rows)} rows, "
              f"{result.metrics.total_cpu_units():.0f} units, "
              f"{result.metrics.simulated_seconds(CORES) * 1000:.2f} "
              f"simulated ms on {CORES} cores")
    if out is not None:
        fmt = ("prometheus" if out.endswith((".prom", ".txt")) else "json")
        with open(out, "w") as handle:
            handle.write(hub.snapshot(fmt))
        print(f"metrics snapshot ({fmt}) written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
