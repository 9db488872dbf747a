"""Figure 9 reproduction: FUDJ vs Built-in vs On-top across data sizes.

Three subplots in the paper — spatial (n=1200), interval (n=1000), and
text similarity (t=0.9) — each sweeping the record count and reporting
query time per implementation method.  On-top rows beyond the cutoff are
skipped and flagged, reproducing the paper's 4000-second timeout rule
("the setup is not scalable for processing the query").

Shape targets:
- on-top is one to three orders of magnitude slower and hits the cutoff
  first;
- FUDJ tracks built-in with a small overhead (the translation layer).

Run directly, this file is also the CI performance gate::

    python benchmarks/bench_fig9_performance.py --check-baseline

re-measures the Fig 9 workloads in row *and* batch execution and fails
if charged cpu units drift more than 2% from the checked-in
``benchmarks/results/baseline_units.json``, if batch mode loses row
parity, or if batch mode amortizes fewer than 3 rows per operator
invocation relative to row mode.  ``--write-baseline`` refreshes the
baseline after an intentional cost-model change.
"""

import json
import os
import sys

import pytest

from repro.bench import (
    INTERVAL_SQL,
    SPATIAL_SQL,
    TEXT_SQL,
    format_table,
    interval_database,
    spatial_database,
    text_database,
)
from repro.bench.harness import run_query

CORES = 12
#: Sizes past which the on-top NLJ is declared non-scalable (the paper's
#: timeout analogue, scaled to laptop wall-clock).
ONTOP_CUTOFF = {"spatial": 6000, "interval": 2000, "text": 1500}


def sweep(name, make_db, sql, sizes, report):
    from repro.bench.ascii_chart import series_chart

    rows = []
    checks = {}
    for size in sizes:
        db = make_db(size)
        per_mode = {}
        for mode in ("fudj", "builtin", "ontop"):
            if mode == "ontop" and size > ONTOP_CUTOFF[name]:
                rows.append([size, mode, "(not scalable)", "-", "-"])
                continue
            row = run_query(db, sql, mode, cores=(CORES,))
            per_mode[mode] = row
            rows.append([
                size, mode, row[f"sim_{CORES}c"], row["comparisons"],
                row["result_rows"],
            ])
        checks[size] = per_mode
    table = format_table(
        ["records", "mode", f"sim s ({CORES} cores)", "predicate evals", "rows"],
        rows,
        title=f"Figure 9{dict(spatial='a', interval='b', text='c')[name]} "
              f"(reproduced): {name} join performance vs data size",
    )
    series = {
        mode: [checks[size].get(mode, {}).get(f"sim_{CORES}c") for size in sizes]
        for mode in ("fudj", "builtin", "ontop")
    }
    chart = series_chart(
        sizes, series, log_y=True, x_label="records", y_label="sim s",
        title="shape: on-top diverges, FUDJ tracks built-in",
    )
    report(f"fig9_{name}", table + "\n\n" + chart)
    return checks


class TestFig9Spatial:
    def test_sweep(self, report, benchmark):
        def make_db(size):
            return spatial_database(max(40, size // 12), size, partitions=8,
                                    grid_n=32, seed=size)

        checks = sweep("spatial", make_db, SPATIAL_SQL,
                       [1000, 3000, 6000, 12000], report)
        for size, per_mode in checks.items():
            if "ontop" in per_mode:
                assert (per_mode["ontop"][f"sim_{CORES}c"]
                        > 5 * per_mode["fudj"][f"sim_{CORES}c"])
            # FUDJ within 3x of built-in (paper: nearly identical).
            assert (per_mode["fudj"][f"sim_{CORES}c"]
                    < 3 * per_mode["builtin"][f"sim_{CORES}c"])
        benchmark(lambda: run_query(
            spatial_database(250, 3000, partitions=8, grid_n=32, seed=3000),
            SPATIAL_SQL, "fudj", cores=(CORES,),
        ))


class TestFig9Interval:
    def test_sweep(self, report, benchmark):
        def make_db(size):
            return interval_database(size, partitions=8, num_buckets=200,
                                     seed=size)

        checks = sweep("interval", make_db, INTERVAL_SQL,
                       [500, 1000, 2000, 4000], report)
        for size, per_mode in checks.items():
            if "ontop" in per_mode:
                assert (per_mode["ontop"]["comparisons"]
                        > 3 * per_mode["fudj"]["comparisons"])
        benchmark(lambda: run_query(
            interval_database(1000, partitions=8, num_buckets=200, seed=1000),
            INTERVAL_SQL, "fudj", cores=(CORES,),
        ))


class TestFig9Text:
    def test_sweep(self, report, benchmark):
        sql = TEXT_SQL.format(threshold=0.9)

        def make_db(size):
            return text_database(size, partitions=8, seed=size)

        checks = sweep("text", make_db, sql, [400, 800, 1500, 3000], report)
        for size, per_mode in checks.items():
            if "ontop" in per_mode:
                assert (per_mode["ontop"][f"sim_{CORES}c"]
                        > 2 * per_mode["fudj"][f"sim_{CORES}c"])
        benchmark(lambda: run_query(
            text_database(800, partitions=8, seed=800), sql, "fudj",
            cores=(CORES,),
        ))


class TestFig9Overhead:
    """The §VII-B overhead analysis: FUDJ-minus-built-in per record."""

    def test_translation_overhead_per_record(self, report, benchmark):
        rows = []
        for name, db, sql in (
            ("spatial", spatial_database(250, 3000, partitions=8, grid_n=32),
             SPATIAL_SQL),
            ("interval", interval_database(1500, partitions=8, num_buckets=200),
             INTERVAL_SQL),
            ("text", text_database(1200, partitions=8),
             TEXT_SQL.format(threshold=0.9)),
        ):
            fudj = run_query(db, sql, "fudj", cores=(CORES,))
            builtin = run_query(db, sql, "builtin", cores=(CORES,))
            records = len(list(db.cluster.dataset(db.catalog.dataset_names()[0])
                               .scan())) or 1
            delta = fudj[f"sim_{CORES}c"] - builtin[f"sim_{CORES}c"]
            rows.append([
                name,
                fudj[f"sim_{CORES}c"],
                builtin[f"sim_{CORES}c"],
                f"{max(0.0, delta) * 1000:.3f} ms total",
                fudj["result"].metrics.translation_conversions,
            ])
        report("fig9_overhead", format_table(
            ["join", "FUDJ sim s", "Built-in sim s", "overhead",
             "boundary conversions"],
            rows,
            title="SVII-B (reproduced): FUDJ framework overhead vs built-in",
        ))
        benchmark(lambda: None)


# -- CI performance gate --------------------------------------------------------
#
# ``--check-baseline`` re-measures the Fig 9 workloads (at test sizes,
# so the gate runs in seconds) in both execution granularities and
# compares against the checked-in baseline.

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results",
    "baseline_units.json",
)
#: Allowed relative drift in charged cpu units before the gate fails.
UNITS_TOLERANCE = 0.02
#: Batch mode must amortize at least this many rows per operator
#: invocation relative to row mode (the tentpole's headline win).
MIN_AMORTIZATION = 3.0

GATE_WORKLOADS = (
    ("spatial", lambda: spatial_database(25, 120), SPATIAL_SQL),
    ("interval", lambda: interval_database(120), INTERVAL_SQL),
    ("text", lambda: text_database(80), TEXT_SQL.format(threshold=0.9)),
)


def _measure_workload(name, make_db, sql) -> dict:
    """Row vs batch measurement of one workload: charged units, operator
    invocations, batch counts, and a row-parity fingerprint."""
    out = {"name": name}
    rows_by_mode = {}
    for execution in ("row", "batch"):
        db = make_db()
        db.set_execution(execution)
        result = db.execute(sql, mode="fudj")
        metrics = result.metrics.to_dict(CORES)
        rows_by_mode[execution] = sorted(
            tuple(sorted(row.items())) for row in result.rows
        )
        out[execution] = {
            "cpu_units": metrics["cpu_units"],
            "network_bytes": metrics["network_bytes"],
            "operator_invocations": metrics["operator_invocations"],
            "batches": metrics["batches"],
            "result_rows": len(result.rows),
            "sim_seconds": metrics["simulated_seconds"],
        }
    out["rows_match"] = rows_by_mode["row"] == rows_by_mode["batch"]
    out["amortization"] = (
        out["row"]["operator_invocations"]
        / max(1, out["batch"]["operator_invocations"])
    )
    out["units_per_invocation"] = {
        execution: out[execution]["cpu_units"]
        / max(1, out[execution]["operator_invocations"])
        for execution in ("row", "batch")
    }
    return out


def measure_gate() -> dict:
    return {
        "format": "fudj-baseline-units",
        "version": 1,
        "cores": CORES,
        "workloads": [
            _measure_workload(name, make_db, sql)
            for name, make_db, sql in GATE_WORKLOADS
        ],
    }


def check_baseline(measured: dict, baseline: dict) -> list:
    """Gate failures (empty = pass): unit drift beyond tolerance, lost
    row parity, or amortization below the floor."""
    failures = []
    base_by_name = {w["name"]: w for w in baseline.get("workloads", ())}
    for workload in measured["workloads"]:
        name = workload["name"]
        if not workload["rows_match"]:
            failures.append(f"{name}: batch rows differ from row rows")
        if workload["amortization"] < MIN_AMORTIZATION:
            failures.append(
                f"{name}: batch amortization {workload['amortization']:.2f}x "
                f"< required {MIN_AMORTIZATION:.0f}x"
            )
        base = base_by_name.get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline")
            continue
        for execution in ("row", "batch"):
            measured_units = workload[execution]["cpu_units"]
            base_units = base[execution]["cpu_units"]
            drift = (measured_units - base_units) / max(1e-9, base_units)
            if drift > UNITS_TOLERANCE:
                failures.append(
                    f"{name}/{execution}: cpu units regressed "
                    f"{drift * 100:.2f}% ({base_units:.1f} -> "
                    f"{measured_units:.1f}, tolerance "
                    f"{UNITS_TOLERANCE * 100:.0f}%)"
                )
    return failures


def main(argv=None) -> int:
    # Shuffle routing hashes value tuples; str hashes vary per process
    # unless pinned, so the gate re-execs itself with a fixed seed to
    # make network/unit totals reproducible across runs and machines.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    argv = list(sys.argv[1:] if argv is None else argv)
    import argparse

    parser = argparse.ArgumentParser(
        description="Fig 9 row-vs-batch performance gate")
    parser.add_argument("--check-baseline", action="store_true",
                        help="fail on unit drift >2%%, lost parity, or "
                             "batch amortization below 3x")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"refresh {BASELINE_PATH}")
    parser.add_argument("--out", help="write the measured JSON here")
    args = parser.parse_args(argv)

    measured = measure_gate()
    for workload in measured["workloads"]:
        print(
            f"{workload['name']}: row {workload['row']['cpu_units']:.1f} "
            f"units / {workload['row']['operator_invocations']} invocations, "
            f"batch {workload['batch']['cpu_units']:.1f} units / "
            f"{workload['batch']['operator_invocations']} invocations "
            f"({workload['batch']['batches']} batches, "
            f"{workload['amortization']:.1f}x amortization, rows "
            f"{'match' if workload['rows_match'] else 'DIFFER'})"
        )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.write_baseline:
        with open(BASELINE_PATH, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {BASELINE_PATH}")
        return 0
    if args.check_baseline:
        try:
            with open(BASELINE_PATH) as handle:
                baseline = json.load(handle)
        except OSError as exc:
            print(f"cannot read baseline: {exc}", file=sys.stderr)
            return 1
        failures = check_baseline(measured, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("baseline check passed: units within "
              f"{UNITS_TOLERANCE * 100:.0f}%, amortization >= "
              f"{MIN_AMORTIZATION:.0f}x, rows identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
