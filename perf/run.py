#!/usr/bin/env python3
"""The repo's wall-clock benchmark.  See perf/README.md.

    python perf/run.py [--seed 7] [--rounds 10] [--slice-seconds 3]
    python perf/run.py --quick
    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs the four workloads interleaved, prints every metric
by name with its unit and writes perf/results/run-<time>.json.  The
third is the form BENCHMARK.json names: one workload, ``S`` seconds
measured, the result as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing.connection import Connection
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Longest the parent waits for one answer of a child.
REPLY_SECONDS = 150.0
#: Rounds of the one-workload form; never fewer (ISSUE 12).
DRIVER_ROUNDS = 8
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchmarkError(Exception):
    """The benchmark itself could not do its work."""


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- children ------------------------------------------------------------------


class Child:
    """One workload's process, and the socket it is driven through.

    Started with ``subprocess``, not ``multiprocessing``: a spawned
    ``multiprocessing.Process`` brings a resource-tracker process along
    that outlives the run by a second or two."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        near, far = socket.socketpair()
        with far:
            self.process = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(far.fileno()),
                 name, str(seed), str(int(quick)), str(RESULTS)],
                pass_fds=[far.fileno()], stdin=subprocess.DEVNULL,
                stdout=sys.stderr,  # the result line is alone on stdout
                env={**os.environ, "PYTHONPATH": os.pathsep.join(
                    [str(ROOT / "src"), str(HERE)])})
        self.pipe = Connection(near.detach())
        try:
            self.info = self._reply()  # inputs, oracle and warm-up done
        except BaseException:
            self.stop()
            raise

    def call(self, *command):
        self.pipe.send(command)
        return self._reply()

    def _reply(self):
        if not self.pipe.poll(REPLY_SECONDS):
            raise BenchmarkError(f"{self.name}: no answer within "
                                 f"{REPLY_SECONDS:.0f} s")
        try:
            status, payload = self.pipe.recv()
        except EOFError:
            raise BenchmarkError(f"{self.name}: child died") from None
        if status != "ok":
            raise BenchmarkError(f"{self.name}: child failed\n{payload}")
        return payload

    def stop(self) -> None:
        """End the child and wait for it; a second call does nothing."""
        self.pipe.close()  # a child still waiting for a command sees EOF
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# -- one benchmark run -----------------------------------------------------------


def percentile(ordered, fraction: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ordered[min(len(ordered) - 1,
                       round(fraction * (len(ordered) - 1)))]


def summarize(slices, setups, traced) -> dict:
    """A workload's figures from its raw slices.  End to end is the best
    slice: noise on a shared host only ever adds time."""
    good = [s for s in slices if s["ops"]]
    if not good:
        raise BenchmarkError("no operation succeeded: "
                             + "; ".join(slices[0]["errors"]))
    p50s = [s["p50_ms"] for s in good]
    pooled = sorted(ms for s in good for ms in s["latencies_ms"])
    best = min(p50s)
    end_to_end = {
        "setup_s": min(setups),
        "latency_p50_ms": best,
        "throughput_ops_s": max(s["ops_per_s"] for s in good),
        "cpu_ms_per_op": min(s["cpu_ms_per_op"] for s in good),
        "peak_rss_mb": slices[-1]["peak_rss_mb"],
    }
    per_layer = {
        "client.latency_p50_pooled_ms": percentile(pooled, 0.50),
        "client.latency_p90_pooled_ms": percentile(pooled, 0.90),
        "client.slice_spread": (statistics.median(p50s) - best) / best,
    }
    attempted = sum(s["ops"] + s["failed"] for s in slices)
    failed = sum(s["failed"] for s in slices)
    checks, not_applicable = {}, []
    if traced is not None:
        per_layer.update(traced["figures"])
        attempted += traced["attempted"]
        failed += traced["failed"]
        checks = traced["checks"]
        not_applicable = traced["not_applicable"]
    return {"end_to_end": end_to_end, "per_layer": per_layer,
            "not_applicable": not_applicable,
            "attempted": attempted, "failed": failed, "checks": checks,
            "errors": [e for s in slices for e in s["errors"]][:3]
            + (traced["errors"] if traced else [])}


def measure(names, seed: int, rounds: int, slice_seconds: float,
            trace_seconds: float, quick: bool = False) -> dict:
    """Run ``names`` round-robin: in every round every workload does one
    fresh set-up and one closed-loop slice; then, if asked, each does
    its traced pass.  One child works at a time."""
    started = time.time()
    load_start = os.getloadavg()[0]
    # The run's own scratch directory: runs started side by side in one
    # checkout must not remove each other's files.
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=RESULTS, prefix="tmp-"))
    os.environ["TMPDIR"] = str(scratch)  # children write nowhere else
    children = []
    workloads = {}
    try:
        for name in names:
            children.append(Child(name, seed, quick))
        slices = {name: [] for name in names}
        setups = {name: [] for name in names}
        for _ in range(rounds):
            for child in children:
                setups[child.name].append(child.call("setup"))
                slices[child.name].append(
                    child.call("slice", slice_seconds))
        for child in children:
            traced = (child.call("trace", trace_seconds)
                      if trace_seconds else None)
            workloads[child.name] = {
                **summarize(slices[child.name], setups[child.name], traced),
                "setups_s": setups[child.name],
                "slices": slices[child.name],
                "prepare": child.info,
                "shutdown": child.call("finish"),
            }
        for child in children:
            child.stop()
        leftovers = sorted(p.name for p in scratch.iterdir())
    finally:
        for child in children:  # after an error; a second stop does nothing
            child.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "meta": {
            "commit": commit(), "seed": seed, "rounds": rounds,
            "slice_seconds": slice_seconds, "trace_seconds": trace_seconds,
            "quick": quick, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "load1_start": load_start, "load1_end": os.getloadavg()[0],
            "wall_s": time.time() - started,
            "temp_leftovers": leftovers,
        },
        "workloads": workloads,
    }


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# -- reporting -------------------------------------------------------------------


def with_units(values: dict, declared, not_applicable) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics.
    The contract wants every name on every workload, so a metric of a
    layer the workload does not run reads 0 here (and only here)."""
    values = {**dict.fromkeys(not_applicable, 0.0), **values}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def report(document: dict, spec: dict) -> None:
    meta = document["meta"]
    print(f"commit {meta['commit']}  seed {meta['seed']}  "
          f"{meta['rounds']} rounds x {meta['slice_seconds']} s  "
          f"nproc {meta['nproc']}  python {meta['python']}  "
          f"load {meta['load1_start']:.2f}->{meta['load1_end']:.2f}  "
          f"wall {meta['wall_s']:.0f} s")
    for name, result in document["workloads"].items():
        print(f"\n== {name}: {result['attempted']} operations, "
              f"{result['failed']} failed")
        for error in result["errors"]:
            print(f"   ! {error}")
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            for metric, value in result[kind].items():
                print(f"   {metric:<34} {value:>14.4f} "
                      f"{declared.get(metric, '?')}")
        for check, value in result["checks"].items():
            print(f"   check {check}: {value}")


def problems(document: dict, spec: dict, traced: bool) -> list:
    """What is wrong with a finished run, as sentences."""
    found = []
    for name, result in document["workloads"].items():
        if result["failed"]:
            found.append(f"{name}: {result['failed']} failed operations")
        kinds = ("end_to_end", "per_layer") if traced else ("end_to_end",)
        for kind in kinds:
            for metric in spec[kind]:
                measured = metric["name"] in result[kind]
                if measured == (metric["name"] in result["not_applicable"]):
                    found.append(f"{name}: {metric['name']} "
                                 + ("measured where it does not apply"
                                    if measured else "not emitted"))
            for metric in result[kind]:
                if not NAME.match(metric):
                    found.append(f"{name}: bad metric name {metric!r}")
        checks = result["checks"]
        if checks and not checks["statement_overhead_not_negative"]:
            found.append(f"{name}: statement overhead is negative")
        if checks and checks["fudj_sum_share"] < 0.95:
            found.append(f"{name}: FUDJ phases cover only "
                         f"{checks['fudj_sum_share']:.1%} of the join span")
        for what, stray in result["shutdown"].items():
            if stray:
                found.append(f"{name}: {what} after shutdown: {stray}")
    if document["meta"]["temp_leftovers"]:
        found.append("temp files left: "
                     f"{document['meta']['temp_leftovers']}")
    return found


def save(document: dict) -> Path:
    path = RESULTS / f"run-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return path


# -- command line ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--slice-seconds", type=float, default=3.0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, 2 rounds x 0.5 s: a smoke test")
    parser.add_argument("--workload", help="run this workload alone")
    parser.add_argument("--seconds", type=float,
                        help="with --workload: seconds measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 for the per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]

    if args.workload:
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        seconds = args.seconds or spec["run_seconds"]
        if args.trace:
            # A quarter of the time in short slices, for client.* and the
            # run's own noise reading; the rest is the traced pass.
            rounds, slice_seconds = DRIVER_ROUNDS // 2, seconds / 16.0
        else:
            rounds, slice_seconds = DRIVER_ROUNDS, seconds / DRIVER_ROUNDS
        document = measure([args.workload], args.seed, rounds, slice_seconds,
                           seconds if args.trace else 0.0)
        result = document["workloads"][args.workload]
        kind = "per_layer" if args.trace else "end_to_end"
        for trouble in problems(document, spec, bool(args.trace)):
            print(f"perf/run.py: {trouble}", file=sys.stderr)
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": with_units(result[kind], spec[kind],
                                  result["not_applicable"]),
        }))
        return 0

    if args.quick:
        document = measure(names, args.seed, 2, 0.5, 2.0, quick=True)
    else:
        seconds = args.rounds * args.slice_seconds
        document = measure(names, args.seed, args.rounds,
                           args.slice_seconds, seconds)
    report(document, spec)
    print(f"\nwritten to {save(document)}")
    troubles = problems(document, spec, traced=True)
    for trouble in troubles:
        print(f"PROBLEM: {trouble}", file=sys.stderr)
    return 1 if troubles else 0


def terminated(signum, frame):
    """SIGTERM leaves through the ``finally`` blocks, which stop the
    children, as Ctrl-C does."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminated)
    try:
        raise SystemExit(main())
    except BenchmarkError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        raise SystemExit(3)
