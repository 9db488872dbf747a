#!/usr/bin/env python3
"""Parent-versus-change pairs of the wall-clock benchmark.

    python tools/perf_ab.py BASE [--pairs 10] [--workloads A,B]
                                 [--seed 101] [--traced-pairs 1]
    make perf-ab BASE=<ref> [PAIRS=10] [WORKLOADS=A,B] [SEED=101] [TRACED=1]

Checks ``BASE`` out into a temporary ``git worktree`` and compares it
with the files of this checkout (committed or not), the way
``/opt/skills/guides/choosing-metrics`` section 8 and ``perf/README.md``
ask for a claimed gain:

* per workload, ``--pairs`` pairs of
  ``perf/run.py --workload W --seed s --seconds S --trace 0`` — each side
  runs the ``perf/`` of its own tree, unmodified; both sides of a pair
  get the same seed (``--seed`` + pair number), and which side runs first
  alternates;
* per workload and end-to-end metric: both medians with their quartiles,
  how much worse (+) or better (-) the change's median is as a share of
  the base's, that difference against the base's own interquartile
  range, the share of pairs the change won (ties count for neither), and
  a verdict against the metric's ``better`` and ``bound`` in
  ``BENCHMARK.json``: ``WORSE`` when the change's median is worse than
  the base's by more than the bound, ``unresolved`` when the base's own
  interquartile range is wider than the bound and the pairs do not all
  point the same way (the runs spread too widely to tell);
* then ``--traced-pairs`` pairs of the ``--trace 1`` form, for the
  per-layer medians of both sides — among them ``client.slice_spread``,
  each run's own noise reading (above 0.10 the run was disturbed).

``S`` is ``run_seconds`` of this checkout's ``BENCHMARK.json``.  Nothing
under ``perf/`` is edited or imported.  The worktree and the scratch
directory are removed on every way out, Ctrl-C and SIGTERM included.
Exit code 1 when an operation failed on either side or a metric reads
``WORSE``, else 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class AbError(Exception):
    """The comparison itself could not do its work."""


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)
    if done.returncode:
        raise AbError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def run_benchmark(root: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """One run of ``root``'s own perf/run.py; its last stdout line."""
    process = subprocess.Popen(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    try:
        output, _ = process.communicate()
    except BaseException:
        # SIGTERM, not kill: run.py stops its children on the way out.
        process.terminate()
        try:
            process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        raise
    lines = output.strip().splitlines()
    if process.returncode or not lines:
        raise AbError(f"{root}: perf/run.py --workload {workload} --seed "
                      f"{seed} --trace {trace} exited {process.returncode}")
    return json.loads(lines[-1])


def quartiles(values) -> tuple:
    """(q1, median, q3); the median alone when there is one value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worse_by(better: str, before: float, after: float) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if better == "lower" else -change


def verdict(bound: float, worse: float, iqr_share: float, won: int,
            lost: int, pairs: int) -> str:
    """``WORSE``, ``unresolved`` or nothing, for a metric whose change
    median is ``worse`` (a share of the base's) against ``bound``."""
    if iqr_share > bound and pairs not in (won, lost):
        return "unresolved"
    return "WORSE" if worse > bound else ""


def compare(workload: str, metrics, runs: dict) -> list:
    """One block of the report: ``runs[side]`` is that side's list of
    ``{metric: value}``, pair by pair.  Returns the names of the metrics
    that read ``WORSE``."""
    pairs = len(runs["base"])
    print(f"\n== {workload}: {pairs} pairs")
    print(f"   {'metric':<34}{'base median [q1, q3]':>38}"
          f"{'change median [q1, q3]':>38}{'change':>10}"
          f"{'vs base IQR':>13}{'won':>8}")
    past_bound = []
    for metric in metrics:
        name = metric["name"]
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        if not any(base) and not any(change):
            continue  # a layer this workload does not run
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        better = metric["better"]
        won = sum(worse_by(better, b, c) < 0 for b, c in zip(base, change))
        lost = sum(worse_by(better, b, c) > 0 for b, c in zip(base, change))
        iqr = b3 - b1
        against = f"{abs(cm - bm) / iqr:.1f} x" if iqr else "-"
        worse = worse_by(better, bm, cm)
        # Per-layer metrics carry no bound and get no verdict.
        mark = ("" if "bound" not in metric else verdict(
            metric["bound"], worse, iqr / abs(bm) if bm else 0.0, won, lost,
            pairs))
        if mark == "WORSE":
            past_bound.append(f"{workload}: {name}")
        print(f"   {name:<34}"
              f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>38}"
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>38}"
              f"{worse:>+10.1%}{against:>13}"
              f"{f'{won}/{won + lost}':>8}  {mark}".rstrip())
    return past_bound


def measure(sides: dict, workloads, spec: dict, pairs: int,
            traced_pairs: int, seed: int) -> tuple:
    """Run every pair and print every block; returns ``(failed
    operations, names of the metrics that read WORSE)``."""
    seconds = spec["run_seconds"]
    failed = 0
    past_bound = []
    for trace, count, metrics in ((0, pairs, spec["end_to_end"]),
                                  (1, traced_pairs, spec["per_layer"])):
        for workload in workloads:
            runs = {side: [] for side in sides}
            for pair in range(count):
                order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
                for side in order:
                    result = run_benchmark(sides[side], workload,
                                           seed + pair, seconds, trace)
                    failed += result["failed"]
                    runs[side].append({name: entry["value"] for name, entry
                                       in result["metrics"].items()})
                    print(f"   {workload} trace={trace} pair {pair + 1}/"
                          f"{count} {side}: {result['attempted']} operations,"
                          f" {result['failed']} failed", file=sys.stderr)
            if count:
                past_bound += compare(
                    workload + (" (traced pass)" if trace else ""),
                    metrics, runs)
    return failed, past_bound


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="see the module docstring for what is printed")
    parser.add_argument("base", help="git ref of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads",
                        help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair n uses seed + n")
    parser.add_argument("--traced-pairs", type=int, default=1)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [name for name in workloads if name not in names]
    if unknown or args.pairs < 1 or args.traced_pairs < 0:
        parser.error(f"--workloads must be among {names}, --pairs >= 1, "
                     f"--traced-pairs >= 0")

    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    scratch = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    base_root = scratch / "base"
    try:
        git("worktree", "add", "--detach", str(base_root), sha)
        print(f"base {sha[:12]} ({args.base})  change {ROOT} at "
              f"{git('rev-parse', '--short=12', 'HEAD')}"
              f"{' + uncommitted' if git('status', '--porcelain') else ''}"
              f"  {spec['run_seconds']} s per run, seeds {args.seed}.."
              f"{args.seed + args.pairs - 1}")
        failed, past_bound = measure(
            {"base": base_root, "change": ROOT}, workloads, spec,
            args.pairs, args.traced_pairs, args.seed)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(base_root)], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       capture_output=True)
    if failed:
        print(f"{failed} failed operations", file=sys.stderr)
    for name in past_bound:
        print(f"WORSE past its bound: {name}", file=sys.stderr)
    return 1 if failed or past_bound else 0


def terminated(signum, frame):
    """SIGTERM leaves through the ``finally`` blocks, as Ctrl-C does."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminated)
    try:
        raise SystemExit(main())
    except AbError as exc:
        print(f"tools/perf_ab.py: {exc}", file=sys.stderr)
        raise SystemExit(3)
