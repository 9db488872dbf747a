#!/usr/bin/env python3
"""Compare two benchmark runs, or two sets of runs, against the bounds.

    python perf/compare.py A.json B.json
    python perf/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

Each side is one ``perf/run.py`` result file or several joined by
commas; of several, the median per workload and metric is taken.  One
row per workload: for every end-to-end metric, how much worse (+) or
better (-) B is than A as a share of A, next to the bound BENCHMARK.json
fixes for it.  ``client.slice_spread`` of both sides is shown so that a
disturbed run is recognisable.  Exit code 1 when any pair differs by
more than its bound in either direction, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(side: str) -> dict:
    """workload → metric → median value over the side's files."""
    documents = []
    for path in side.split(","):
        with open(path) as handle:
            documents.append(json.load(handle)["workloads"])
    merged = {}
    for name in documents[0]:
        runs = [document[name] for document in documents]
        merged[name] = {
            metric: statistics.median(
                run[kind][metric] for run in runs if metric in run[kind])
            for kind in ("end_to_end", "per_layer")
            for metric in runs[0][kind]
        }
    return merged


def worse_by(metric: dict, before: float, after: float) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]
    before, after = load(args[0]), load(args[1])
    outside = 0
    print(f"{'workload':<20}"
          + "".join(f"{m['name'] + ' (' + format(m['bound'], '.0%') + ')':>24}"
                    for m in metrics)
          + f"{'slice_spread A / B':>22}")
    for name in before:
        if name not in after:
            print(f"{name:<20} missing from {args[1]}")
            outside += 1
            continue
        cells = []
        for metric in metrics:
            a, b = before[name][metric["name"]], after[name][metric["name"]]
            change = worse_by(metric, a, b)
            verdict = "ok"
            if abs(change) > metric["bound"]:
                verdict = "WORSE" if change > 0 else "BETTER"
                outside += 1
            cells.append(f"{change:>+17.2%} {verdict:<6}")
        spreads = [side[name].get("client.slice_spread", 0.0)
                   for side in (before, after)]
        print(f"{name:<20}" + "".join(cells)
              + f"{spreads[0]:>13.1%} / {spreads[1]:.1%}")
    if outside:
        print(f"{outside} pair(s) outside their bound", file=sys.stderr)
    return 1 if outside else 0


if __name__ == "__main__":
    raise SystemExit(main())
