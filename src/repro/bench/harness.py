"""Experiment harness: run queries per mode, collect rows for the paper's
tables and figures, and print them in an aligned text layout."""

from __future__ import annotations

import time

from repro.database import Database


def run_query(db: Database, sql: str, mode: str, dedup=None,
              cores=(12,), timeout_seconds: float = None) -> dict:
    """Execute one query and return a flat measurement row.

    Args:
        db: the workload database.
        sql: the query text.
        mode: fudj / builtin / ontop.
        dedup: optional dedup override.
        cores: core counts at which to report simulated time.
        timeout_seconds: when set and the wall-clock exceeds it, the row
            is still returned but flagged ``timed_out`` (the paper stops
            queries at 4000 s and declares the setup non-scalable).

    Returns:
        dict with ``wall_seconds``, ``sim_<cores>s`` entries,
        ``comparisons``, ``output_records``, ``network_bytes``,
        ``result_rows``, ``timed_out``.
    """
    started = time.perf_counter()
    result = db.execute(sql, mode=mode, dedup=dedup)
    wall = time.perf_counter() - started
    metrics = result.metrics
    row = {
        "mode": mode,
        "wall_seconds": wall,
        "comparisons": metrics.comparisons,
        "output_records": metrics.output_records,
        "network_bytes": metrics.total_network_bytes(),
        "cpu_units": metrics.total_cpu_units(),
        "result_rows": len(result),
        "result": result,
        "timed_out": timeout_seconds is not None and wall > timeout_seconds,
    }
    for core_count in cores:
        row[f"sim_{core_count}c"] = metrics.simulated_seconds(core_count)
    return row


def format_table(headers: list, rows: list, title: str = None) -> str:
    """Render rows as an aligned text table (the bench output format).

    ``rows`` hold display-ready values; floats are rendered with four
    significant digits, everything else via ``str``.
    """
    def render(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    cells = [[render(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def speedup(baseline: float, other: float) -> float:
    """``baseline / other`` guarded against zero division."""
    if other <= 0:
        return float("inf")
    return baseline / other
