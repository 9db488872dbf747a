"""Tests for the benchmark harness and LOC counter."""

import re
from pathlib import Path

import pytest

from repro import FaultPlan
from repro.bench import (
    INTERVAL_SQL,
    SPATIAL_SQL,
    TEXT_SQL,
    count_code_lines,
    format_table,
    interval_database,
    run_query,
    spatial_database,
    table2_loc,
    text_database,
)
from repro.bench.harness import speedup

PARTITIONS = 2

#: The paper queries on inputs that put well over 32 items per worker
#: into each data exchange.
PAPER_QUERIES = {
    "spatial": (lambda: spatial_database(200, 600, partitions=PARTITIONS,
                                         grid_n=8, seed=3), SPATIAL_SQL),
    "interval": (lambda: interval_database(400, partitions=PARTITIONS,
                                           seed=3), INTERVAL_SQL),
    "text": (lambda: text_database(300, partitions=PARTITIONS, seed=3),
             TEXT_SQL.format(threshold=0.8)),
}


class TestRunQuery:
    def test_measurement_row(self):
        db = spatial_database(30, 120, partitions=2, grid_n=8, seed=1)
        row = run_query(db, SPATIAL_SQL, "fudj", cores=(12, 48))
        assert row["mode"] == "fudj"
        assert row["wall_seconds"] > 0
        assert row["sim_12c"] >= row["sim_48c"]
        assert row["comparisons"] > 0
        assert not row["timed_out"]

    def test_timeout_flag(self):
        db = spatial_database(30, 120, partitions=2, grid_n=8, seed=1)
        row = run_query(db, SPATIAL_SQL, "ontop", timeout_seconds=0.0)
        assert row["timed_out"]


class TestExactShuffleBytes:
    """The harness reports the bytes a plain ``execute`` counts: every
    exchange sizes every item, however many it moves."""

    @staticmethod
    def byte_counts(metrics) -> dict:
        return {
            "network_bytes": metrics.total_network_bytes(),
            "stages": [(re.sub(r"#\d+", "", stage.name),
                        stage.network_bytes, stage.fabric_bytes)
                       for stage in metrics.stages],
            "checkpoint_bytes": metrics.checkpoint_bytes,
        }

    def check(self, build, sql, fault_plan=None):
        harnessed, plain = build(), build()
        harnessed.fault_plan = plain.fault_plan = fault_plan
        row = run_query(harnessed, sql, "fudj")
        metrics = plain.execute(sql).metrics
        # Large enough that a 32-item sample would have been an estimate.
        assert max(stage.records_in for stage in metrics.stages
                   if stage.network_bytes) > 32 * PARTITIONS
        counts = self.byte_counts(row["result"].metrics)
        assert row["network_bytes"] == counts["network_bytes"]
        assert counts == self.byte_counts(metrics)
        return metrics

    @pytest.mark.parametrize("query", sorted(PAPER_QUERIES))
    def test_paper_query(self, query):
        self.check(*PAPER_QUERIES[query])

    def test_under_a_checkpointing_fault_plan(self):
        metrics = self.check(*PAPER_QUERIES["spatial"],
                             fault_plan=FaultPlan(seed=3, crash_rate=0.3))
        assert metrics.checkpoint_bytes > 0 and metrics.tasks_retried > 0


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.23456], ["b", 100]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "1.235" in text  # 4 significant digits

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestSpeedup:
    def test_basic(self):
        assert speedup(10.0, 2.0) == 5.0

    def test_zero_denominator(self):
        assert speedup(10.0, 0.0) == float("inf")


class TestLocCounter:
    def test_counts_code_not_comments(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            '"""Module docstring\nspanning lines."""\n'
            "# a comment\n"
            "\n"
            "x = 1\n"
            "def f():\n"
            '    """Docstring."""\n'
            "    return x  # trailing comment\n"
        )
        assert count_code_lines(source) == 3  # x=1, def, return

    def test_multiline_statement_counts_each_line(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text("x = (1 +\n     2)\n")
        assert count_code_lines(source) == 2

    def test_table2_shape(self):
        rows = table2_loc()
        assert [row["join"] for row in rows] == [
            "Spatial", "Interval", "Text-similarity",
        ]
        for row in rows:
            # The paper's productivity claim: FUDJ implementations are
            # several times smaller than built-in operators.
            assert row["fudj_loc"] * 1.8 < row["builtin_loc"]
            assert row["fudj_loc"] > 20  # real implementations, not stubs
