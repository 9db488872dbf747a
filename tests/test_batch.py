"""Batch (vectorized) execution: columnar record batches between
operators.

That batch execution returns row execution's rows and deterministic
metrics is checked by every ``batch`` case of the golden file
(``tests/test_golden.py``) against its serial twin, at 16 rows per
batch so that every partition spans several.  What this file checks
are the units: :class:`RecordBatch`, the kernels, the spill codec, the
batch telemetry counters and the ``execution`` surface.
"""

import pytest

from repro.bench import workloads
from repro.cli import Shell
from repro.database import Database
from repro.engine.batch import (
    DEFAULT_BATCH_ROWS,
    RecordBatch,
    batches_from_rows,
)
from repro.engine import kernels
from repro.engine.record import Record, Schema
from repro.engine.resources import RowSpillCodec
from repro.engine.operators.aggregate import RawState
from repro.errors import PlanError
from repro.serde.values import box


class TestBatchDeterminism:
    def test_batch_telemetry_counters(self):
        db = workloads.spatial_database(25, 120)
        db.set_execution("batch")
        db.execute(workloads.SPATIAL_SQL)
        r = db.telemetry.registry
        snapshot = r.to_json()
        assert "fudj_batches_total" in snapshot
        batches = [f for f in r.families()
                   if f.name == "fudj_batches_total"][0]
        assert batches.value() > 0
        invocations = [f for f in r.families()
                       if f.name == "fudj_operator_invocations_total"][0]
        assert invocations.value() > 0
        hist = [f for f in r.families() if f.name == "fudj_batch_rows"][0]
        (key, series), = hist.samples()
        assert series["count"] == batches.value()


# -- RecordBatch / kernel unit tests -------------------------------------------


SCHEMA = Schema(("a", "b"))


def _rows(*pairs):
    return [tuple(box(v) for v in pair) for pair in pairs]


class TestRecordBatch:
    def test_from_rows_round_trip(self):
        rows = _rows((1, "x"), (2, "y"), (3, "z"))
        batch = RecordBatch.from_rows(SCHEMA, rows)
        assert batch.num_rows == 3
        assert batch.rows() == rows
        records = batch.to_records()
        assert all(isinstance(r, Record) for r in records)
        assert [r.values for r in records] == rows

    def test_empty_batch(self):
        batch = RecordBatch.from_rows(SCHEMA, [])
        assert batch.num_rows == 0
        assert batch.rows() == []
        assert batch.take([]).num_rows == 0

    def test_empty_schema(self):
        """Zero columns still carries a row count (e.g. COUNT(*) over a
        projection to nothing)."""
        batch = RecordBatch(Schema(()), [], rows=4)
        assert batch.num_rows == 4
        assert batch.rows() == [(), (), (), ()]

    def test_take_composes_with_selection(self):
        rows = _rows((1, "a"), (2, "b"), (3, "c"), (4, "d"))
        batch = RecordBatch.from_rows(SCHEMA, rows)
        first = batch.take([0, 2, 3])       # rows 1, 3, 4
        second = first.take([1, 2])         # rows 3, 4 — indexes LIVE rows
        assert second.rows() == [rows[2], rows[3]]
        compacted = second.compact()
        assert compacted.selection is None
        assert compacted.rows() == second.rows()

    def test_batches_chunk_at_boundary(self):
        class Ctx:
            batch_rows = 3

            class metrics:
                @staticmethod
                def note_batch(rows):
                    pass

        rows = _rows(*[(i, "r") for i in range(7)])
        batches = batches_from_rows(Ctx(), SCHEMA, rows)
        assert [b.num_rows for b in batches] == [3, 3, 1]
        assert [row for b in batches for row in b.rows()] == rows

    def test_default_batch_rows(self):
        assert DEFAULT_BATCH_ROWS == 1024
        db = Database(batch_rows=2, execution="batch")
        db.create_type("T", [("id", "int")])
        db.create_dataset("Ts", "T", "id")
        db.load("Ts", [{"id": i} for i in range(5)])
        result = db.execute("SELECT t.id AS tid FROM Ts t")
        assert sorted(r["tid"] for r in result.rows) == list(range(5))
        assert result.metrics.batches > 0


class TestKernels:
    def test_filter_batch(self):
        rows = _rows((1, "x"), (2, "y"), (3, "z"))
        batch = RecordBatch.from_rows(SCHEMA, rows)
        kept = kernels.filter_batch(batch, lambda row: row[0].value >= 2)
        assert kept.rows() == rows[1:]

    def test_filter_empty_result(self):
        batch = RecordBatch.from_rows(SCHEMA, _rows((1, "x")))
        kept = kernels.filter_batch(batch, lambda row: False)
        assert kept.num_rows == 0

    def test_project_batch_zero_copy(self):
        rows = _rows((1, "x"), (2, "y"))
        batch = RecordBatch.from_rows(SCHEMA, rows)
        out = kernels.project_batch(batch, [1], Schema(("b",)))
        assert out.columns[0] is batch.columns[1]
        assert out.rows() == [(row[1],) for row in rows]

    def test_distinct_batch_folds_across_batches(self):
        seen = set()
        first = RecordBatch.from_rows(SCHEMA, _rows((1, "x"), (1, "x")))
        second = RecordBatch.from_rows(SCHEMA, _rows((1, "x"), (2, "y")))
        a = kernels.distinct_batch(first, seen)
        b = kernels.distinct_batch(second, seen)
        assert a.num_rows == 1
        assert b.rows() == _rows((2, "y"))

    def test_scatter_batch_preserves_send_order(self):
        rows = _rows((0, "a"), (1, "b"), (2, "c"), (3, "d"))
        batch = RecordBatch.from_rows(SCHEMA, rows)
        out_rows = [[], []]
        moved = []
        kernels.scatter_batch(batch, lambda row: row[0], 2, 0,
                              out_rows, moved)
        # Row-mode routing: hash(key) % 2, moved = rows landing off-worker.
        expected = [[], []]
        expected_moved = []
        for row in rows:
            target = hash(row[0]) % 2
            expected[target].append(row)
            if target != 0:
                expected_moved.append(row)
        assert out_rows == expected
        assert moved == expected_moved


class TestRowSpillCodec:
    def test_round_trip(self):
        codec = RowSpillCodec()
        row = tuple(box(v) for v in (7, "payload"))
        payload = codec.encode(row)
        assert payload is not None
        assert codec.decode(payload) == row
        record_size = Record(SCHEMA, row).serialized_size()
        assert codec.size(row) == record_size

    def test_raw_state_pins(self):
        """Rows holding opaque FUDJ state are unspillable — encode
        returns None so the accountant pins them, exactly like row
        mode's RecordSpillCodec."""
        codec = RowSpillCodec()
        assert codec.encode((box(1), RawState((object(),)))) is None
        assert codec.encode("not-a-tuple") is None


# -- Database / shell surface ---------------------------------------------------


class TestExecutionSurface:
    def test_default_is_row(self):
        assert Database().execution == "row"

    def test_kwarg(self):
        assert Database(execution="batch").execution == "batch"

    def test_invalid_rejected(self):
        with pytest.raises(PlanError):
            Database(execution="columnar")
        db = Database()
        with pytest.raises(PlanError):
            db.set_execution("vectorized")
        assert db.execution == "row"

    def test_set_execution(self):
        db = workloads.spatial_database(25, 120)
        db.set_execution("batch")
        batch = db.execute(workloads.SPATIAL_SQL)
        db.set_execution("row")
        row = db.execute(workloads.SPATIAL_SQL)
        assert (sorted(map(str, batch.rows)) == sorted(map(str, row.rows)))

    def test_shell_exec_command(self):
        lines = []
        shell = Shell(write=lines.append)
        shell.feed(".exec")
        assert lines[-1] == "execution = row"
        shell.feed(".exec batch")
        assert lines[-1] == "execution = batch"
        shell.feed(".exec bogus")
        assert lines[-1] == "usage: .exec row|batch|show"
        shell.feed(".exec show")
        assert lines[-1] == "execution = batch"

    def test_trace_has_batch_spans(self):
        db = workloads.spatial_database(25, 120)
        db.set_execution("batch")
        result = db.execute(workloads.SPATIAL_SQL, trace=True)
        spans = list(result.trace.walk())
        assert any(span.meta.get("batches_out") for span in spans)
