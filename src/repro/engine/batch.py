"""Columnar record batches for vectorized execution.

The row engine moves one :class:`~repro.engine.record.Record` at a time
through Python-level operator loops — ROADMAP item 1 names that the
dominant cost at any scale.  This module is the batched alternative: a
:class:`RecordBatch` holds one Python list per schema field (columnar
layout) plus an optional *selection vector*, and a :class:`BatchResult`
carries per-worker lists of batches between operators in place of
per-worker record lists.

Design rules that make batch mode byte-identical to row mode:

* **Same values.** Columns hold the same boxed engine values
  (:mod:`repro.serde.values`) a row-mode ``Record`` would hold; boxed
  values hash and compare by value, so hash-partitioning a batch routes
  every row to exactly the worker row mode would pick.
* **Same order.** Batches preserve row order per worker, and every
  batched operator emits rows in the order its row twin would.
* **Same charges.** Kernels accumulate integer row counts and issue one
  ``stage.charge(worker, n * cost)`` using the identical cost expression
  as the row operator, so the floats match bit-for-bit (see
  ``docs/batched_execution.md`` for why the single-multiply form is
  load-bearing).
* **Duck typing.** :class:`BatchResult` exposes ``schema``, ``len()``,
  ``all_records()``, and a lazily materialized ``partitions`` property,
  so row-only operators (joins, FUDJ, sort) consume a batched child
  without changes — they just pay one materialization.

Selection vectors make filters zero-copy: a filtered batch shares its
parent's column lists and only records the surviving row positions.
Kernels treat column lists as immutable; they are shared freely and
never mutated in place.
"""

from __future__ import annotations

from repro.engine.record import Record, Schema

#: Execution modes accepted by ``Database(execution=...)``.
EXECUTION_MODES = ("row", "batch")

#: Rows per batch produced by batched operators and exchanges.
DEFAULT_BATCH_ROWS = 1024


class RecordBatch:
    """A columnar slice of rows: one value list per field, shared schema,
    optional selection vector.

    ``columns[j][i]`` is field ``j`` of physical row ``i``.  When
    ``selection`` is set, only the listed physical row indices are live,
    in selection order; otherwise every physical row is live.  Column
    lists are immutable by convention and may be shared between batches
    (projection and filtering are zero-copy views).
    """

    __slots__ = ("schema", "columns", "selection", "_rows")

    def __init__(self, schema: Schema, columns, selection=None,
                 rows: int = None) -> None:
        self.schema = schema
        self.columns = columns
        self.selection = selection
        if selection is not None:
            self._rows = len(selection)
        elif rows is not None:
            self._rows = rows
        else:
            self._rows = len(columns[0]) if columns else 0

    @property
    def num_rows(self) -> int:
        return self._rows

    def __len__(self) -> int:
        return self._rows

    def __repr__(self) -> str:
        return (f"RecordBatch({self._rows} rows x "
                f"{len(self.schema)} cols"
                + (", selected" if self.selection is not None else "") + ")")

    @staticmethod
    def from_rows(schema: Schema, rows) -> "RecordBatch":
        """Build a compact batch from value tuples (one per row)."""
        if rows:
            columns = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in schema.fields]
        return RecordBatch(schema, columns, rows=len(rows))

    def iter_rows(self):
        """Yield live rows as value tuples, in order."""
        if not self.columns:
            for _ in range(self._rows):
                yield ()
        elif self.selection is None:
            yield from zip(*self.columns)
        else:
            columns = self.columns
            for i in self.selection:
                yield tuple(column[i] for column in columns)

    def rows(self) -> list:
        """Live rows as a list of value tuples."""
        return list(self.iter_rows())

    def to_records(self) -> list:
        """Materialize live rows as :class:`Record` objects."""
        schema = self.schema
        return [Record(schema, row) for row in self.iter_rows()]

    def take(self, positions) -> "RecordBatch":
        """A view keeping the live rows at the given positions.

        ``positions`` index the batch's *live* rows (0..num_rows-1), so
        filters compose with an existing selection vector.
        """
        if self.selection is None:
            return RecordBatch(self.schema, self.columns, list(positions))
        base = self.selection
        return RecordBatch(self.schema, self.columns,
                           [base[i] for i in positions])

    def compact(self) -> "RecordBatch":
        """Drop the selection vector by copying the live rows out."""
        if self.selection is None:
            return self
        return RecordBatch.from_rows(self.schema, self.rows())


class BatchResult:
    """Output of a batched operator: per-worker batch lists plus schema.

    Duck-compatible with
    :class:`~repro.engine.operators.base.OperatorResult`: row-only
    consumers (joins, FUDJ phases, sort, the executor) read ``schema``,
    ``len()``, ``all_records()``, and ``partitions`` — the latter
    materializes records lazily, once, so object identities stay stable
    for pair-dedup within a query.
    """

    def __init__(self, batches, schema: Schema) -> None:
        self.batches = batches
        self.schema = schema
        self._num_records = sum(
            batch.num_rows for worker in batches for batch in worker
        )
        self._partitions = None

    def __len__(self) -> int:
        return self._num_records

    @property
    def num_batches(self) -> int:
        return sum(len(worker) for worker in self.batches)

    @property
    def partitions(self) -> list:
        if self._partitions is None:
            schema = self.schema
            self._partitions = [
                [Record(schema, row)
                 for batch in worker for row in batch.iter_rows()]
                for worker in self.batches
            ]
        return self._partitions

    def all_records(self):
        for partition in self.partitions:
            yield from partition

    def value_rows(self) -> list:
        """Per-worker lists of value tuples, straight from the batches."""
        return [[row for batch in worker for row in batch.iter_rows()]
                for worker in self.batches]


def batches_from_rows(ctx, schema: Schema, rows) -> list:
    """Chunk value-tuple rows into batches of ``ctx.batch_rows``.

    Every produced batch ticks the per-query batch counters
    (``metrics.batches`` / rows-per-batch histogram feed).
    """
    size = ctx.batch_rows
    out = []
    # Every batch built is a cancellation point (test harnesses pass
    # minimal ctx stubs without the checkpoint, hence the getattr).
    check_cancel = getattr(ctx, "check_cancel", None)
    for start in range(0, len(rows), size):
        if check_cancel is not None:
            check_cancel()
        batch = RecordBatch.from_rows(schema, rows[start:start + size])
        ctx.metrics.note_batch(batch.num_rows)
        out.append(batch)
    return out


def as_worker_batches(result, ctx) -> list:
    """Per-worker batch lists for an upstream operator result.

    A :class:`BatchResult` child passes its batches through untouched; a
    row-mode child (a join, FUDJ, or sort below a batched operator) is
    restructured column-wise.  The restructure is free of cost-model
    charges — it changes representation, not work, so row/batch charge
    parity holds.
    """
    if isinstance(result, BatchResult):
        return result.batches
    schema = result.schema
    return [batches_from_rows(ctx, schema, rows)
            for rows in result.value_rows()]
