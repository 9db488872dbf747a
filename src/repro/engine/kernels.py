"""Vectorized kernels over :class:`~repro.engine.batch.RecordBatch`.

Each kernel processes one batch per call — one engine dispatch instead
of one per record — and leaves cost charging to its caller, which
accumulates integer row counts and charges once per worker with the
row-mode cost expression (the byte-parity rule; see
``docs/batched_execution.md``).

The kernel contract for per-row callbacks (predicates, map functions,
group-key extractors, aggregate folds):

* Callbacks receive a **cursor record** — a single reusable
  :class:`~repro.engine.record.Record` whose ``values`` tuple is swapped
  for every row.  They may read fields and keep any *values* they
  extract (boxed values are immutable), but must not retain the cursor
  object itself across rows.
* Exchange key functions receive the raw value **tuple** instead (row
  mode keys on ``record.values``, so the hashes match by construction).
* Kernels never mutate column lists in place; filtered and projected
  batches are views sharing their parent's columns.
"""

from __future__ import annotations

from repro.engine.batch import RecordBatch
from repro.engine.record import Record, Schema, serialized_values_size
from repro.serde.values import NULL, box


class _RowCursor(Record):
    """The one mutable record: its ``values`` are swapped for every row,
    so it keeps nothing derived from them (a plain record sizes itself
    once)."""

    __slots__ = ()

    def serialized_size(self) -> int:
        return serialized_values_size(self.values)


def make_cursor(schema: Schema) -> Record:
    """A reusable row cursor for running row-level callbacks over a
    batch without allocating one record per row."""
    return _RowCursor(schema, (NULL,) * len(schema))


def filter_batch(batch: RecordBatch, predicate, cursor: Record) -> RecordBatch:
    """Selection-vector filter: keep live rows passing ``predicate``.

    Returns a zero-copy view over the input batch's columns.
    """
    kept = []
    position = 0
    for row in batch.iter_rows():
        cursor.values = row
        if predicate(cursor):
            kept.append(position)
        position += 1
    return batch.take(kept)


def project_batch(batch: RecordBatch, indexes, out_schema: Schema) -> RecordBatch:
    """Column pruning: reorder/drop columns without touching row data."""
    columns = batch.columns
    return RecordBatch(out_schema, [columns[i] for i in indexes],
                       selection=batch.selection, rows=batch.num_rows)


def map_batch(batch: RecordBatch, column_specs, out_schema: Schema,
              cursor: Record) -> RecordBatch:
    """Evaluate ``(name, fn, cost)`` column specs over every live row."""
    out_columns = [[] for _ in column_specs]
    for row in batch.iter_rows():
        cursor.values = row
        for j, (_, fn, _) in enumerate(column_specs):
            out_columns[j].append(box(fn(cursor)))
    return RecordBatch(out_schema, out_columns, rows=batch.num_rows)


def distinct_batch(batch: RecordBatch, seen: set) -> RecordBatch:
    """Keep the first occurrence of each row value tuple, folding into
    the caller's cross-batch ``seen`` set."""
    kept = []
    position = 0
    for row in batch.iter_rows():
        if row not in seen:
            seen.add(row)
            kept.append(position)
        position += 1
    return batch.take(kept)


def scatter_batch(batch: RecordBatch, key_fn, num_partitions: int,
                  worker: int, out_rows, moved) -> None:
    """Hash-partition one batch's rows into per-target row lists.

    ``key_fn`` takes the raw value tuple.  Rows leaving ``worker`` are
    also appended to ``moved`` (the exchange's network accounting input,
    in send order — the sampled-size estimator depends on that order).
    """
    for row in batch.iter_rows():
        target = hash(key_fn(row)) % num_partitions
        out_rows[target].append(row)
        if target != worker:
            moved.append(row)


def fold_groups(batch: RecordBatch, keys, aggregates, table: dict,
                cursor: Record) -> None:
    """Phase-1 GROUP BY fold of one batch into a per-worker hash table.

    Mirrors the row loop exactly: dict insertion order (and so partial
    emission order) matches the row engine's.
    """
    for row in batch.iter_rows():
        cursor.values = row
        key = tuple(key_fn(cursor) for _, key_fn in keys)
        states = table.get(key)
        if states is None:
            states = [agg.init() for agg in aggregates]
            table[key] = states
        for i, agg in enumerate(aggregates):
            states[i] = agg.add(states[i], cursor)


def fold_scalar(batch: RecordBatch, aggregates, states: list,
                cursor: Record) -> None:
    """Fold one batch into scalar-aggregate partial states."""
    for row in batch.iter_rows():
        cursor.values = row
        for i, agg in enumerate(aggregates):
            states[i] = agg.add(states[i], cursor)
