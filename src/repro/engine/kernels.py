"""Vectorized kernels over :class:`~repro.engine.batch.RecordBatch`.

Each kernel processes one batch per call — one engine dispatch instead
of one per record — and leaves cost charging to its caller, which
accumulates integer row counts and charges once per worker with the
row-mode cost expression (the byte-parity rule; see
``docs/batched_execution.md``).

The kernel contract for per-row callbacks (predicates, map functions,
group-key extractors, aggregate folds):

* Callbacks receive the raw value **tuple** of each live row, exactly as
  the row operators' loops hand it to them: both run the functions
  :func:`~repro.engine.record.row_function` makes (a bound expression
  compiled against the batch's schema, or a plain ``callable(record)``
  behind the record adapter).  Exchange key functions take the same
  tuple (row mode keys on ``record.values``, so the hashes match by
  construction).
* Kernels never mutate column lists in place; filtered and projected
  batches are views sharing their parent's columns.
"""

from __future__ import annotations

from repro.engine.batch import RecordBatch
from repro.engine.record import Schema
from repro.serde.values import box


def filter_batch(batch: RecordBatch, predicate) -> RecordBatch:
    """Selection-vector filter: keep live rows passing ``predicate``.

    Returns a zero-copy view over the input batch's columns.
    """
    return batch.take([
        position for position, row in enumerate(batch.iter_rows())
        if predicate(row)
    ])


def project_batch(batch: RecordBatch, indexes, out_schema: Schema) -> RecordBatch:
    """Column pruning: reorder/drop columns without touching row data."""
    columns = batch.columns
    return RecordBatch(out_schema, [columns[i] for i in indexes],
                       selection=batch.selection, rows=batch.num_rows)


def row_mapper(column_fns: list):
    """``fn(values)``: the boxed results of ``column_fns`` as one output
    row, evaluated left to right — MAP's per-row body in both modes."""
    return lambda values: tuple([box(fn(values)) for fn in column_fns])


def map_batch(batch: RecordBatch, compute, out_schema: Schema) -> RecordBatch:
    """Evaluate ``compute`` (a :func:`row_mapper`) over every live row."""
    return RecordBatch.from_rows(out_schema,
                                 list(map(compute, batch.iter_rows())))


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


def fold_groups(rows, key_fns, aggregates, table: dict) -> None:
    """Phase-1 GROUP BY fold of value-tuple ``rows`` (a worker's list, or
    one batch's ``iter_rows()``) into a per-worker hash table.

    ``aggregates`` are specs bound to the rows' schema
    (:meth:`~repro.engine.operators.aggregate.AggregateSpec.bind`).
    Dict insertion order — and so partial emission order — is the rows'.
    """
    adders = [agg.add for agg in aggregates]
    for row in rows:
        key = tuple([key_fn(row) for key_fn in key_fns])
        states = table.get(key)
        if states is None:
            states = [agg.init() for agg in aggregates]
            table[key] = states
        for i, add in enumerate(adders):
            states[i] = add(states[i], row)


def fold_scalar(rows, aggregates, states: list) -> None:
    """Fold value-tuple ``rows`` into scalar-aggregate partial states."""
    adders = [agg.add for agg in aggregates]
    for row in rows:
        for i, add in enumerate(adders):
            states[i] = add(states[i], row)
