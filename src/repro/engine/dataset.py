"""Partitioned datasets stored across the simulated cluster."""

from __future__ import annotations

from repro.engine.record import Record, Schema
from repro.errors import ExecutionError
from repro.serde.values import box


class PartitionedDataset:
    """A dataset split into ``num_partitions`` lists of records.

    Storage partitioning is by hash of the primary key (like AsterixDB's
    hash-partitioned storage), so scans are evenly spread and equality
    predicates on the key could be routed — the engine only relies on the
    even spread.
    """

    __slots__ = ("name", "schema", "partitions", "primary_key",
                 "type_name", "_bytes_cache")

    def __init__(self, name: str, schema: Schema, num_partitions: int,
                 primary_key: str = None, type_name: str = None) -> None:
        if num_partitions < 1:
            raise ExecutionError(f"need >= 1 partition, got {num_partitions}")
        if primary_key is not None and primary_key not in schema:
            raise ExecutionError(
                f"primary key {primary_key!r} is not a field of {schema}")
        self.name = name
        self.schema = schema
        self.partitions = [[] for _ in range(num_partitions)]
        self.primary_key = primary_key
        #: The ``CREATE TYPE`` this dataset was declared with (None for
        #: a dataset made on a bare cluster, or a virtual table's snapshot).
        self.type_name = type_name
        self._bytes_cache = None

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    def __repr__(self) -> str:
        return (
            f"PartitionedDataset({self.name!r}, {len(self)} records, "
            f"{self.num_partitions} partitions)"
        )

    def insert(self, mapping) -> None:
        """Insert one row (a plain mapping); routed by primary-key hash."""
        self.bulk_load((mapping,))

    def insert_record(self, record: Record) -> None:
        """Insert an already-built record."""
        if record.schema != self.schema:
            raise ExecutionError(
                f"record schema {record.schema} does not match dataset "
                f"schema {self.schema}"
            )
        if self.primary_key is not None:
            key = record[self.primary_key]
            index = hash(key) % self.num_partitions
        else:
            index = len(self) % self.num_partitions
        self.partitions[index].append(record)
        self._bytes_cache = None

    def bulk_load(self, rows) -> int:
        """Insert an iterable of plain mappings; returns the number
        inserted.

        Each row is built in one pass: one ``box`` per field, one
        :class:`Record`.  It goes to the partition its primary key hashes
        to (without a key, the partitions take rows in turn), as
        :meth:`insert_record` places a record.  A row that fails — a
        missing field raises ``KeyError``, a value that cannot be boxed
        ``SerdeError`` — raises with the rows before it inserted.
        """
        schema = self.schema
        fields = schema.fields
        partitions = self.partitions
        num = len(partitions)
        key_at = (None if self.primary_key is None
                  else schema.index_of(self.primary_key))
        dealt = len(self)
        count = 0
        self._bytes_cache = None
        for row in rows:
            values = tuple([box(row[name]) for name in fields])
            record = Record(schema, values)
            if key_at is None:
                index = (dealt + count) % num
            else:
                index = hash(values[key_at]) % num
            partitions[index].append(record)
            count += 1
        return count

    def total_bytes(self) -> int:
        """Wire size of the whole dataset — the catalog statistic the
        admission controller uses to estimate a query's reservation.
        Cached until the next insert (bulk loads invalidate per row but
        the sum is only computed on demand)."""
        if self._bytes_cache is None:
            self._bytes_cache = sum(
                record.serialized_size() for record in self.scan()
            )
        return self._bytes_cache

    def scan(self):
        """Yield every record (all partitions, in partition order)."""
        for partition in self.partitions:
            yield from partition

    def clone_partitions(self) -> list:
        """Shallow-copied partition lists, safe for operators to consume."""
        return [list(p) for p in self.partitions]
