"""Unit tests for partitioned datasets and the cluster."""

import pytest

from repro.engine import Cluster, PartitionedDataset, Record, Schema
from repro.errors import ExecutionError


class TestPartitionedDataset:
    def setup_method(self):
        self.schema = Schema(["id", "value"])

    def test_insert_and_len(self):
        ds = PartitionedDataset("t", self.schema, 4, primary_key="id")
        for i in range(10):
            ds.insert({"id": i, "value": i * 10})
        assert len(ds) == 10

    def test_partitioning_spreads_records(self):
        ds = PartitionedDataset("t", self.schema, 4, primary_key="id")
        for i in range(100):
            ds.insert({"id": i, "value": 0})
        nonempty = [p for p in ds.partitions if p]
        assert len(nonempty) == 4

    def test_same_key_same_partition(self):
        ds = PartitionedDataset("t", self.schema, 8, primary_key="id")
        ds.insert({"id": 5, "value": 1})
        ds.insert({"id": 5, "value": 2})
        sizes = [len(p) for p in ds.partitions]
        assert max(sizes) == 2
        assert sum(sizes) == 2

    def test_round_robin_without_primary_key(self):
        ds = PartitionedDataset("t", self.schema, 3)
        for i in range(9):
            ds.insert({"id": i, "value": 0})
        assert [len(p) for p in ds.partitions] == [3, 3, 3]

    def test_scan_yields_everything(self):
        ds = PartitionedDataset("t", self.schema, 4, primary_key="id")
        ds.bulk_load({"id": i, "value": i} for i in range(25))
        assert len(list(ds.scan())) == 25

    def test_bulk_load_returns_count(self):
        ds = PartitionedDataset("t", self.schema, 2)
        assert ds.bulk_load([{"id": 1, "value": 2}]) == 1

    def test_insert_record_schema_mismatch(self):
        from repro.engine import Record

        ds = PartitionedDataset("t", self.schema, 2)
        bad = Record.from_dict(Schema(["other"]), {"other": 1})
        with pytest.raises(ExecutionError):
            ds.insert_record(bad)

    def test_a_primary_key_outside_the_schema_is_rejected(self):
        with pytest.raises(ExecutionError, match="not a field"):
            PartitionedDataset("t", self.schema, 2, primary_key="nope")

    def test_zero_partitions_rejected(self):
        with pytest.raises(ExecutionError):
            PartitionedDataset("t", self.schema, 0)

    def test_clone_partitions_is_shallow_copy(self):
        ds = PartitionedDataset("t", self.schema, 2)
        ds.insert({"id": 1, "value": 2})
        clone = ds.clone_partitions()
        clone[0].clear()
        clone[1].clear()
        assert len(ds) == 1


class TestCluster:
    def test_create_and_lookup(self):
        cluster = Cluster(num_partitions=4)
        ds = cluster.create_dataset("t", Schema(["id"]), "id")
        assert cluster.dataset("t") is ds
        assert cluster.has_dataset("t")
        assert cluster.dataset_names() == ["t"]

    def test_duplicate_dataset_rejected(self):
        cluster = Cluster()
        cluster.create_dataset("t", Schema(["id"]))
        with pytest.raises(ExecutionError):
            cluster.create_dataset("t", Schema(["id"]))

    def test_missing_dataset(self):
        with pytest.raises(ExecutionError):
            Cluster().dataset("nope")

    def test_drop_dataset(self):
        cluster = Cluster()
        cluster.create_dataset("t", Schema(["id"]))
        cluster.drop_dataset("t")
        assert not cluster.has_dataset("t")
        with pytest.raises(ExecutionError):
            cluster.drop_dataset("t")

    def test_invalid_sizes(self):
        with pytest.raises(ExecutionError):
            Cluster(num_partitions=0)
        with pytest.raises(ExecutionError):
            Cluster(cores=0)


# -- bulk_load: one pass per row, the insert loop's placement and errors ----------


def _insert_loop(dataset, rows):
    """What ``bulk_load`` did before it built rows in one pass: build
    each record from its mapping and place it, row by row."""
    error = None
    try:
        for row in rows:
            dataset.insert_record(Record.from_dict(dataset.schema, row))
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        error = exc
    return error


def _bulk(dataset, rows):
    error = None
    try:
        dataset.bulk_load(rows)
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        error = exc
    return error


def _contents(dataset):
    return [[record.values for record in partition]
            for partition in dataset.partitions]


GOOD = [{"id": i, "value": f"v{i}"} for i in range(7)]


@pytest.mark.parametrize("primary_key", ["id", None])
@pytest.mark.parametrize("bad_row", [
    {"id": 3},                          # a field missing
    {"id": 3, "value": object()},       # a value that cannot be boxed
    {"id": 3, "value": [1, object()]},  # ... inside a list
], ids=["missing-field", "unboxable", "unboxable-item"])
def test_bulk_load_fails_where_the_insert_loop_failed(primary_key, bad_row):
    rows = GOOD[:3] + [bad_row] + GOOD[3:]
    schema = Schema(["id", "value"])
    looped = PartitionedDataset("t", schema, 3, primary_key=primary_key)
    bulk = PartitionedDataset("t", schema, 3, primary_key=primary_key)
    expected = _insert_loop(looped, rows)
    got = _bulk(bulk, rows)
    assert type(got) is type(expected) and expected is not None
    assert str(got) == str(expected)
    assert _contents(bulk) == _contents(looped)
    assert len(bulk) == 3


@pytest.mark.parametrize("primary_key", ["id", None])
def test_bulk_load_places_rows_as_the_insert_loop_did(primary_key):
    schema = Schema(["id", "value"])
    looped = PartitionedDataset("t", schema, 4, primary_key=primary_key)
    bulk = PartitionedDataset("t", schema, 4, primary_key=primary_key)
    for dataset in (looped, bulk):  # a dataset that is not empty
        dataset.insert({"id": 100, "value": "first"})
    rows = [{"id": i, "value": None if i % 3 else float(i)}
            for i in range(30)]
    assert _insert_loop(looped, rows) is None
    assert bulk.bulk_load(iter(rows)) == 30
    assert _contents(bulk) == _contents(looped)
