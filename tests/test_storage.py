"""Tests for database persistence (save/load)."""

import hashlib
import json
import struct

import pytest

from repro.bench import SPATIAL_SQL, spatial_database
from repro.database import Database
from repro.serde.serializer import serialize_value
from repro.serde.values import box
from repro.storage import StorageError, load_database, save_database

_U32 = struct.Struct(">I")
_MAGIC = b"FUDJDB1\n"


@pytest.fixture()
def saved(tmp_path):
    db = spatial_database(60, 300, partitions=4, grid_n=8, seed=1)
    save_database(db, tmp_path / "db")
    return db, tmp_path / "db"


class TestRoundTrip:
    def test_layout(self, saved):
        _, path = saved
        assert (path / "catalog.json").exists()
        assert (path / "data" / "Parks.bin").exists()
        assert (path / "data" / "Wildfires.bin").exists()

    def test_data_survives(self, saved):
        original, path = saved
        loaded = load_database(path)
        for name in ("Parks", "Wildfires"):
            a = sorted(map(repr, original.cluster.dataset(name).scan()))
            b = sorted(map(repr, loaded.cluster.dataset(name).scan()))
            assert a == b

    def test_partition_layout_preserved(self, saved):
        original, path = saved
        loaded = load_database(path)
        for name in ("Parks", "Wildfires"):
            assert [len(p) for p in original.cluster.dataset(name).partitions] \
                == [len(p) for p in loaded.cluster.dataset(name).partitions]

    def test_queries_give_same_answers(self, saved):
        original, path = saved
        loaded = load_database(path)
        a = original.execute(SPATIAL_SQL, mode="fudj")
        b = loaded.execute(SPATIAL_SQL, mode="fudj")
        assert sorted(map(repr, a.rows)) == sorted(map(repr, b.rows))

    def test_joins_reconnected(self, saved):
        _, path = saved
        loaded = load_database(path)
        assert "st_contains" in loaded.joins
        assert "FUDJ JOIN" in loaded.explain(SPATIAL_SQL)

    def test_cluster_config_preserved(self, saved):
        original, path = saved
        loaded = load_database(path)
        assert loaded.cluster.num_partitions == original.cluster.num_partitions
        assert loaded.cluster.cores == original.cluster.cores

    def test_empty_database(self, tmp_path):
        db = Database(num_partitions=3)
        save_database(db, tmp_path / "empty")
        loaded = load_database(tmp_path / "empty")
        assert loaded.catalog.dataset_names() == []

    def test_dataset_without_rows(self, tmp_path):
        db = Database(num_partitions=2)
        db.create_type("T", [("id", "int")])
        db.create_dataset("D", "T", "id")
        save_database(db, tmp_path / "d")
        loaded = load_database(tmp_path / "d")
        assert len(loaded.cluster.dataset("D")) == 0

    def test_bytes_are_pinned(self, saved):
        # The on-disk layout of one seeded database, file by file: a change
        # to how records are framed or the catalog is written shows here.
        _, path = saved
        digests = {
            file.relative_to(path).as_posix():
                hashlib.sha256(file.read_bytes()).hexdigest()
            for file in [path / "catalog.json",
                         *sorted((path / "data").glob("*.bin"))]
        }
        assert digests == PINNED_DIGESTS

    def test_resave_overwrites(self, saved):
        from repro.geometry import Point

        original, path = saved
        original.load("Wildfires", [{
            "id": 999, "location": Point(1, 1),
            "fire_start": 0.0, "fire_end": 1.0,
        }])
        save_database(original, path)
        loaded = load_database(path)
        assert len(loaded.cluster.dataset("Wildfires")) == 301


class TestCorruption:
    def test_missing_catalog(self, tmp_path):
        with pytest.raises(StorageError, match="catalog.json"):
            load_database(tmp_path / "nope")

    def test_corrupt_catalog(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "catalog.json").write_text("{ not json")
        with pytest.raises(StorageError, match="corrupt"):
            load_database(root)

    def test_wrong_version(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "catalog.json").write_text(json.dumps(
            {"format": "fudj-db", "version": 99}
        ))
        with pytest.raises(StorageError, match="unsupported"):
            load_database(root)

    def test_missing_data_file(self, saved):
        _, path = saved
        (path / "data" / "Parks.bin").unlink()
        with pytest.raises(StorageError, match="missing data file"):
            load_database(path)

    def test_bad_magic(self, saved):
        _, path = saved
        (path / "data" / "Parks.bin").write_bytes(b"garbage")
        with pytest.raises(StorageError, match="bad magic"):
            load_database(path)

    def test_truncated_data(self, saved):
        _, path = saved
        data_file = path / "data" / "Parks.bin"
        data_file.write_bytes(data_file.read_bytes()[:-10])
        with pytest.raises(StorageError):
            load_database(path)

    def test_record_length_mismatch(self, saved):
        # The first record's frame holds one value more than its type has.
        _, path = saved
        data_file = path / "data" / "Parks.bin"
        data = data_file.read_bytes()
        (length,) = _U32.unpack_from(data, len(_MAGIC))
        start = len(_MAGIC) + _U32.size
        extra = bytearray()
        serialize_value(box(7), extra)
        data_file.write_bytes(
            _MAGIC + _U32.pack(length + len(extra))
            + data[start:start + length] + bytes(extra)
            + data[start + length:])
        with pytest.raises(StorageError, match="record length mismatch"):
            load_database(path)

    def test_record_shorter_than_its_values(self, saved):
        # The first record's length prefix ends one byte inside its last
        # value.
        _, path = saved
        data_file = path / "data" / "Parks.bin"
        data = bytearray(data_file.read_bytes())
        (length,) = _U32.unpack_from(data, len(_MAGIC))
        _U32.pack_into(data, len(_MAGIC), length - 1)
        data_file.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_database(path)

    def test_trailing_bytes(self, saved):
        _, path = saved
        data_file = path / "data" / "Parks.bin"
        data_file.write_bytes(data_file.read_bytes() + b"\x00")
        with pytest.raises(StorageError, match="trailing bytes"):
            load_database(path)


#: SHA-256 of each file ``save_database`` writes for the ``saved`` fixture.
PINNED_DIGESTS = {
    "catalog.json":
        "804ca58f7e55937af62704da96e9d6dd4acacc17922fb2881b2603e837c48e82",
    "data/Parks.bin":
        "c379c234502f7b72d22e75afa69667aa833de573182abfa2aa6089d716436a16",
    "data/Wildfires.bin":
        "448e690aba41e57ed4e107ba4d02af2dd1259fbf938fbbb327408715235e87db",
}
