"""Database persistence: save/load through the engine's wire format.

``save_database`` writes a directory layout::

    <path>/catalog.json          types, datasets, joins, cluster config
    <path>/data/<dataset>.bin    one length-prefixed record frame per
                                 record, one stream per dataset
                                 (partition boundaries recorded in the
                                 catalog)

A record is stored as the same frame a spill file and a worker pipe
carry (:func:`~repro.engine.resources.encode_frame` behind
:func:`~repro.engine.resources.write_frame`), so persistence doubles as
an end-to-end serde exercise: everything that can be stored can cross
the simulated network, and vice versa.

Join libraries are saved by *reference* (class path + defaults) — code is
not serialized; loading re-imports the classes, exactly like AsterixDB
re-linking an installed library after a restart.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from repro.core.library import load_join_class
from repro.database import Database
from repro.engine.record import Record
from repro.engine.resources import (
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.errors import ReproError, SerdeError

_MAGIC = b"FUDJDB1\n"


class StorageError(ReproError):
    """The on-disk layout is missing, corrupt, or incompatible."""


def save_database(db: Database, path) -> None:
    """Persist ``db`` (schema, data, join registrations) under ``path``.

    The directory is created; existing files of a previous save are
    overwritten.  Built-in operator factories (plain callables) are not
    persisted — re-run ``install_builtin_joins`` after loading.
    """
    root = Path(path)
    (root / "data").mkdir(parents=True, exist_ok=True)

    datasets = {}
    for name in db.catalog.dataset_names():
        dataset = db.catalog.dataset_info(name)
        datasets[name] = {
            "type": dataset.type_name,
            "primary_key": dataset.primary_key,
            "partition_sizes": [len(p) for p in dataset.partitions],
        }
        _write_records(root / "data" / f"{name}.bin", dataset)

    types = {
        type_name: list(db.catalog.type_info(type_name).fields)
        for type_name in db.catalog.type_names()
    }

    joins = []
    for join_name in db.joins.names():
        entry = db.joins.entry(join_name)
        signature = entry.signature
        class_path = signature.class_path
        if not class_path and entry.join_class is not None:
            cls = entry.join_class
            class_path = f"{cls.__module__}.{cls.__qualname__}"
        joins.append({
            "name": signature.name,
            "param_types": list(signature.param_types),
            "class_path": class_path,
            "library": signature.library,
            "defaults": list(entry.defaults),
        })

    catalog = {
        "format": "fudj-db",
        "version": 1,
        "cluster": {
            "num_partitions": db.cluster.num_partitions,
            "cores": db.cluster.cores,
        },
        "types": types,
        "datasets": datasets,
        "joins": joins,
    }
    (root / "catalog.json").write_text(json.dumps(catalog, indent=2))


def load_database(path) -> Database:
    """Recreate a database previously written by :func:`save_database`."""
    root = Path(path)
    catalog_path = root / "catalog.json"
    if not catalog_path.exists():
        raise StorageError(f"no catalog.json under {root}")
    try:
        catalog = json.loads(catalog_path.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt catalog.json: {exc}") from exc
    if catalog.get("format") != "fudj-db" or catalog.get("version") != 1:
        raise StorageError(
            f"unsupported format/version: {catalog.get('format')!r} "
            f"v{catalog.get('version')!r}"
        )

    cluster_conf = catalog["cluster"]
    db = Database(num_partitions=cluster_conf["num_partitions"],
                  cores=cluster_conf["cores"])
    for type_name, fields in catalog["types"].items():
        db.create_type(type_name, [tuple(field) for field in fields])
    for name, meta in catalog["datasets"].items():
        dataset = db.create_dataset(name, meta["type"], meta["primary_key"])
        _read_records(root / "data" / f"{name}.bin", dataset,
                      meta["partition_sizes"])
    for join in catalog["joins"]:
        join_class = load_join_class(join["class_path"])
        db.create_join(
            join["name"], join_class,
            param_types=tuple(join["param_types"]),
            library=join["library"], defaults=tuple(join["defaults"]),
        )
    return db


def _write_records(path: Path, dataset) -> None:
    data = bytearray(_MAGIC)
    for record in dataset.scan():
        payload = encode_frame(record.values)
        if payload is None:
            raise StorageError(
                f"{dataset.name}: a record holds a value that cannot be "
                f"serialized")
        write_frame(data, payload)
    path.write_bytes(data)


def _read_records(path: Path, dataset, partition_sizes) -> None:
    if not path.exists():
        raise StorageError(f"missing data file: {path}")
    data = path.read_bytes()
    if not data.startswith(_MAGIC):
        raise StorageError(f"bad magic in {path}")
    if len(partition_sizes) != dataset.num_partitions:
        raise StorageError(
            f"{path}: saved with {len(partition_sizes)} partitions, "
            f"cluster has {dataset.num_partitions}"
        )
    schema = dataset.schema
    arity = len(schema)
    offset = len(_MAGIC)
    for partition, size in zip(dataset.partitions, partition_sizes):
        for _ in range(size):
            try:
                payload, offset = read_frame(data, offset)
                values = decode_frame(payload, 0)[1]
            except (SerdeError, struct.error, ValueError) as exc:
                # A payload cut short inside a value raises struct.error
                # (or a UnicodeDecodeError, a ValueError) from the serde
                # layer.
                raise StorageError(f"corrupt record in {path}: {exc}") from exc
            if len(values) != arity:
                raise StorageError(f"record length mismatch in {path}")
            partition.append(Record(schema, values))
    if offset != len(data):
        raise StorageError(f"trailing bytes in {path}")
