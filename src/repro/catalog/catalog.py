"""Catalog metadata: types, and the DDL checks on relations.

The catalog owns ``CREATE TYPE``.  The relations themselves — stored
datasets, each carrying its type name and primary key, and the ``sys.*``
virtual tables — live in one map, the cluster's
(:meth:`~repro.engine.cluster.Cluster.relation`): the catalog checks DDL
against that map and answers lookups by reading it.  The join registry
owns FUDJ libraries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.cluster import VirtualTable
from repro.engine.dataset import PartitionedDataset
from repro.engine.record import Schema
from repro.errors import CatalogError

#: Field types the DDL accepts.  They are descriptive — records carry
#: boxed values whose runtime type is authoritative — but the parser and
#: examples use them, so unknown names are rejected early.
VALID_FIELD_TYPES = frozenset({
    "uuid", "string", "text", "int", "int64", "bigint", "float", "double",
    "boolean", "geometry", "point", "polygon", "rectangle", "interval",
    "datetime", "list", "trajectory",
})


@dataclass(frozen=True)
class TypeInfo:
    """A named record type: ``CREATE TYPE``."""

    name: str
    fields: tuple  # ((field_name, type_name), ...)

    @property
    def field_names(self) -> tuple:
        return tuple(name for name, _ in self.fields)


class Catalog:
    """Types, and the DDL checks on one cluster's relations.

    A virtual table (``sys.*``) resolves through :meth:`dataset_info`
    like any dataset, so the binder and planner need no special cases;
    it is left out of :meth:`dataset_names` (and therefore out of
    persistence) and cannot be created, dropped or loaded into.
    """

    def __init__(self, cluster) -> None:
        self._types = {}
        self._cluster = cluster

    # -- types ----------------------------------------------------------------

    def create_type(self, name: str, fields) -> TypeInfo:
        if name in self._types:
            raise CatalogError(f"type already exists: {name}")
        normalized = _checked_fields(name, fields)
        if not normalized:
            raise CatalogError(f"type {name} has no fields")
        info = TypeInfo(name, normalized)
        self._types[name] = info
        return info

    def type_info(self, name: str) -> TypeInfo:
        try:
            return self._types[name]
        except KeyError:
            raise CatalogError(f"no such type: {name}") from None

    def has_type(self, name: str) -> bool:
        return name in self._types

    def type_names(self) -> list:
        return sorted(self._types)

    # -- datasets --------------------------------------------------------------

    def create_dataset(self, name: str, type_name: str,
                       primary_key: str) -> PartitionedDataset:
        relation = self._cluster.relation(name)
        if isinstance(relation, PartitionedDataset):
            raise CatalogError(f"dataset already exists: {name}")
        if relation is not None or name.lower().startswith("sys."):
            raise CatalogError(
                f"cannot create dataset {name}: the sys.* namespace is "
                f"reserved for virtual tables"
            )
        type_info = self.type_info(type_name)
        if primary_key not in type_info.field_names:
            raise CatalogError(
                f"primary key {primary_key!r} is not a field of type {type_name}"
            )
        return self._cluster.create_dataset(
            name, Schema(type_info.field_names), primary_key, type_name)

    def drop_dataset(self, name: str) -> None:
        self.stored_dataset(name, "drop")
        self._cluster.drop_dataset(name)

    def stored_dataset(self, name: str,
                       action: str = "load into") -> PartitionedDataset:
        """The stored dataset ``name``; raises for an unknown name and
        for a virtual table (``action`` words that error)."""
        relation = self.dataset_info(name)
        if isinstance(relation, VirtualTable):
            raise CatalogError(f"cannot {action} virtual table: {name}")
        return relation

    def dataset_info(self, name: str):
        """The relation ``name`` (a stored dataset or a virtual table)."""
        relation = self._cluster.relation(name)
        if relation is None:
            raise CatalogError(f"no such dataset: {name}")
        return relation

    def has_dataset(self, name: str) -> bool:
        return self._cluster.relation(name) is not None

    def dataset_names(self) -> list:
        """Stored datasets only — virtual tables are never persisted."""
        return self._cluster.dataset_names()

    # -- virtual tables --------------------------------------------------------

    def register_virtual_table(self, name: str, fields,
                               provider) -> VirtualTable:
        """Register an engine-provided relation (``sys.*``).

        ``fields`` is ``[(field_name, type_name), ...]``, validated like
        ``CREATE TYPE`` fields; ``provider()`` returns the current rows.
        """
        return self._cluster.register_virtual_table(
            name, _checked_fields(name, fields), provider)


def _checked_fields(owner: str, fields) -> tuple:
    """``fields`` with lower-cased type names; raises on an unknown type."""
    normalized = []
    for field_name, type_name in fields:
        type_name = type_name.lower()
        if type_name not in VALID_FIELD_TYPES:
            raise CatalogError(
                f"unknown field type {type_name!r} for {owner}.{field_name}"
            )
        normalized.append((field_name, type_name))
    return tuple(normalized)
