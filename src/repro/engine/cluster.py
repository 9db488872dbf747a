"""The simulated shared-nothing cluster and its one registry of relations.

Every relation a query can name lives in one map on the cluster: a
stored :class:`~repro.engine.dataset.PartitionedDataset` (which carries
its own type name and primary key) or a :class:`VirtualTable` (a
``sys.*`` table: typed fields and a provider of its current rows).  The
catalog checks DDL against this map and keeps no copy of it.
"""

from __future__ import annotations

from repro.engine.costs import CostModel, DEFAULT_COST_MODEL
from repro.engine.dataset import PartitionedDataset
from repro.engine.record import Schema
from repro.errors import ExecutionError


class VirtualTable:
    """A provider-backed relation (the ``sys.*`` tables).

    ``fields`` is ``((field_name, type_name), ...)``; ``provider()``
    returns the current rows as plain mappings.  Nothing is stored: a
    fresh snapshot is materialized on every :meth:`Cluster.dataset`
    lookup, so scans always see the current engine state.
    """

    __slots__ = ("name", "fields", "schema", "provider")

    def __init__(self, name: str, fields, provider) -> None:
        self.name = name
        self.fields = tuple(fields)
        self.schema = Schema(field_name for field_name, _ in self.fields)
        self.provider = provider

    def materialize(self, num_partitions: int) -> PartitionedDataset:
        # No primary key: rows round-robin across partitions, which is
        # deterministic (hash-partitioning on string keys is not, under
        # per-process hash randomization).
        dataset = PartitionedDataset(self.name, self.schema, num_partitions)
        dataset.bulk_load(self.provider())
        return dataset


class Cluster:
    """A fixed set of simulated worker partitions plus a core budget.

    ``num_partitions`` is the data-parallelism degree (one partition per
    worker slot, like AsterixDB's one-partition-per-iodevice layout);
    ``cores`` is the compute budget used when converting charged work into
    simulated time.  Queries always execute correctly regardless of either
    number — only the simulated timings change.
    """

    def __init__(self, num_partitions: int = 12, cores: int = 12,
                 cost_model: CostModel = None) -> None:
        if num_partitions < 1:
            raise ExecutionError(f"need >= 1 partition, got {num_partitions}")
        if cores < 1:
            raise ExecutionError(f"need >= 1 core, got {cores}")
        self.num_partitions = num_partitions
        self.cores = cores
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        #: Which execution backend queries on this cluster use:
        #: ``"serial"`` (simulated workers, the deterministic default) or
        #: ``"process"`` (a supervised pool of real worker processes).
        #: The database owning the cluster keeps this in sync.
        self.backend = "serial"
        #: name -> PartitionedDataset | VirtualTable
        self._relations = {}

    def __repr__(self) -> str:
        return (
            f"Cluster({self.num_partitions} partitions, {self.cores} cores, "
            f"{self.backend} backend, {len(self.dataset_names())} datasets)"
        )

    # -- the registry -----------------------------------------------------------

    def create_dataset(self, name: str, schema: Schema,
                       primary_key: str = None,
                       type_name: str = None) -> PartitionedDataset:
        """Create and register an empty partitioned dataset."""
        return self._register(PartitionedDataset(
            name, schema, self.num_partitions, primary_key, type_name))

    def register_virtual_table(self, name: str, fields,
                               provider) -> VirtualTable:
        """Register a provider-backed relation (the ``sys.*`` tables)."""
        return self._register(VirtualTable(name, fields, provider))

    def _register(self, relation):
        if relation.name in self._relations:
            raise ExecutionError(f"dataset already exists: {relation.name}")
        self._relations[relation.name] = relation
        return relation

    def relation(self, name: str):
        """The relation registered as ``name`` — a stored dataset or a
        :class:`VirtualTable`, not materialized — or None."""
        return self._relations.get(name)

    def dataset(self, name: str) -> PartitionedDataset:
        """Look up a dataset by name (materializing virtual tables)."""
        relation = self._relations.get(name)
        if relation is None:
            raise ExecutionError(f"no such dataset: {name}")
        if isinstance(relation, VirtualTable):
            return relation.materialize(self.num_partitions)
        return relation

    def drop_dataset(self, name: str) -> None:
        """Remove a stored dataset (raises when absent)."""
        if not isinstance(self._relations.get(name), PartitionedDataset):
            raise ExecutionError(f"no such dataset: {name}")
        del self._relations[name]

    def has_dataset(self, name: str) -> bool:
        return name in self._relations

    def dataset_names(self) -> list:
        """The stored datasets' names, sorted (virtual tables are never
        listed, and so never persisted)."""
        return sorted(name for name, relation in self._relations.items()
                      if isinstance(relation, PartitionedDataset))
