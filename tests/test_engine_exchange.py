"""Unit tests for the exchange (shuffle) primitives."""

import json

import pytest

from repro import FaultPlan
from repro.engine import Cluster, Record, Schema
from repro.engine.context import ExecutionContext
from repro.engine.exchange import (
    broadcast_exchange,
    by_bucket,
    entry_size,
    hash_exchange,
    random_exchange,
    record_size,
    round_robin,
    route_exchange,
)
from repro.engine.record import entry_sizes, serialized_values_size
from repro.serde.values import unbox


def make_partitions(ctx, count):
    schema = Schema(["k", "v"])
    partitions = [[] for _ in range(ctx.num_partitions)]
    for i in range(count):
        partitions[i % ctx.num_partitions].append(
            Record.from_dict(schema, {"k": i, "v": f"val{i}"})
        )
    return partitions


class Tagged:
    """An item that sizes itself, as the duplicate-elimination shuffle's
    ``(pair_id, record)`` rows do: 16 bytes of tag, then the record."""

    def __init__(self, record):
        self.record = record

    def serialized_size(self):
        return 16 + self.record.serialized_size()


def make_entries(ctx, count):
    """Join entries ``(bucket_id, key, row, size, rid)``."""
    out = []
    for partition in make_partitions(ctx, count):
        rows = [record.values for record in partition]
        out.append([(i, None, row, size, -1 - i) for i, (row, size)
                    in enumerate(zip(rows, entry_sizes(rows)))])
    return out


def route_to_two(entries, ctx, stage_name):
    """The one multi-target route: every entry goes to two workers."""
    num = ctx.num_partitions
    return route_exchange(
        entries, ctx, stage_name,
        lambda entry: (entry[0] % num, (entry[0] + 1) % num),
        ctx.cost_model.hash_op, entry_size)


class TestHashExchange:
    def setup_method(self):
        self.ctx = ExecutionContext(Cluster(num_partitions=4))

    def test_preserves_all_records(self):
        partitions = make_partitions(self.ctx, 40)
        out = hash_exchange(partitions, lambda r: r["k"], self.ctx)
        assert sum(len(p) for p in out) == 40

    def test_same_key_lands_together(self):
        schema = Schema(["k"])
        partitions = [[Record.from_dict(schema, {"k": 7})] for _ in range(4)]
        out = hash_exchange(partitions, lambda r: r["k"], self.ctx)
        nonempty = [p for p in out if p]
        assert len(nonempty) == 1
        assert len(nonempty[0]) == 4

    def test_charges_network_bytes(self):
        partitions = make_partitions(self.ctx, 40)
        hash_exchange(partitions, lambda r: r["k"], self.ctx, "x")
        assert self.ctx.metrics.stage("x").network_bytes > 0
        # Two deliveries per entry: each is charged, and each that leaves
        # its worker is sized — as an entry, 9 bytes over its row.
        entries = make_entries(self.ctx, 40)
        assert all(entry_size(entry) == 9 + serialized_values_size(entry[2])
                   for partition in entries for entry in partition)
        route_to_two(entries, self.ctx, "two")
        stage = self.ctx.metrics.stage("two")
        moved = sum(
            entry_size(entry)
            for worker, partition in enumerate(entries) for entry in partition
            for target in (entry[0] % 4, (entry[0] + 1) % 4)
            if target != worker)
        model = self.ctx.cost_model
        assert stage.network_bytes == moved
        assert (stage.records_in, stage.records_out) == (40, 80)
        assert stage.total_units() == pytest.approx(
            80 * model.hash_op + moved * model.serde_byte)

    def test_deterministic(self):
        partitions = make_partitions(self.ctx, 20)
        a = hash_exchange([list(p) for p in partitions], lambda r: r["k"], self.ctx)
        b = hash_exchange([list(p) for p in partitions], lambda r: r["k"], self.ctx)
        assert [[r.to_dict() for r in p] for p in a] == [
            [r.to_dict() for r in p] for p in b
        ]


class TestRouteTargets:
    """A single-target route answers an ``int``; the same worker as a
    one-element tuple places, charges and sizes every item alike."""

    def route(self, targets_of, traced=False):
        ctx = ExecutionContext(Cluster(num_partitions=4), trace=traced)
        entries = make_entries(ctx, 37)
        with ctx.tracer.span("query", kind="operator"):
            out = route_exchange(entries, ctx, "x", targets_of,
                                 ctx.cost_model.hash_op, entry_size)
        stage = ctx.metrics.stage("x")
        placed = [[entry[4] for entry in partition] for partition in out]
        trace = (ctx.tracer.root.total_units(),
                 json.dumps(ctx.tracer.root.to_dict())) if traced else None
        return (placed, dict(stage.worker_units), stage.network_bytes,
                stage.records_in, stage.records_out, trace)

    @pytest.mark.parametrize("traced", [False, True])
    def test_an_int_and_a_one_tuple_route_alike(self, traced):
        as_int = self.route(lambda entry: (entry[0] * 3 + 1) % 4, traced)
        as_tuple = self.route(lambda entry: ((entry[0] * 3 + 1) % 4,),
                              traced)
        assert as_int == as_tuple
        placed, units, moved_bytes = as_int[:3]
        assert sorted(rid for part in placed for rid in part) == sorted(
            entry[4] for part in make_entries(self.ctx(), 37)
            for entry in part)
        assert moved_bytes > 0 and all(units.values())
        if traced:  # the exchange's span mirrors each charge
            assert as_int[5][0] == pytest.approx(sum(units.values()))

    def test_the_shipped_routes_answer_an_int(self):
        entry = (7, None, (), 9, -1)
        assert type(by_bucket(4)(entry)) is int
        assert type(round_robin(4)(entry)) is int

    @staticmethod
    def ctx():
        return ExecutionContext(Cluster(num_partitions=4))


class TestBroadcastExchange:
    def setup_method(self):
        self.ctx = ExecutionContext(Cluster(num_partitions=3))

    def test_every_worker_gets_everything(self):
        partitions = make_partitions(self.ctx, 9)
        out = broadcast_exchange(partitions, self.ctx)
        for partition in out:
            assert len(partition) == 9

    def test_fabric_cost_scales_with_replicas(self):
        partitions = make_partitions(self.ctx, 9)
        broadcast_exchange(partitions, self.ctx, "b")
        stage = self.ctx.metrics.stage("b")
        one_copy = sum(
            r.serialized_size() for p in partitions for r in p
        )
        # Broadcast replication saturates the shared fabric, not the NICs.
        assert stage.fabric_bytes == one_copy * 2  # P - 1 replicas
        assert stage.network_bytes == 0

    def test_empty_input(self):
        out = broadcast_exchange([[] for _ in range(3)], self.ctx)
        assert all(p == [] for p in out)


class TestRandomExchange:
    def setup_method(self):
        self.ctx = ExecutionContext(Cluster(num_partitions=4))

    def test_balanced(self):
        partitions = make_partitions(self.ctx, 40)
        out = random_exchange(partitions, self.ctx)
        assert [len(p) for p in out] == [10, 10, 10, 10]

    def test_preserves_records(self):
        partitions = make_partitions(self.ctx, 17)
        out = random_exchange(partitions, self.ctx)
        moved = sorted(unbox(r["k"]) for p in out for r in p)
        assert moved == list(range(17))


class TestCheckpointCharge:
    """The checkpoint copy of an exchange is charged — and sized — only
    under a checkpointing plan, and then for every received record."""

    def contexts(self):
        cluster = Cluster(num_partitions=4)
        return (ExecutionContext(cluster),
                ExecutionContext(cluster, fault_plan=FaultPlan(seed=1)))

    def test_hash_and_random_spool_every_received_record(self):
        def tagged(ctx, count):
            return [[Tagged(r) for r in p] for p in make_partitions(ctx, count)]

        for exchange, make_inputs, size_of, copies in (
                (lambda p, ctx: hash_exchange(p, lambda r: r["k"], ctx, "x"),
                 make_partitions, record_size, 1),
                (lambda p, ctx: random_exchange(p, ctx, "x"),
                 make_partitions, record_size, 1),
                (lambda p, ctx: hash_exchange(p, lambda t: t.record["k"],
                                              ctx, "x"),
                 tagged, record_size, 1),
                (lambda p, ctx: route_to_two(p, ctx, "x"),
                 make_entries, entry_size, 2)):
            plain, checkpointing = self.contexts()
            exchange(make_inputs(plain, 40), plain)
            out = exchange(make_inputs(checkpointing, 40), checkpointing)
            assert sum(len(p) for p in out) == 40 * copies
            received = sum(size_of(item) for p in out for item in p)
            assert plain.metrics.checkpoint_bytes == 0.0
            assert checkpointing.metrics.checkpoint_bytes == received
            extra = (checkpointing.metrics.stage("x").total_units()
                     - plain.metrics.stage("x").total_units())
            model = plain.cost_model
            assert 0.0 < extra <= model.checkpoint_write_units(received) * 1.01

    def test_broadcast_spools_one_copy(self):
        plain, checkpointing = self.contexts()
        broadcast_exchange(make_partitions(plain, 9), plain)
        partitions = make_partitions(checkpointing, 9)
        broadcast_exchange(partitions, checkpointing)
        assert plain.metrics.checkpoint_bytes == 0.0
        assert checkpointing.metrics.checkpoint_bytes == sum(
            r.serialized_size() for p in partitions for r in p)

    def test_records_that_stay_put_are_not_sized_without_a_plan(self):
        ctx = ExecutionContext(Cluster(num_partitions=1))
        partitions = make_partitions(ctx, 5)
        hash_exchange(partitions, lambda r: r["k"], ctx)
        # One worker: nothing moves, nothing is checkpointed, so nothing
        # had a reason to serialize a record just to count its bytes.
        assert all(r._size is None for r in partitions[0])
