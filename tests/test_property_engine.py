"""Property tests of the distributed engine against the standalone runner.

The standalone runner is the semantic reference (and is itself tested
against nested loops); these properties check that distribution —
partitioning, shuffles, bucket matching plans, dedup — never changes the
answer, for any partition count and any data.
"""

from hypothesis import given, settings, strategies as st

from repro.core import StandaloneRunner
from repro.engine import Cluster, Schema
from repro.engine.executor import execute_plan
from repro.engine.operators import FudjJoin, Scan
from repro.serde.values import unbox
from tests.helpers import BandJoin, ModEquiJoin

keys_lists = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
              allow_infinity=False).map(lambda v: round(v, 3)),
    max_size=25,
)


def distributed_join(left_keys, right_keys, join, partitions):
    cluster = Cluster(num_partitions=partitions)
    left = cluster.create_dataset("L", Schema(["id", "k"]), "id")
    left.bulk_load({"id": i, "k": k} for i, k in enumerate(left_keys))
    right = cluster.create_dataset("R", Schema(["id", "k"]), "id")
    right.bulk_load({"id": i, "k": k} for i, k in enumerate(right_keys))
    op = FudjJoin(
        Scan("L", "l"), Scan("R", "r"), join,
        lambda rec: unbox(rec["l.k"]), lambda rec: unbox(rec["r.k"]),
    )
    result = execute_plan(op, cluster)
    return sorted((row["l.k"], row["r.k"]) for row in result.rows)


@settings(max_examples=40, deadline=None)
@given(left=keys_lists, right=keys_lists, partitions=st.integers(1, 9),
       band=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
       buckets=st.integers(1, 12))
def test_distributed_band_join_equals_standalone(left, right, partitions,
                                                 band, buckets):
    join = BandJoin(band, buckets)
    distributed = distributed_join(left, right, join, partitions)
    standalone = sorted(StandaloneRunner(BandJoin(band, buckets)).run(left, right))
    assert distributed == standalone


@settings(max_examples=30, deadline=None)
@given(left=keys_lists, right=keys_lists, partitions=st.integers(1, 9),
       band=st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
def test_distributed_multi_join_equals_standalone(left, right, partitions,
                                                  band):
    class ThetaBand(BandJoin):
        def match(self, b1, b2):
            return abs(b1 - b2) <= 1

    distributed = distributed_join(left, right, ThetaBand(band, 6), partitions)
    standalone = sorted(StandaloneRunner(ThetaBand(band, 6)).run(left, right))
    assert distributed == standalone


@settings(max_examples=30, deadline=None)
@given(left=st.lists(st.integers(0, 40), max_size=25),
       right=st.lists(st.integers(0, 40), max_size=25),
       partitions=st.integers(1, 9))
def test_distributed_equi_join_equals_standalone(left, right, partitions):
    distributed = distributed_join(left, right, ModEquiJoin(8), partitions)
    standalone = sorted(StandaloneRunner(ModEquiJoin(8)).run(left, right))
    assert distributed == standalone


@settings(max_examples=25, deadline=None)
@given(left=keys_lists, right=keys_lists,
       partitions=st.sampled_from([1, 2, 5, 8]))
def test_partition_count_never_changes_answers(left, right, partitions):
    base = distributed_join(left, right, BandJoin(1.0, 5), 3)
    other = distributed_join(left, right, BandJoin(1.0, 5), partitions)
    assert base == other
