"""Property tests of the distributed engine against the standalone runner.

The library contract (``tests/test_library_contract.py``) runs these
joins on the engine at one partition and at three; these sweep the
partition count (1 to 9) and check that distribution — partitioning,
shuffles, bucket matching plans, dedup — never changes the answer.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core import StandaloneRunner
from repro.core.contract import _engine_pairs
from tests.helpers import BandJoin, ModEquiJoin, ThetaBandJoin

keys_lists = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
              allow_infinity=False).map(lambda v: round(v, 3)),
    max_size=25,
)


def distributed_equals_standalone(join, left, right, partitions):
    """The engine's and the standalone runner's record pairs, each as
    often."""
    standalone = StandaloneRunner(join)._record_pairs(left, right)
    assert _engine_pairs(join, left, right, partitions, None) == Counter(
        standalone)


@settings(max_examples=40, deadline=None)
@given(left=keys_lists, right=keys_lists, partitions=st.integers(1, 9),
       band=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
       buckets=st.integers(1, 12))
def test_distributed_band_join_equals_standalone(left, right, partitions,
                                                 band, buckets):
    distributed_equals_standalone(BandJoin(band, buckets), left, right,
                                  partitions)


@settings(max_examples=30, deadline=None)
@given(left=keys_lists, right=keys_lists, partitions=st.integers(1, 9),
       band=st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
def test_distributed_multi_join_equals_standalone(left, right, partitions,
                                                  band):
    distributed_equals_standalone(ThetaBandJoin(band, 6), left, right,
                                  partitions)


@settings(max_examples=30, deadline=None)
@given(left=st.lists(st.integers(0, 40), max_size=25),
       right=st.lists(st.integers(0, 40), max_size=25),
       partitions=st.integers(1, 9))
def test_distributed_equi_join_equals_standalone(left, right, partitions):
    distributed_equals_standalone(ModEquiJoin(8), left, right, partitions)


@settings(max_examples=25, deadline=None)
@given(left=keys_lists, right=keys_lists,
       partitions=st.sampled_from([1, 2, 5, 8]))
def test_partition_count_never_changes_answers(left, right, partitions):
    join = BandJoin(1.0, 5)
    assert _engine_pairs(join, left, right, 3, None) == _engine_pairs(
        join, left, right, partitions, None)
