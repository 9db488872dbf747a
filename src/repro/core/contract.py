"""Check a FUDJ library against the laws the engine relies on.

A wrong callback seldom raises: an ``assign`` that misses a tile, or a
``global_aggregate`` whose answer depends on the order of its arguments,
loses result pairs on some partition counts and not on others.
:func:`check_library` checks each law on two key lists and raises
``AssertionError`` naming the first that fails and the keys or buckets
involved; ``docs/programming_model.md`` (*Checking your library*) lists
them.  Stdlib only; the engine is imported by the last law.
"""

from __future__ import annotations

import pickle
from collections import Counter, defaultdict

from repro.core.dedup import DuplicateElimination
from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.core.standalone import StandaloneRunner

LEFT, RIGHT = JoinSide.LEFT, JoinSide.RIGHT

#: The engine leg's partition counts: one worker, and several.
PARTITION_COUNTS = (1, 3)


def check_library(join: FlexibleJoin, left_keys, right_keys) -> list:
    """Check that ``join`` keeps the FUDJ contract on these keys and
    return its answer: ``(left key, right key)`` pairs in nested-loop
    order, so a test can pin it as well."""
    left_keys, right_keys = list(left_keys), list(right_keys)
    left, right = _prepared(join, left_keys, right_keys)
    summaries = (_summary(join, left, LEFT), _summary(join, right, RIGHT))
    pplan = join.divide(*summaries)
    assigned = _assigned(join, left, right, pplan)
    shipped = pickle.loads(pickle.dumps(summaries))
    for law, summary1, summary2 in (
            ("on a rerun", *summaries),
            ("after a pickle round trip of the summaries", *shipped),
            *_splits(join, left, right)):
        again = _assigned(join, *_prepared(join, left_keys, right_keys),
                          join.divide(summary1, summary2))
        for side, keys, want, got in ((LEFT, left, assigned[0], again[0]),
                                      (RIGHT, right, assigned[1], again[1])):
            for i, (buckets, other) in enumerate(zip(want, got)):
                if buckets != other:
                    raise AssertionError(
                        f"assign answers the same {law}: {side.value} key "
                        f"#{i} {keys[i]!r} gets {other}, not {buckets}")
    truth = [(i, j) for i, key1 in enumerate(left)
             for j, key2 in enumerate(right) if join.verify(key1, key2, pplan)]
    _check_co_location(join, left, right, pplan, assigned, truth)
    if join.supports_partitioned_matching():
        _check_partition_buckets(join, pplan, assigned)
    if join.has_local_join():
        _check_local_join(join, left, right, pplan, assigned, truth)
    _check_answers(join, left_keys, right_keys, Counter(truth))
    return [(left_keys[i], right_keys[j]) for i, j in truth]


def _prepared(join, left_keys: list, right_keys: list) -> tuple:
    if not join.prepares():
        return left_keys, right_keys
    return ([join.prepare(key, LEFT) for key in left_keys],
            [join.prepare(key, RIGHT) for key in right_keys])


def _summary(join, keys: list, side: JoinSide):
    summary = None
    for key in keys:
        summary = join.local_aggregate(key, summary, side)
    return summary


def _assigned(join, left: list, right: list, pplan) -> tuple:
    """Each key's sorted bucket ids, per side."""
    sides = ([], [])
    for keys, side, buckets in ((left, LEFT, sides[0]),
                                (right, RIGHT, sides[1])):
        for i, key in enumerate(keys):
            try:
                buckets.append(sorted(join.assign_list(key, pplan, side)))
            except TypeError as exc:
                raise AssertionError(
                    f"assign answers int bucket ids: {side.value} key "
                    f"#{i} {key!r}: {exc}") from exc
    return sides


def _splits(join, left: list, right: list):
    """``(law, left summary, right summary)`` for the input split into
    partial summaries, merged in some order, empty parts among them."""
    merge = join.global_aggregate

    def one_key_each(keys, side):  # merged first to last
        merged = None
        for key in keys:
            merged = merge(merged, join.local_aggregate(key, None, side), side)
        return merged

    def thirds(keys, side):  # merged last to first, each beside an empty one
        third = max(1, -(-len(keys) // 3))
        merged = None
        for start in (2 * third, third, 0):
            part = _summary(join, keys[start:start + third], side)
            merged = merge(merge(part, None, side), merged, side)
        return merged

    for split in (one_key_each, thirds):
        yield (f"whatever the split of the summaries ({split.__name__})",
               split(left, LEFT), split(right, RIGHT))


def _first_match(match, buckets1: list, buckets2: list):
    for bucket1 in buckets1:
        for bucket2 in buckets2:
            if match(bucket1, bucket2):
                return (bucket1, bucket2)
    return None


def _check_co_location(join, left, right, pplan, assigned, truth) -> None:
    for i, j in truth:
        buckets1, buckets2 = assigned[0][i], assigned[1][j]
        first = _first_match(join.match, buckets1, buckets2)
        found = join.first_matching_buckets(left[i], right[j], pplan)
        if first is None or found != first:
            raise AssertionError(
                f"co-location: verify accepts left key #{i} {left[i]!r} and "
                f"right key #{j} {right[j]!r} in buckets {buckets1} x "
                f"{buckets2}; the first pair match accepts is {first}, "
                f"first_matching_buckets answers {found}")


def _members(assignments: list) -> dict:
    """Bucket id -> positions of the keys assigned to it."""
    members = defaultdict(list)
    for position, buckets in enumerate(assignments):
        for bucket in buckets:
            members[bucket].append(position)
    return members


def _check_partition_buckets(join, pplan, assigned) -> None:
    ids1, ids2 = sorted(_members(assigned[0])), sorted(_members(assigned[1]))
    for num in PARTITION_COUNTS:
        parts = {bucket: set(join.partition_buckets(bucket, num, pplan))
                 for bucket in ids1 + ids2}
        for bucket, owners in parts.items():
            if not owners or not all(0 <= part < num for part in owners):
                raise AssertionError(
                    f"partition_buckets maps bucket {bucket} into "
                    f"range({num}): it answers {sorted(owners)}")
        for bucket1 in ids1:
            for bucket2 in ids2:
                if join.match(bucket1, bucket2) and not (
                        parts[bucket1] & parts[bucket2]):
                    raise AssertionError(
                        f"partition_buckets: match accepts buckets {bucket1} "
                        f"and {bucket2}, which share no partition of {num}")


def _check_local_join(join, left, right, pplan, assigned, truth) -> None:
    accepted = set(truth)
    # The whole input as one bucket pair, then each matched bucket pair.
    pairs = [(None, range(len(left)), None, range(len(right)))]
    members2 = sorted(_members(assigned[1]).items())
    for bucket1, positions1 in sorted(_members(assigned[0]).items()):
        pairs.extend((bucket1, positions1, bucket2, positions2)
                     for bucket2, positions2 in members2
                     if join.match(bucket1, bucket2))
    for bucket1, positions1, bucket2, positions2 in pairs:
        candidates = set(join.local_join([left[i] for i in positions1],
                                         [right[j] for j in positions2],
                                         pplan))
        for a, i in enumerate(positions1):
            for b, j in enumerate(positions2):
                if (i, j) in accepted and (a, b) not in candidates:
                    raise AssertionError(
                        f"local_join yields every pair verify accepts: in "
                        f"buckets ({bucket1}, {bucket2}) it skips left key "
                        f"#{i} {left[i]!r} and right key #{j} {right[j]!r}")


def _check_answers(join, left_keys, right_keys, expected: Counter) -> None:
    for dedup in (None, DuplicateElimination()):
        handling = "elimination" if dedup else "the library's own dedup"
        legs = [(f"StandaloneRunner, {handling}", Counter(StandaloneRunner(
            join, dedup)._record_pairs(left_keys, right_keys)))]
        legs.extend((f"the engine on {num} partitions, {handling}",
                     _engine_pairs(join, left_keys, right_keys, num, dedup))
                    for num in PARTITION_COUNTS)
        for leg, got in legs:
            if got != expected:
                missing, extra = ([(left_keys[i], right_keys[j], times)
                                   for (i, j), times in sorted(pairs.items())]
                                  for pairs in (expected - got, got - expected))
                raise AssertionError(
                    f"FUDJ is the nested loop ({leg}): missing (left, right, "
                    f"times) {missing[:5]}, extra {extra[:5]}")


def _engine_pairs(join, left_keys, right_keys, partitions, dedup) -> Counter:
    """The engine's answer as a multiset of (left, right) positions."""
    from repro.engine import Cluster, Schema
    from repro.engine.executor import execute_plan
    from repro.engine.operators import FudjJoin, Scan
    from repro.serde.values import unbox

    cluster = Cluster(num_partitions=partitions)
    for name, keys in (("L", left_keys), ("R", right_keys)):
        dataset = cluster.create_dataset(name, Schema(["id", "k"]), "id")
        dataset.bulk_load({"id": i, "k": key} for i, key in enumerate(keys))
    op = FudjJoin(Scan("L", "l"), Scan("R", "r"), join,
                  lambda rec: unbox(rec["l.k"]),
                  lambda rec: unbox(rec["r.k"]), dedup=dedup)
    return Counter((row["l.id"], row["r.id"])
                   for row in execute_plan(op, cluster).rows)
