"""``match`` is asked once per bucket pair of the query, and a raising
``match`` has a defined meaning.

``match`` is a pure function of two bucket ids, so COMBINE decides it
once per *distinct bucket pair* of the query, on the coordinator, before
any task runs (:func:`repro.engine.combine.match_relation`); the theta
and the partitioned kernels look their candidates up in that relation
(:class:`repro.engine.combine._BucketPairs`) and pair records only where
the answer was yes — while each task is still charged the record-pair
nested loop the cost model prices.  A ``local_join`` task still asks
lazily, per pair of the task.  Pinned here:

- how often ``match`` is really called — on any partition count, under
  a task replay, on either backend — the order rows come out in, and
  what the traced ``match`` span says (``calls`` are real invocations,
  ``units`` the model's record pairs);
- a ``match`` that raises: ``fail`` names it; under ``skip`` /
  ``quarantine`` every record pair the raising bucket pair covers is
  dropped and counted, the pair itself reported once per query, and the
  breaker sees one failure per failing call;
- a cancelled token stops the relation between two left buckets' rows,
  even when nothing matches.

Keys are plain ints and bucket ids their decade, so the record-pair
nested loop written out below is the whole reference.
"""

import json
import random
from collections import Counter

import pytest

from repro import FaultPlan
from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.database import Database
from repro.engine.cancel import CancellationToken
from repro.errors import FudjCallbackError, QueryCancelledError

#: Bucket pairs on which ``PoisonNearJoin.match`` raises: two that would
#: have matched and carry rows, one on the diagonal, one that would not
#: have matched anyway.
POISON = {(2, 3), (5, 5), (6, 5), (0, 7)}
TOP = 7  # highest bucket id

SQL = "SELECT a.id AS a, b.id AS b FROM A a, B b WHERE near(a.k, b.k)"


class NearJoin(FlexibleJoin):
    """``|k1 - k2| <= 5`` over ints in ``[0, 80)``: single-assign to the
    decade, decades one apart match — a custom ``match``, so the theta
    plan.  Counts its ``match`` calls (serial backend only)."""

    name = "near"
    calls = []

    def local_aggregate(self, key, summary, side: JoinSide):
        return None

    def global_aggregate(self, summary1, summary2, side: JoinSide):
        return None

    def divide(self, summary1, summary2):
        return None

    def assign(self, key, pplan, side: JoinSide) -> int:
        return key // 10

    def match(self, bucket1: int, bucket2: int) -> bool:
        self.calls.append((bucket1, bucket2))
        return abs(bucket1 - bucket2) <= 1

    def verify(self, key1, key2, pplan) -> bool:
        return abs(key1 - key2) <= 5

    def uses_dedup(self) -> bool:
        return False


class PartitionedNearJoin(NearJoin):
    """The same join on the partitioned plan: a decade goes to its own
    range of the axis and its upper neighbour's, so decades that match
    share one."""

    def partition_buckets(self, bucket_id: int, num_partitions: int, pplan):
        span = -(-(TOP + 1) // num_partitions)
        return sorted({bucket_id // span, min(bucket_id + 1, TOP) // span})


class SortMergeNearJoin(PartitionedNearJoin):
    """... with a ``local_join`` that prunes to keys at most 12 apart."""

    def local_join(self, keys1, keys2, pplan):
        for i, key1 in enumerate(keys1):
            for j, key2 in enumerate(keys2):
                if abs(key1 - key2) <= 12:
                    yield i, j


def poisoned(join_class):
    """``join_class`` with a ``match`` that raises on :data:`POISON`.
    Module-level name, so the process pool can pickle it."""

    def match(self, bucket1, bucket2):
        if (bucket1, bucket2) in POISON:
            raise ValueError(f"poison bucket pair {bucket1}, {bucket2}")
        return join_class.match(self, bucket1, bucket2)

    name = f"Poison{join_class.__name__}"
    if name not in globals():
        globals()[name] = type(name, (join_class,),
                               {"match": match, "__module__": __name__})
    return globals()[name]


PLANS = {"theta": NearJoin, "partitioned": PartitionedNearJoin,
         "local_join": SortMergeNearJoin}


def rows_of(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [{"id": i, "k": rng.randrange(80)} for i in range(count)]


LEFT = rows_of(60, 1)
RIGHT = rows_of(45, 2)


def database(join_class, partitions: int, backend: str = "serial",
             **options) -> Database:
    db = Database(num_partitions=partitions, **options)
    db.execute("CREATE TYPE T { id: int, k: int }")
    db.execute("CREATE DATASET A(T) PRIMARY KEY id")
    db.execute("CREATE DATASET B(T) PRIMARY KEY id")
    db.load("A", LEFT)
    db.load("B", RIGHT)
    db.create_join("near", join_class)
    if backend == "process":
        db.set_backend("process")
    return db


def nested_loop(plan: str = "theta", partitions: int = 1,
                poison=frozenset()):
    """The record-pair reference: ``(rows, covered)`` — the joined id
    pairs in nested-loop order, and the raising bucket pairs the plan
    asks about, each with the number of candidate record pairs it covers.

    The theta plan asks about every pair; the partitioned plan only about
    records that meet in some partition; its ``local_join`` only about
    keys at most 12 apart."""
    join = PLANS[plan]()
    rows = []
    covered = Counter()
    for a in LEFT:
        for b in RIGHT:
            pair = (a["k"] // 10, b["k"] // 10)
            if plan != "theta" and not (
                    set(join.partition_buckets(pair[0], partitions, None))
                    & set(join.partition_buckets(pair[1], partitions, None))):
                continue
            if plan == "local_join" and abs(a["k"] - b["k"]) > 12:
                continue
            if pair in poison:
                covered[pair] += 1
            elif abs(pair[0] - pair[1]) <= 1 and abs(a["k"] - b["k"]) <= 5:
                rows.append((a["id"], b["id"]))
    return rows, covered


def ids(result) -> list:
    return [(row["a"], row["b"]) for row in result.rows]


def test_the_poison_bites():
    clean, _ = nested_loop()
    dropped, covered = nested_loop(poison=POISON)
    assert set(dropped) < set(clean)
    assert set(covered) == POISON
    assert sum(covered.values()) > 10 * len(POISON)


# -- a match that raises -------------------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("partitions", [1, 4])
@pytest.mark.parametrize("plan", sorted(PLANS))
class TestARaisingMatch:
    def test_fail_names_match(self, plan, partitions, backend):
        db = database(poisoned(PLANS[plan]), partitions, backend,
                      on_error="fail")
        try:
            with pytest.raises(FudjCallbackError) as caught:
                db.execute(SQL)
        finally:
            db.close()
        assert caught.value.phase == "match"
        assert "failed in match: ValueError: poison bucket pair" in str(
            caught.value)

    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_degraded_policies_drop_the_covered_record_pairs(
            self, plan, partitions, backend, policy):
        expected, covered = nested_loop(plan, partitions, POISON)
        db = database(poisoned(PLANS[plan]), partitions, backend,
                      on_error=policy)
        try:
            result = db.execute(SQL)
        finally:
            db.close()
        assert sorted(ids(result)) == sorted(expected)
        # Every record pair under a raising bucket pair, once — however
        # the records were spread.
        assert result.metrics.records_quarantined == sum(covered.values())
        log = result.metrics.quarantine_log
        if policy == "skip":
            assert log == []
            return
        assert {entry["phase"] for entry in log} == {"match"}
        reported = [entry["record"] for entry in log]
        # Once per query: however many tasks hold the pair's records
        # (theta), or wherever else it meets (partitioned).
        assert sorted(reported) == sorted(repr(pair) for pair in covered)


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_the_breaker_counts_failing_calls(plan):
    """One partition: ``match`` fails once per raising bucket pair, so a
    threshold of exactly that many trips and one more does not (a failure
    per covered record pair would trip both)."""
    _, covered = nested_loop(plan, 1, POISON)
    failing = len(covered)
    tripped = {}
    for threshold in (failing, failing + 1):
        db = database(poisoned(PLANS[plan]), 1, breaker_threshold=threshold,
                      on_error="skip")
        try:
            db.execute(SQL)
            tripped[threshold] = bool(db.breaker.open)
        finally:
            db.close()
    assert tripped == {failing: True, failing + 1: False}


# -- how often match is called -------------------------------------------------


@pytest.fixture
def calls():
    del NearJoin.calls[:]
    yield NearJoin.calls
    del NearJoin.calls[:]


def buckets(rows) -> set:
    return {row["k"] // 10 for row in rows}


#: Crashes a COMBINE task on 1, 2 and 4 partitions; the replay asks
#: nothing again.
CRASHES = FaultPlan(seed=5, crash_rate=0.3)


@pytest.mark.parametrize("faults", [None, CRASHES])
@pytest.mark.parametrize("partitions", [1, 2, 4])
def test_theta_asks_match_once_per_bucket_pair_of_the_query(
        calls, partitions, faults):
    db = database(NearJoin, partitions)
    db.fault_plan = faults
    try:
        result = db.execute(SQL)
        events = [json.loads(line)
                  for line in db.telemetry.events.to_jsonl().splitlines()]
    finally:
        db.close()
    # Each pair exactly once, however the left side was spread and
    # whichever task was replayed after a crash.
    assert len(calls) == len(set(calls)) == (
        len(buckets(LEFT)) * len(buckets(RIGHT)))
    assert (faults is not None) == any(
        event["kind"] == "fault.retry" and event["stage"].endswith("/combine")
        for event in events)
    expected, _ = nested_loop()
    if partitions == 1:
        # One task: the rows in the order the record-pair loop emits them.
        assert ids(result) == expected
    else:
        assert sorted(ids(result)) == sorted(expected)


@pytest.mark.parametrize("plan", ["partitioned", "local_join"])
def test_partitioned_asks_match_of_the_owner_only(calls, plan):
    db = database(PLANS[plan], 4)
    try:
        result = db.execute(SQL)
    finally:
        db.close()
    # Whichever partitions a bucket pair meets in, one of them owns it.
    assert len(calls) == len(set(calls))
    assert sorted(ids(result)) == sorted(nested_loop(plan, 4)[0])


@pytest.mark.parametrize("partitions", [1, 4])
def test_the_match_span_counts_calls_and_charges_record_pairs(
        calls, partitions):
    db = database(NearJoin, partitions)
    try:
        result = db.execute(SQL, trace=True)
        match_op = db.cluster.cost_model.match_op
    finally:
        db.close()
    spans = [span for span in result.trace.walk()
             if span.kind == "callback" and span.name == "match"]
    assert sum(span.calls for span in spans) == len(calls)
    assert sum(span.errors for span in spans) == 0
    # Left is spread, right broadcast: the tasks' record pairs add up to
    # the cross product, and that is what the model charges.
    assert sum(span.units for span in spans) == pytest.approx(
        len(LEFT) * len(RIGHT) * match_op)


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_the_match_span_counts_the_same_calls_on_either_backend(plan):
    """The relation is built on the coordinator before the stage ships,
    so a worker process asks nothing the serial loop would not; a
    ``local_join`` task asks its own pairs, on either backend."""
    spans = {}
    for backend in ("serial", "process"):
        db = database(PLANS[plan], 4, backend)
        try:
            result = db.execute(SQL, trace=True)
            if backend == "process":
                assert db.worker_pool.tasks_ok_total > 0
        finally:
            db.close()
        spans[backend] = [(span.calls, span.errors)
                          for span in result.trace.walk()
                          if span.kind == "callback" and span.name == "match"]
    assert spans["serial"] == spans["process"]
    assert sum(calls for calls, _ in spans["serial"]) > 0


# -- cancellation --------------------------------------------------------------


class CancellingJoin(NearJoin):
    """Nothing matches, and the first ``match`` cancels the query."""

    token = None

    def match(self, bucket1: int, bucket2: int) -> bool:
        self.calls.append((bucket1, bucket2))
        self.token.cancel("stop")
        return False


def test_a_cancelled_token_stops_a_task_with_no_candidates(calls):
    """No candidate means no guarded ``verify`` to notice the token: the
    check that stops the query is the one the relation builder makes
    before each left bucket's row of ``match`` calls."""
    CancellingJoin.token = CancellationToken()
    db = database(CancellingJoin, 1)
    try:
        with pytest.raises(QueryCancelledError):
            db.execute(SQL, cancel=CancellingJoin.token)
    finally:
        db.close()
    assert len(calls) <= len(buckets(RIGHT))  # the first row, no second
