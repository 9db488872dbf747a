"""A COMBINE task makes its ``verify`` calls under one policy frame.

The kernels in :mod:`repro.engine.combine` gather a task's kept
candidate pairs and call ``verify`` on a block of them inside one
:meth:`ExecutionContext.guard_batch`; only a block in which some call
raised is made again pair by pair under ``guard_record``.  The reference
is the loop that came before: one guarded ``verify`` call per candidate
pair, where a raising pair is a non-match that ``skip`` counts and
``quarantine`` also reports by its raw keys.  Written out, for a library
whose ``verify`` raises on one chosen pair in the middle of a task:

- the rows are those of the same library answering False on that pair;
- ``records_quarantined`` is one more than that run's;
- the quarantine log is that one pair under ``quarantine``, nothing
  under ``skip``;
- the ``verify`` callback span counts one call per pair and one error.

Pinned on every kernel (``single``, ``theta``, ``partitioned``, and a
``local_join`` on the single and the partitioned plan) and on both
backends; ``fail`` raises, and a token cancelled inside ``verify`` stops
the task before its next pair.
"""

import json

import pytest

from repro.bench import workloads
from repro.engine.cancel import CancellationToken
from repro.errors import FudjCallbackError, QueryCancelledError
from repro.joins import (
    IntervalJoin,
    NumericBandJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    SortMergeIntervalJoin,
)
from tests.test_carried_assignment import band_database
from tests.test_workers import with_join


class Poison:
    """A library whose ``verify`` on the pair with key reprs :attr:`pair`
    raises (``mode="raise"``) or answers False (``mode="reject"``).

    ``pair`` and ``mode`` are the last two constructor parameters, so
    they travel with the instance into a worker process.  In this
    process every call is logged to :attr:`seen` as ``(repr1, repr2,
    answer)``, and the call numbered :attr:`cancel_at` cancels
    :attr:`token`."""

    seen = []
    token = None
    cancel_at = 0

    def __init__(self, *parameters):
        *own, self.pair, self.mode = parameters
        super().__init__(*own)

    def verify(self, key1, key2, pplan):
        seen = Poison.seen
        pair = (repr(key1), repr(key2))
        if pair == self.pair and self.mode == "raise":
            seen.append(pair + (None,))
            raise ValueError("poison pair")
        answer = (pair != self.pair
                  and bool(super().verify(key1, key2, pplan)))
        seen.append(pair + (answer,))
        if len(seen) == Poison.cancel_at:
            Poison.token.cancel("stop")
        return answer


# Module level, so the pool can pickle them.
class PoisonedBandJoin(Poison, NumericBandJoin):
    pass


class PoisonedIntervalJoin(Poison, IntervalJoin):
    pass


class PoisonedPartitionedIntervalJoin(Poison, PartitionedIntervalJoin):
    pass


class PoisonedSortMergeIntervalJoin(Poison, SortMergeIntervalJoin):
    pass


class PoisonedPlaneSweepSpatialJoin(Poison, PlaneSweepSpatialJoin):
    pass


INTERVAL_SQL = (
    "SELECT n1.id AS a, n2.id AS b FROM NYCTaxi n1, NYCTaxi n2 "
    "WHERE n1.vendor = 1 AND n2.vendor = 2 AND "
    "overlapping_interval(n1.ride_interval, n2.ride_interval)")


def interval():
    return workloads.interval_database(300, partitions=4)


def spatial():
    return workloads.spatial_database(200, 800, partitions=4)


#: kernel -> (database, join name, library, defaults, SQL).
CASES = {
    "single": (band_database, "within_band", PoisonedBandJoin, (0.5, 32),
               "SELECT a.id AS a, b.id AS b FROM SensorA a, SensorB b "
               "WHERE within_band(a.reading, b.reading)"),
    "theta": (interval, "overlapping_interval", PoisonedIntervalJoin,
              (10,), INTERVAL_SQL),
    "partitioned": (interval, "overlapping_interval",
                    PoisonedPartitionedIntervalJoin, (10,), INTERVAL_SQL),
    "partitioned-local_join": (interval, "overlapping_interval",
                               PoisonedSortMergeIntervalJoin, (10,),
                               INTERVAL_SQL),
    "single-local_join": (spatial, "st_contains",
                          PoisonedPlaneSweepSpatialJoin, (48,),
                          "SELECT p.id AS p, w.id AS w FROM Parks p, "
                          "Wildfires w "
                          "WHERE ST_Contains(p.boundary, w.location)"),
}


def run(case, mode, pair=None, backend="serial", policy="skip",
        cancel=None) -> dict:
    build, name, library, defaults, sql = CASES[case]
    db = with_join(build, name, library, *defaults, pair, mode)()
    Poison.seen = []
    try:
        if backend == "process":
            db.set_backend("process")
        db.on_error = policy
        result = db.execute(sql, trace=True, cancel=cancel)
        if backend == "process":
            assert db.worker_pool.tasks_ok_total > 0  # it really shipped
    finally:
        db.close()
    spans = [span for span in result.trace.walk()
             if span.kind == "callback" and span.name == "verify"]
    return {
        "rows": sorted(map(repr, result.rows)),
        "quarantined": result.metrics.records_quarantined,
        "log": json.dumps(result.metrics.quarantine_log),
        "verify": (sum(span.calls for span in spans),
                   sum(span.errors for span in spans)),
    }


_HEALTHY = {}


def healthy(case) -> tuple:
    """The healthy library's serial run, and ``(repr1, repr2, answer)``
    of each of its ``verify`` calls, in order."""
    if case not in _HEALTHY:
        _HEALTHY[case] = run(case, "reject"), list(Poison.seen)
    return _HEALTHY[case]


def chosen_pair(case):
    """A matching pair from the middle of the query's ``verify`` calls."""
    calls = healthy(case)[1]
    matched = [call[:2] for call in calls if call[2]]
    pair = matched[len(matched) // 2]
    assert [call[:2] for call in calls].count(pair) == 1
    return pair


def test_each_case_runs_the_kernel_it_is_named_for():
    for case, (_, _, library, defaults, _) in CASES.items():
        join = library(*defaults, None, "reject")
        kind = ("single" if join.uses_default_match()
                else "partitioned" if join.supports_partitioned_matching()
                else "theta")
        assert case.split("-")[0] == kind
        assert join.has_local_join() == case.endswith("local_join")


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("policy", ["skip", "quarantine"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_raising_pair_mid_task_is_the_per_pair_loops_answer(
        case, policy, backend):
    pair = chosen_pair(case)
    rejected = run(case, "reject", pair)
    assert len(rejected["rows"]) == len(healthy(case)[0]["rows"]) - 1
    calls = rejected["verify"][0]
    assert calls == len(healthy(case)[1])

    got = run(case, "raise", pair, backend, policy)
    if backend == "serial":
        # The block holding the pair raised partway and was made again
        # pair by pair: the pair was not the first call of its block.
        assert len(Poison.seen) > calls + 1
    library = CASES[case][2]
    report = [{"phase": "verify", "join": library.name,
               "error": "ValueError: poison pair",
               "record": f"({pair[0]}, {pair[1]})"}]
    assert got == {
        "rows": rejected["rows"],
        "quarantined": rejected["quarantined"] + 1,
        "log": json.dumps(report if policy == "quarantine" else []),
        "verify": (calls, 1),
    }


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fail_raises(case, backend):
    with pytest.raises(FudjCallbackError) as raised:
        run(case, "raise", chosen_pair(case), backend, "fail")
    assert "failed in verify: ValueError: poison pair" in str(raised.value)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_cancel_inside_verify_stops_the_task_before_the_next_pair(case):
    cancel_at = len(healthy(case)[1]) // 2
    Poison.token = CancellationToken()
    Poison.cancel_at = cancel_at
    try:
        with pytest.raises(QueryCancelledError):
            run(case, "reject", cancel=Poison.token)
    finally:
        Poison.token = None
        Poison.cancel_at = 0
    assert len(Poison.seen) == cancel_at
