"""The engine's golden file and its cross-mode oracle.

Every refactor of the engine has had to show the same thing — rows,
``QueryMetrics.to_dict()``, per-stage per-worker units, the canonical
event JSONL and the trace are *byte-identical* to the parent — and PRs
13 and 14 each built a hash dump by hand to show it, then threw it away.
This is that dump, committed.

``tests/golden/engine.json`` holds, for each case, the deterministic
metrics in clear (so a reviewed diff reads ``operator_invocations: 1440 →
1448``, not one hash turning into another) and a hash of each of rows,
stages, events and trace.  A case is one point of

    join library / query shape  x  memory budget None / 2 KB
    x  no faults / a fault plan / checkpoint-only
    x  dedup default / elimination  x  FUDJ / the baseline operator
    x  serial / process / batch / cost  x  traced or not,

trimmed to a set that still shows every *pair* of axis values together
(the full cross product is 2,112 cases for the first eleven shapes).
Shapes added later get a cover of their own, appended after the
existing cases so no case id moves (:data:`LATER_SHAPES`).  The case
list lives in the file too, so collecting this module costs nothing.

Every database here runs on a cost model with no dyadic constant:
under the default one (``hash_op = 1.5``, ``record_touch = 1.0``) a sum
of per-record charges is exact in floating point, so a change of
summation order — batching the per-delivery charges of an exchange —
would not show.  Cases route on ints and floats only, so the file does
not depend on ``PYTHONHASHSEED``.

The file pins bytes, not truth, so two oracles ride on every case:

* every case that finishes, FUDJ or baseline, returns the nested-loop
  answer of its shape as a bag (:func:`truth`), whatever the budget,
  faults, dedup, backend or optimizer;
* every ``batch``, ``process`` and ``cost`` case runs its *serial twin*
  — the same case on the serial backend, row execution and the rule
  optimizer — and must agree with it (:func:`twin_view`): ``batch`` in
  rows (in order), every ``to_dict()`` key but ``operator_invocations``
  and ``batches``, stages, events and the trace's total units;
  ``process`` in all of those with no key excepted; ``cost`` on shapes
  of at most two tables in everything but its ``plan.*`` events.  A
  case that fails fails with its twin's error.

The file is rewritten only by ``make golden-accept``; review its diff
like code.
"""

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

from repro import FaultPlan
from repro.builtin import install_builtin_joins
from repro.database import Database
from repro.datagen import (
    generate_parks,
    generate_reviews,
    generate_taxi_rides,
    generate_trajectories,
    generate_wildfires,
)
from repro.engine.combine import KERNELS
from repro.engine.costs import CostModel
from repro.engine.operators.base import PhysicalOperator
from repro.engine.operators.fudj_join import FudjJoin
from repro.errors import ReproError
from repro.joins import (
    IntervalJoin,
    NumericBandJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    SortMergeIntervalJoin,
    SpatialContainsJoin,
    SpatialJoin,
    TextSimilarityJoin,
    TrajectoryProximityJoin,
)
from repro.optimizer import ExecutionMode
from repro.query.parser import parse_statement
from tests.test_workers import PoisonVerifyIntervalJoin

GOLDEN = Path(__file__).parent / "golden" / "engine.json"

#: No constant is a dyadic rational (see the module docstring).
MODEL = dataclasses.replace(
    CostModel(), record_touch=0.7, hash_op=1.3, comparison=1.9,
    translation=0.3, match_op=0.11, expensive_predicate=37.3)

#: ``to_dict()`` keys that are real time or real supervision.
WALL_CLOCK_KEYS = ("wall_seconds", "queue_seconds", "worker_restarts",
                   "heartbeat_misses")

#: ``to_dict()`` keys that count dispatch granularity: the only ones a
#: ``batch`` case may differ in from its serial twin.
BATCH_GRANULARITY_KEYS = ("operator_invocations", "batches")

#: Rows per batch of a ``batch`` case: small enough that every partition
#: spans several batches.
BATCH_ROWS = 16

_INSTANCE_ID = re.compile(r"#\d+")


# -- the query shapes -----------------------------------------------------------


def _database() -> Database:
    return Database(num_partitions=4, cost_model=MODEL)


def _spatial(join_class, grid: int = 12):
    def build():
        db = _database()
        db.create_type("ParkType", [("id", "int"), ("boundary", "geometry"),
                                    ("tags", "string")])
        db.create_dataset("Parks", "ParkType", "id")
        db.load("Parks", generate_parks(40, seed=42, max_radius=100.0))
        db.create_type("FireType", [("id", "int"), ("location", "point"),
                                    ("fire_start", "double"),
                                    ("fire_end", "double")])
        db.create_dataset("Wildfires", "FireType", "id")
        db.load("Wildfires", generate_wildfires(400, seed=43))
        db.create_join("st_contains", join_class, defaults=(grid,))
        db.create_join("st_intersects", SpatialJoin, defaults=(grid,))
        install_builtin_joins(db, spatial_n=grid)
        return db
    return build


def _multi():
    """A FUDJ join among equi-joins: the hash join and, for the three-row
    dimension table under the cost optimizer, the broadcast hash join are
    on the path too."""
    spatial = _spatial(SpatialContainsJoin)

    def build():
        db = spatial()
        db.create_type("OwnerType", [("oid", "int"), ("park", "int"),
                                     ("agency", "int")])
        db.create_dataset("Owners", "OwnerType", "oid")
        rng = random.Random(5)
        db.load("Owners", [{"oid": i, "park": rng.randrange(40),
                            "agency": rng.randrange(3)} for i in range(60)])
        db.create_type("AgencyType", [("aid", "int"), ("region", "int")])
        db.create_dataset("Agencies", "AgencyType", "aid")
        db.load("Agencies", [{"aid": i, "region": i % 2} for i in range(3)])
        return db
    return build


def _interval(join_class):
    def build():
        db = _database()
        db.create_type("TaxiType", [("id", "int"), ("vendor", "int"),
                                    ("ride_interval", "interval")])
        db.create_dataset("NYCTaxi", "TaxiType", "id")
        db.load("NYCTaxi", generate_taxi_rides(160, seed=44))
        db.create_join("overlapping_interval", join_class, defaults=(24,))
        install_builtin_joins(db, interval_buckets=24)
        return db
    return build


def _text():
    db = _database()
    db.create_type("ReviewType", [("id", "int"), ("overall", "int"),
                                  ("review", "text")])
    db.create_dataset("AmazonReview", "ReviewType", "id")
    db.load("AmazonReview", generate_reviews(90, seed=45, vocab_size=60))
    db.create_join("similarity_jaccard", TextSimilarityJoin)
    install_builtin_joins(db)
    return db


def _band():
    db = _database()
    db.create_type("S", [("id", "int"), ("reading", "double")])
    rng = random.Random(3)
    for name in ("SensorA", "SensorB"):
        db.create_dataset(name, "S", "id")
        db.load(name, [{"id": i, "reading": round(rng.uniform(0, 30), 2)}
                       for i in range(200)])
    db.create_join("within_band", NumericBandJoin, defaults=(1.0, 16))
    return db


def _trajectory():
    db = _database()
    db.create_type("TripType", [("id", "int"), ("vehicle", "int"),
                                ("route", "trajectory")])
    db.create_dataset("Trips", "TripType", "id")
    db.load("Trips", generate_trajectories(50, seed=2))
    db.create_join("routes_near", TrajectoryProximityJoin, defaults=(2.0, 12))
    return db


SPATIAL_SQL = ("SELECT p.id, COUNT(1) AS c FROM Parks p, Wildfires w "
               "WHERE ST_Contains(p.boundary, w.location) GROUP BY p.id")
SPATIAL_SELF_SQL = ("SELECT p.id, COUNT(1) AS c FROM Parks p, Parks q "
                    "WHERE ST_Intersects(p.boundary, q.boundary) GROUP BY p.id")
MULTI_SQL = ("SELECT a.region, COUNT(1) AS c "
             "FROM Parks p, Wildfires w, Owners o, Agencies a "
             "WHERE ST_Contains(p.boundary, w.location) AND p.id = o.park "
             "AND o.agency = a.aid GROUP BY a.region")
INTERVAL_SQL = ("SELECT n1.id, n2.id FROM NYCTaxi n1, NYCTaxi n2 "
                "WHERE n1.vendor = 1 AND n2.vendor = 2 AND "
                "overlapping_interval(n1.ride_interval, n2.ride_interval)")
TEXT_SQL = ("SELECT COUNT(1) AS c FROM AmazonReview r1, AmazonReview r2 "
            "WHERE r1.overall = 5 AND r2.overall = 4 AND "
            "similarity_jaccard(r1.review, r2.review) >= 0.5")
BAND_SQL = ("SELECT COUNT(1) AS n FROM SensorA a, SensorB b WHERE "
            "{predicate}")
TRAJECTORY_SQL = ("SELECT COUNT(1) AS c FROM Trips a, Trips b "
                  "WHERE a.vehicle = 1 AND b.vehicle = 2 AND {predicate}")
#: HAVING, ORDER BY and a LIMIT whose OFFSET reaches into the second
#: batch of the sorted groups.
RANKED_SQL = ("SELECT p.id, COUNT(1) AS c FROM Parks p, Parks q "
              "WHERE ST_Intersects(p.boundary, q.boundary) GROUP BY p.id "
              "HAVING COUNT(1) >= 2 ORDER BY c DESC, p.id LIMIT 6 OFFSET 17")
#: A computed column under DISTINCT: each id repeats across batches.
DISTINCT_SQL = ("SELECT DISTINCT a.id AS id, a.reading * 2 AS twice "
                "FROM SensorA a, SensorB b WHERE {predicate} ORDER BY id")
#: A FUDJ join crossed with a three-row table.
CROSS_SQL = ("SELECT a.region, COUNT(1) AS c FROM Parks p JOIN Wildfires w "
             "ON ST_Contains(p.boundary, w.location) CROSS JOIN Agencies a "
             "GROUP BY a.region")

#: name -> (database builder, SQL, the baseline's mode and SQL, database
#: settings).  The baseline of a join with a hand-written operator is that
#: operator on the same SQL; of the others, the scalar predicate on top of
#: a nested loop.
SHAPES = {
    "spatial": (_spatial(SpatialContainsJoin), SPATIAL_SQL,
                ("builtin", SPATIAL_SQL), {}),
    "plane_sweep": (_spatial(PlaneSweepSpatialJoin), SPATIAL_SQL,
                    ("builtin", SPATIAL_SQL), {}),
    "spatial_self": (_spatial(SpatialContainsJoin), SPATIAL_SELF_SQL,
                     ("builtin", SPATIAL_SELF_SQL), {}),
    "multi": (_multi(), MULTI_SQL, ("builtin", MULTI_SQL), {}),
    "interval": (_interval(IntervalJoin), INTERVAL_SQL,
                 ("builtin", INTERVAL_SQL), {}),
    "interval_partitioned": (_interval(PartitionedIntervalJoin),
                             INTERVAL_SQL, ("builtin", INTERVAL_SQL), {}),
    "interval_sort_merge": (_interval(SortMergeIntervalJoin), INTERVAL_SQL,
                            ("builtin", INTERVAL_SQL), {}),
    "interval_poison": (_interval(PoisonVerifyIntervalJoin), INTERVAL_SQL,
                        ("ontop", INTERVAL_SQL), {"on_error": "quarantine"}),
    "text": (_text, TEXT_SQL, ("builtin", TEXT_SQL), {}),
    "band": (
        _band,
        BAND_SQL.format(predicate="within_band(a.reading, b.reading, 0.5)"),
        ("ontop",
         BAND_SQL.format(predicate="abs(a.reading - b.reading) <= 0.5")), {}),
    "trajectory": (
        _trajectory,
        TRAJECTORY_SQL.format(predicate="routes_near(a.route, b.route, 3.0)"),
        ("ontop", TRAJECTORY_SQL.format(
            predicate="trajectory_min_distance(a.route, b.route) <= 3.0")),
        {}),
    "ranked": (_spatial(SpatialContainsJoin), RANKED_SQL,
               ("builtin", RANKED_SQL), {}),
    "distinct": (
        _band,
        DISTINCT_SQL.format(predicate="within_band(a.reading, b.reading, 0.5)"),
        ("ontop",
         DISTINCT_SQL.format(predicate="abs(a.reading - b.reading) <= 0.5")),
        {}),
    "cross": (_multi(), CROSS_SQL, ("builtin", CROSS_SQL), {}),
}

#: Shapes added after the first eleven, one tuple per change that added
#: some: each tuple gets a cover of its own, appended after the earlier
#: ones', so a new tuple adds cases and moves none.
LATER_SHAPES = (("ranked", "distinct", "cross"),)

#: Shapes of more than two tables: the cost optimizer may plan them
#: another way, so only their bag of rows (:func:`truth`) is compared.
WIDE_SHAPES = ("multi", "cross")

AXES = {
    "shape": list(SHAPES),
    "budget": [None, 2048],
    "faults": ["none", "plan", "checkpoint"],
    "dedup": [None, "elimination"],
    "mode": ["fudj", "baseline"],
    "variant": ["serial", "process", "batch", "cost"],
    "trace": [False, True],
}

FAULTS = {
    "none": None,
    "plan": FaultPlan(seed=11, crash_rate=0.25, straggler_rate=0.15,
                      exchange_failure_rate=0.25),
    "checkpoint": FaultPlan(seed=11),
    # Not an axis value: under this schedule the interval join's COMBINE
    # task on worker 2 crashes seven times running and the query fails.
    "doomed": FaultPlan(seed=29, crash_rate=0.7),
}


def choose_cases(axes: dict, extra: int = 76) -> list:
    """The cases of the golden file: a deterministic greedy cover in which
    every value of every axis meets every value of every other axis, plus
    a seeded sample of ``extra`` more for the interactions of three and
    four axes (a spilled COMBINE replayed after a crash on the pool)."""
    names = list(axes)
    full = [dict(zip(names, combo))
            for combo in itertools.product(*axes.values())]

    def pairs_of(case):
        return {((a, case[a]), (b, case[b]))
                for a, b in itertools.combinations(names, 2)}

    uncovered = set().union(*(pairs_of(case) for case in full))
    chosen = []
    while uncovered:
        best = max(full, key=lambda case: len(pairs_of(case) & uncovered))
        chosen.append(best)
        uncovered -= pairs_of(best)
    rest = [case for case in full if case not in chosen]
    return chosen + random.Random(18).sample(rest, extra)


def all_cases() -> list:
    """The first eleven shapes' cover, then each later tuple's own."""
    later = [shape for group in LATER_SHAPES for shape in group]
    cases = choose_cases(
        dict(AXES, shape=[shape for shape in SHAPES if shape not in later]))
    for group in LATER_SHAPES:
        cases += choose_cases(dict(AXES, shape=list(group)), extra=12)
    return cases


def case_id(case: dict) -> str:
    return "-".join(str(case[name]) for name in AXES)


# -- one case ---------------------------------------------------------------------


def _digest(value) -> str:
    """A hash of ``value`` as JSON, less the operator-instance ids in
    stage and span names (``fudj-join#7``): they count the plans this
    process built before."""
    text = _INSTANCE_ID.sub("", json.dumps(value, sort_keys=True, default=repr))
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def _spans(span) -> list:
    """The trace tree with exact floats (``Span.to_dict`` rounds to six
    places, which hides a changed summation order)."""
    return [span.name, span.kind, repr(span.units),
            span.calls, span.errors, span.records_in, span.records_out,
            repr(span.network_bytes), [_spans(child) for child in span.children]]


def _bag(rows) -> collections.Counter:
    return collections.Counter(repr(sorted(row.items())) for row in rows)


@functools.lru_cache(maxsize=None)
def truth(shape: str) -> collections.Counter:
    """The shape's rows by nested loop on a fresh database: ``ontop``
    mode, on the baseline's scalar-predicate SQL where the shape has
    one (no join library runs at all), else on the shape's own."""
    build, sql, (baseline_mode, baseline_sql), _ = SHAPES[shape]
    db = build()
    try:
        return _bag(db.execute(
            baseline_sql if baseline_mode == "ontop" else sql,
            mode="ontop").rows)
    finally:
        db.close()


def observe(case: dict) -> tuple:
    """One run of ``case``: its golden answer, and what the twin
    contract reads beyond it — the trace's total units and the event
    JSONL."""
    build, sql, baseline, settings = SHAPES[case["shape"]]
    mode = "fudj"
    if case["mode"] == "baseline":
        mode, sql = baseline
    db = build()
    try:
        if case["budget"] is not None:
            db.set_memory_budget(case["budget"])
        variant = case["variant"]
        db.set_backend("process" if variant == "process" else "serial")
        db.set_execution("batch" if variant == "batch" else "row")
        if variant == "batch":
            db.batch_rows = BATCH_ROWS
        db.fault_plan = FAULTS[case["faults"]]
        for name, value in settings.items():
            setattr(db, name, value)
        try:
            result = db.execute(
                sql, mode=mode, dedup=case["dedup"], trace=case["trace"],
                optimizer="cost" if variant == "cost" else "rule")
        except ReproError as exc:
            # A doomed fault schedule aborts the query; the golden answer
            # is then the error and what was logged up to it.
            events = db.telemetry.events.to_jsonl()
            return ({"error": _INSTANCE_ID.sub("", f"{type(exc).__name__}: {exc}"),
                     "events": _digest(events)},
                    {"events": events, "trace_units": None})
        rows, true = _bag(result.rows), truth(case["shape"])
        # The poison library quarantines by design: it may drop a true
        # row, never invent one.
        assert (not rows - true if case["shape"] == "interval_poison"
                else rows == true), (
            f"{mode} rows differ from the nested loop's")
        if mode == "fudj" and variant == "process":
            # The stage really shipped: a join the pool cannot pickle
            # would fall back to the serial loop and pass vacuously.
            assert db.worker_pool.tasks_ok_total > 0
        metrics = result.metrics.to_dict(db.cluster.cores)
        for key in WALL_CLOCK_KEYS:
            del metrics[key]
        metrics["quarantine_log"] = _digest(result.metrics.quarantine_log)
        trace = trace_units = None
        if result.trace is not None:
            trace_units = repr(result.trace.total_units())
            # Pool spans carry pids and wall clocks; units still add up.
            trace = (trace_units if variant == "process"
                     else _digest([_spans(result.trace.root),
                                   result.trace.to_dict()["skew"]]))
        events = db.telemetry.events.to_jsonl()
        answer = {
            "metrics": metrics,
            "rows": _digest([sorted(row.items()) for row in result.rows]),
            "stages": _digest([
                (stage.name, sorted(stage.worker_units.items()),
                 stage.network_bytes, stage.fabric_bytes, stage.records_in,
                 stage.records_out)
                for stage in result.metrics.stages]),
            "events": _digest(events),
            "trace": trace,
        }
        return answer, {"events": events, "trace_units": trace_units}
    finally:
        db.close()


@functools.lru_cache(maxsize=None)
def _observe_serial(items: tuple) -> tuple:
    return observe(dict(items))


def serial_twin(case: dict) -> tuple:
    """:func:`observe` of ``case`` on the serial backend, row execution
    and the rule optimizer; run once per twin."""
    return _observe_serial(tuple(sorted(dict(case, variant="serial").items())))


def _without_plan_events(jsonl: str) -> list:
    """The event lines less the cost optimizer's own (``plan.*``), and
    less ``seq``, which those shift."""
    events = [json.loads(line) for line in jsonl.splitlines()]
    return [{key: value for key, value in event.items() if key != "seq"}
            for event in events if not event["kind"].startswith("plan.")]


def twin_view(case: dict, answer: dict, seen: dict) -> dict:
    """What a run of ``case`` (``answer``, ``seen``: :func:`observe`) must
    share with the same view of its serial twin."""
    if "error" in answer:
        return {"error": answer["error"]}
    variant = case["variant"]
    if variant == "cost":
        if case["shape"] in WIDE_SHAPES:
            return {}
        return dict(answer, events=_without_plan_events(seen["events"]))
    excepted = BATCH_GRANULARITY_KEYS if variant == "batch" else ()
    metrics = {key: value for key, value in answer["metrics"].items()
               if key not in excepted}
    return dict(answer, metrics=metrics, trace=seen["trace_units"])


def load_golden() -> list:
    # Empty before the first accept; test_every_axis_value_has_a_case
    # fails on an empty or thinned file.
    return json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []


@pytest.mark.parametrize("entry", load_golden(),
                         ids=lambda entry: case_id(entry["case"]))
def test_case_matches_golden(entry):
    case = entry["case"]
    answer, seen = observe(case)
    assert answer == entry["answer"], (
        "the engine's answer changed; if that is intended, run "
        "`make golden-accept` and review the diff of tests/golden/engine.json")
    if case["variant"] != "serial":
        assert twin_view(case, answer, seen) == twin_view(
            case, *serial_twin(case)), (
            f"the {case['variant']} run differs from its serial twin")


@pytest.mark.parametrize("variant", ["process", "batch", "cost"])
def test_a_doomed_schedule_fails_as_its_twin_does(variant):
    """No golden case fails; this one does, in COMBINE, where the process
    backend's failure comes back from the pool."""
    case = {"shape": "interval", "budget": None, "faults": "doomed",
            "dedup": None, "mode": "fudj", "variant": variant,
            "trace": False}
    answer, seen = observe(case)
    assert "'fudj-join/combine'" in answer["error"]
    assert twin_view(case, answer, seen) == twin_view(case, *serial_twin(case))


def test_every_axis_value_has_a_case():
    cases = [entry["case"] for entry in load_golden()]
    for name, values in AXES.items():
        assert {case[name] for case in cases} == set(values), name


def _operators(op: PhysicalOperator):
    yield op
    for child in op.children():
        yield from _operators(child)


def _batched_operators(cls=PhysicalOperator) -> set:
    """Every operator class with a ``run_batches`` of its own."""
    found = set()
    for sub in cls.__subclasses__():
        if "run_batches" in vars(sub):
            found.add(sub.__name__)
        found |= _batched_operators(sub)
    return found


#: Operators with a ``run_batches`` of their own that no SQL plans.
NOT_PLANNED_FROM_SQL = {"Values"}


@functools.lru_cache(maxsize=None)
def _planning_database(shape: str) -> Database:
    return SHAPES[shape][0]()


def _plan(case: dict) -> PhysicalOperator:
    """The rule plan of ``case``'s statement, not executed."""
    _, sql, (baseline_mode, baseline_sql), _ = SHAPES[case["shape"]]
    mode = "fudj"
    if case["mode"] == "baseline":
        mode, sql = baseline_mode, baseline_sql
    plan, _ = _planning_database(case["shape"])._plan_select(
        parse_statement(sql), ExecutionMode(mode), None)
    return plan


def _kernel(op: FudjJoin) -> str:
    """The :data:`~repro.engine.combine.KERNELS` kind ``op`` runs: the
    dispatch of ``FudjJoin``'s COMBINE phase."""
    if op.join.uses_default_match():
        return "single"
    return ("partitioned" if op.join.supports_partitioned_matching()
            else "theta")


def test_every_batch_operator_and_kernel_has_a_case():
    """The twin contract covers an operator's batch path only if some
    ``batch`` case plans it, and a kernel's pool path only if some
    ``process`` case runs it."""
    batched, kernels = set(), set()
    for entry in load_golden():
        case = entry["case"]
        if case["variant"] not in ("batch", "process"):
            continue
        for op in _operators(_plan(case)):
            if case["variant"] == "batch":
                batched.add(type(op).__name__)
            elif isinstance(op, FudjJoin):
                kernels.add(_kernel(op))
    assert _batched_operators() - NOT_PLANNED_FROM_SQL <= batched
    assert set(KERNELS) <= kernels


#: The hashes of an answer, in the order :func:`moves` reports them.
HASHED = ("rows", "stages", "events", "trace", "error")


def moves(before: list, after: list) -> dict:
    """What changed between two lists of golden entries: ``{(mode,
    shape): Counter}`` over the cases whose answer changed, counting the
    cases, each hash and each ``to_dict()`` key that changed, and the
    cases that are new."""
    old = {case_id(entry["case"]): entry["answer"] for entry in before}
    groups = {}
    for entry in after:
        case, answer = entry["case"], entry["answer"]
        previous = old.get(case_id(case))
        if previous == answer:
            continue
        moved = groups.setdefault((case["mode"], case["shape"]),
                                  collections.Counter())
        moved["cases"] += 1
        if previous is None:
            moved["new"] += 1
            continue
        for name in HASHED:
            if previous.get(name) != answer.get(name):
                moved[name] += 1
        metrics = previous.get("metrics", {}), answer.get("metrics", {})
        for key in sorted(set(metrics[0]) | set(metrics[1])):
            if metrics[0].get(key) != metrics[1].get(key):
                moved[f"metrics.{key}"] += 1
    return groups


def report(groups: dict, total: int) -> str:
    """:func:`moves` as text: one block per (mode, shape)."""
    changed = sum(moved["cases"] for moved in groups.values())
    lines = [f"{changed} of {total} cases changed"]
    for (mode, shape), moved in sorted(groups.items()):
        lines.append(f"{mode} / {shape}: {moved['cases']} cases")
        for label, names in (
                ("hashes", [name for name in ("new",) + HASHED
                            if name in moved]),
                ("metrics", sorted(name for name in moved
                                   if name.startswith("metrics.")))):
            if names:
                lines.append(f"  {label}: " + ", ".join(
                    f"{name.removeprefix('metrics.')} {moved[name]}"
                    for name in names))
    return "\n".join(lines)


def test_accept_reports_what_moved():
    before = load_golden()[:3]
    case = before[1]["case"]
    answer = before[1]["answer"]
    moved = dict(answer, rows="changed",
                 metrics=dict(answer["metrics"], cpu_units=-1.0))
    after = [before[0], {"case": case, "answer": moved}, before[2]]
    groups = moves(before, after)
    assert groups == {(case["mode"], case["shape"]): collections.Counter(
        {"cases": 1, "rows": 1, "metrics.cpu_units": 1})}
    assert report(groups, 3).splitlines() == [
        "1 of 3 cases changed",
        f"{case['mode']} / {case['shape']}: 1 cases",
        "  hashes: rows 1",
        "  metrics: cpu_units 1",
    ]


def accept() -> None:
    before = load_golden()
    entries = [{"case": case, "answer": observe(case)[0]}
               for case in all_cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": entries}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(entries)} cases to {GOLDEN}")
    print(report(moves(before, entries), len(entries)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--accept"]:
        sys.exit("usage: python -m tests.test_golden --accept")
    accept()
