"""The four workloads: inputs made from the seed, the nested-loop
oracle, and what one *operation* (one pass of the workload's script) is.

Sizes, SQL and client counts are fixed here and nowhere else; later
issues quote the workload names verbatim.  ``perf/README.md`` says why
each workload exists.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.bench.workloads import INTERVAL_SQL, SPATIAL_SQL, TEXT_SQL
from repro.builtin import install_builtin_joins
from repro.client import SessionClient
from repro.database import Database
from repro.datagen import (
    generate_parks,
    generate_reviews,
    generate_taxi_rides,
    generate_wildfires,
)
from repro.joins import IntervalJoin, SpatialContainsJoin, TextSimilarityJoin
from repro.storage import load_database, save_database

from spans import NullRecorder

PARTITIONS = 4
GRID = 48
BUCKETS = 100
THRESHOLD = 0.8
TEXT_QUERY = TEXT_SQL.format(threshold=THRESHOLD)

NULL = NullRecorder()


class WrongAnswer(Exception):
    """An operation returned rows other than the oracle's."""


class OperationFailed(Exception):
    """The server answered a request with a typed error."""


class Nondeterministic(Exception):
    """Simulated totals or counts changed between operations of a run."""


# -- inputs ----------------------------------------------------------------------


@dataclass
class JoinSpec:
    """One CREATE JOIN, and the same join for StandaloneRunner: the
    constructor arguments the SQL call site ends up with and the keys the
    query's filters let through to it."""

    name: str
    join_class: type
    defaults: tuple
    arguments: tuple
    left_keys: list
    right_keys: list


@dataclass
class Inputs:
    """Everything a Database is built from, made once from the seed."""

    ddl: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    joins: list = field(default_factory=list)
    builtin: dict = field(default_factory=dict)

    def __add__(self, other: "Inputs") -> "Inputs":
        return Inputs(self.ddl + other.ddl, {**self.tables, **other.tables},
                      self.joins + other.joins,
                      {**self.builtin, **other.builtin})


def spatial_inputs(seed: int, parks: int, fires: int) -> Inputs:
    park_rows = generate_parks(parks, seed=seed)
    fire_rows = generate_wildfires(fires, seed=seed + 1)
    return Inputs(
        ddl=["CREATE TYPE ParkType { id: int, boundary: geometry, "
             "tags: string }",
             "CREATE DATASET Parks(ParkType) PRIMARY KEY id",
             "CREATE TYPE FireType { id: int, location: point, "
             "fire_start: double, fire_end: double }",
             "CREATE DATASET Wildfires(FireType) PRIMARY KEY id"],
        tables={"Parks": park_rows, "Wildfires": fire_rows},
        joins=[JoinSpec("st_contains", SpatialContainsJoin, (GRID,), (GRID,),
                        [row["boundary"] for row in park_rows],
                        [row["location"] for row in fire_rows])],
        builtin={"spatial_n": GRID},
    )


def interval_inputs(seed: int, rides: int) -> Inputs:
    rows = generate_taxi_rides(rides, seed=seed)
    return Inputs(
        ddl=["CREATE TYPE TaxiType { id: int, vendor: int, "
             "ride_interval: interval }",
             "CREATE DATASET NYCTaxi(TaxiType) PRIMARY KEY id"],
        tables={"NYCTaxi": rows},
        joins=[JoinSpec(
            "overlapping_interval", IntervalJoin, (BUCKETS,), (BUCKETS,),
            [r["ride_interval"] for r in rows if r["vendor"] == 1],
            [r["ride_interval"] for r in rows if r["vendor"] == 2])],
        builtin={"interval_buckets": BUCKETS},
    )


def text_inputs(seed: int, reviews: int) -> Inputs:
    rows = generate_reviews(reviews, seed=seed,
                            vocab_size=max(100, reviews // 4))
    # Ratings dealt round-robin, not drawn: each side of the text join is
    # then exactly a fifth of the reviews on every seed.  Drawn, the two
    # sides are binomial and an operation's work (simulated CPU units)
    # has an interquartile range of 6.3 % over ten seeds; dealt, 2.1 %.
    for row in rows:
        row["overall"] = 1 + row["id"] % 5
    return Inputs(
        ddl=["CREATE TYPE ReviewType { id: int, overall: int, "
             "review: text }",
             "CREATE DATASET AmazonReview(ReviewType) PRIMARY KEY id"],
        tables={"AmazonReview": rows},
        # The threshold is a call-site parameter of the SQL, not a default.
        joins=[JoinSpec(
            "similarity_jaccard", TextSimilarityJoin, (), (THRESHOLD,),
            [r["review"] for r in rows if r["overall"] == 5],
            [r["review"] for r in rows if r["overall"] == 4])],
    )


def create_schema(db: Database, inputs: Inputs) -> None:
    for statement in inputs.ddl:
        db.execute(statement)


def load_tables(db: Database, inputs: Inputs) -> None:
    for name, rows in inputs.tables.items():
        db.load(name, rows)
    for join in inputs.joins:
        db.create_join(join.name, join.join_class, defaults=join.defaults)


def build_database(inputs: Inputs) -> Database:
    """Database(num_partitions=4), every other knob at its default."""
    db = Database(num_partitions=PARTITIONS)
    create_schema(db, inputs)
    load_tables(db, inputs)
    install_builtin_joins(db, **inputs.builtin)
    return db


# -- answers ---------------------------------------------------------------------


def canon(rows) -> list:
    """Rows as a sorted list of value tuples, columns by name: the three
    execution modes and the JSONL wire agree on names and values, not on
    the order of rows or of a row's keys."""
    return sorted(tuple(row[key] for key in sorted(row)) for row in rows)


def check(rows, want, sql: str) -> None:
    if canon(rows) != want:
        raise WrongAnswer(f"{len(rows)} rows differ from the "
                          f"{len(want)} expected: {sql}")


def run_script(db: Database, script, expected, **how) -> tuple:
    """One embedded pass of ``script``; returns the simulated totals of
    every statement, which must not change between operations."""
    totals = []
    for sql, want in zip(script, expected):
        result = db.execute(sql, **how)
        check(result.rows, want, sql)
        totals.append((result.metrics.total_cpu_units(),
                       result.metrics.total_network_bytes()))
    return tuple(totals)


def cold_cycle(inputs: Inputs, script, expected, base: str,
               recorder=NULL, **how) -> tuple:
    """new Database → DDL → load → create_join → script → save → close →
    load_database → script → clean up.  Nothing survives the call, so
    every query in it is the first on its Database."""
    path = tempfile.mkdtemp(dir=base)
    try:
        with recorder.span("database.ddl"):
            db = Database(num_partitions=PARTITIONS)
            create_schema(db, inputs)
        with contextlib.closing(db):
            with recorder.span("database.load"):
                load_tables(db, inputs)
            with recorder.span("cold.first_query"):
                first = run_script(db, script, expected, **how)
            with recorder.span("storage.save"):
                save_database(db, path)
        with recorder.span("storage.load") as span:
            db = load_database(path)
        with contextlib.closing(db):
            if span is not None:
                span["disk_bytes"] = sum(
                    os.path.getsize(os.path.join(folder, name))
                    for folder, _, names in os.walk(path) for name in names)
            return first + run_script(db, script, expected, **how)
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- workloads -------------------------------------------------------------------


class Workload:
    """One pass of ``script`` is one operation.  ``open`` builds what an
    operation runs against, ``close`` tears it down; a *fresh set-up* is
    ``open`` plus the first operation."""

    name = ""
    clients = 1
    script = ()

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.expected = None
        self.ontop_ms = None

    def prepare(self) -> None:
        """Expected answers, once: the nested-loop ground truth
        (``mode="ontop"``), which ``mode="builtin"`` must reproduce.
        The time of the on-top pass is kept: it is Fig. 9's third bar."""
        db = build_database(self.inputs)
        try:
            started = time.perf_counter()
            truth = [canon(db.execute(sql, mode="ontop").rows)
                     for sql in self.script]
            self.ontop_ms = (time.perf_counter() - started) * 1000.0
            for sql, want in zip(self.script, truth):
                check(db.execute(sql, mode="builtin").rows, want,
                      "builtin vs ontop: " + sql)
        finally:
            db.close()
        self.expected = truth

    def open(self):
        return build_database(self.inputs)

    def operate(self, state, client=0, recorder=NULL, **how):
        return run_script(state, self.script, self.expected, **how)

    def close(self, state) -> None:
        state.close()

    def same_history(self, state) -> None:
        """Raise Nondeterministic when the simulated totals, for a
        workload whose operations cannot return them, have changed."""


class SpatialPartition(Workload):
    name = "spatial_partition"
    script = (SPATIAL_SQL,)

    def __init__(self, seed: int, quick: bool) -> None:
        parks, fires = (60, 600) if quick else (400, 4000)
        super().__init__(spatial_inputs(seed, parks, fires))


class IntervalTheta(Workload):
    name = "interval_theta"
    script = (INTERVAL_SQL,)

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(interval_inputs(seed, 150 if quick else 600))


#: The serving script: (statement class, SQL).  Classes name the
#: ``client.<class>_p50_ms`` metrics.
SERVING_SCRIPT = (
    ("join_spatial", SPATIAL_SQL),
    ("scan_agg", "SELECT r.overall, COUNT(1) AS c FROM AmazonReview r "
                 "GROUP BY r.overall"),
    ("filter", "SELECT w.id, w.fire_start FROM Wildfires w "
               "WHERE w.fire_start < 66.0"),
    ("lookup", "SELECT p.id, p.tags FROM Parks p WHERE p.id = 17"),
    ("join_text", TEXT_QUERY),
    ("scan_agg", "SELECT w.id, COUNT(1) AS c FROM Wildfires w "
                 "WHERE w.fire_end > 176.0 GROUP BY w.id"),
    ("filter", "SELECT r.id, r.overall FROM AmazonReview r "
               "WHERE r.overall = 5"),
    ("lookup", "SELECT w.id, w.fire_start FROM Wildfires w "
               "WHERE w.id = 345"),
)


@dataclass
class Serving:
    db: Database
    clients: list


class ServingMixed(Workload):
    """Two SessionClient connections to ``db.serve(port=0)`` in this
    process, each looping the script; the second starts four statements
    in, so a join on one connection meets short statements on the other."""

    name = "serving_mixed"
    clients = 2
    script = tuple(sql for _, sql in SERVING_SCRIPT)

    def __init__(self, seed: int, quick: bool) -> None:
        parks, fires, reviews = (30, 400, 200) if quick else (120, 1200, 1000)
        super().__init__(spatial_inputs(seed, parks, fires)
                         + text_inputs(seed + 2, reviews))

    def open(self) -> Serving:
        db = build_database(self.inputs)
        try:
            server = db.serve(port=0)
            return Serving(db, [
                SessionClient(server.host, server.port, tenant=f"t{index}")
                for index in range(self.clients)])
        except BaseException:
            db.close()
            raise

    def operate(self, state, client=0, recorder=NULL, trace=False, **how):
        state.db.trace = trace
        connection = state.clients[client]
        fields = {key: value for key, value in how.items()
                  if value is not None}
        for step in range(len(self.script)):
            index = (step + 4 * client) % len(self.script)
            sql = self.script[index]
            with recorder.span("client.query",
                               statement=SERVING_SCRIPT[index][0]) as span:
                reply = connection.query(sql, **fields)
                if span is not None:
                    span["query_id"] = reply.get("query_id")
                    span["error"] = reply.get("error")
                    span["reply_bytes"] = 1 + len(json.dumps(
                        reply, sort_keys=True, separators=(",", ":")))
            if reply["type"] != "result":
                raise OperationFailed(f"{reply.get('error')}: {sql}")
            check(reply["rows"], self.expected[index], sql)
        return None  # the wire carries no QueryMetrics; see sys.queries

    def close(self, state) -> None:
        for connection in state.clients:
            connection.close()
        state.db.close()  # drains the server

    def same_history(self, state) -> None:
        """Served statements answer without QueryMetrics, so their
        simulated totals are read from ``sys.queries`` (the history keeps
        the last 256 statements): one value per statement of the script,
        or the run fails.  This SELECT lands in the history too, and what
        it costs goes with the rows the history holds, so only the
        script's own statements are compared."""
        rows = state.db.execute(
            "SELECT q.sql AS sql, q.cpu_units AS cpu_units, "
            "q.net_bytes AS net_bytes FROM sys.queries q "
            "WHERE q.status = 'ok' AND q.kind = 'select'").rows
        seen = {}
        for row in rows:
            if row["sql"] not in self.script:
                continue
            totals = (row["cpu_units"], row["net_bytes"])
            if seen.setdefault(row["sql"], totals) != totals:
                raise Nondeterministic(
                    f"sys.queries holds two simulated totals for one "
                    f"statement: {row['sql']}")
        if not seen:
            raise Nondeterministic("sys.queries holds none of the script's "
                                   "statements: nothing was compared")


class ColdIngest(Workload):
    name = "cold_ingest"
    script = (TEXT_QUERY,)

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(text_inputs(seed + 2, 300 if quick else 1500))

    def open(self) -> str:
        return tempfile.mkdtemp(prefix="cold-")

    def operate(self, state, client=0, recorder=NULL, **how):
        return cold_cycle(self.inputs, self.script, self.expected, state,
                          recorder, **how)

    def close(self, state) -> None:
        shutil.rmtree(state, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (SpatialPartition, IntervalTheta,
                                       ServingMixed, ColdIngest)}
