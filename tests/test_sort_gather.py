"""ORDER BY gathers its sorted runs to worker 0 through the exchange.

The gather is an exchange like any other: its bytes are serialized and
counted in ``engine/exchange.py``, a flaky link re-sends them, a
checkpointing plan spools them and the trace shows it as an ``exchange``
span under the sort.  The runs arrive on worker 0 in worker order, which
is the order the merge reads them in.
"""

from contextlib import closing

from repro import Database, FaultPlan

SQL = "SELECT r.id, r.v FROM R r ORDER BY r.v DESC, r.id"

#: Link failures on the gather only.
FLAKY_GATHER = FaultPlan(seed=3, exchange_failure_rate=0.9,
                         phases=("gather",))


def _database() -> Database:
    db = Database(num_partitions=4)
    db.execute("CREATE TYPE T { id: int, v: int }")
    db.execute("CREATE DATASET R(T) PRIMARY KEY id")
    db.load("R", [{"id": i, "v": (i * 37) % 11} for i in range(60)])
    return db


def _gather(metrics):
    return [stage for stage in metrics.stages
            if stage.name.endswith("/gather")]


def test_the_gather_moves_the_runs_through_the_exchange():
    with closing(_database()) as db:
        result = db.execute(SQL)
    expected = sorted(({"r.id": i, "r.v": (i * 37) % 11} for i in range(60)),
                      key=lambda row: (-row["r.v"], row["r.id"]))
    assert result.rows == expected
    (gather,) = _gather(result.metrics)
    # The bytes that cross are the exchange's; the sort counts none.
    assert gather.network_bytes > 0
    assert all(stage.network_bytes == 0 for stage in result.metrics.stages
               if stage.name.startswith("sort") and stage is not gather)
    assert gather.records_in == gather.records_out == 60


def test_a_flaky_link_retries_the_gather():
    with closing(_database()) as db:
        clean = db.execute(SQL)
        db.fault_plan = FLAKY_GATHER
        faulty = db.execute(SQL)
        events = db.telemetry.events.to_jsonl()
    assert faulty.rows == clean.rows
    assert faulty.metrics.exchange_retries > 0
    assert "fault.exchange_retry" in events
    (clean_gather,) = _gather(clean.metrics)
    (faulty_gather,) = _gather(faulty.metrics)
    # The re-sent bytes are the gather's, and so is the backoff.
    assert faulty_gather.network_bytes > clean_gather.network_bytes
    assert (faulty.metrics.simulated_seconds(1)
            > clean.metrics.simulated_seconds(1))


def test_a_traced_order_by_shows_its_gather_under_the_sort():
    with closing(_database()) as db:
        result = db.execute(SQL, trace=True)
    sorts = [span for span in result.trace.walk()
             if span.kind == "operator" and span.name.startswith("sort")]
    assert len(sorts) == 1
    children = [(child.kind, child.name) for child in sorts[0].children]
    assert ("exchange", "gather") in children


def test_a_budgeted_gather_admits_what_it_brings_to_worker_0():
    # 400 rows of two int64 fields: 18 wire bytes each, all of them on
    # worker 0 after the gather, against a 2,048-byte worker budget.
    def database(budget):
        db = Database(num_partitions=4, memory_budget=budget)
        db.execute("CREATE TYPE T { id: int, v: int }")
        db.execute("CREATE DATASET R(T) PRIMARY KEY id")
        db.load("R", [{"id": i, "v": (i * 37) % 11} for i in range(400)])
        return db

    with closing(database(None)) as db:
        free = db.execute(SQL)
    with closing(database(2048)) as db:
        budgeted = db.execute(SQL)
    assert budgeted.rows == free.rows
    gathered = 400 * 18
    assert budgeted.metrics.peak_reserved_bytes >= gathered
    assert budgeted.metrics.spill_bytes > 0
    assert free.metrics.spill_bytes == 0
