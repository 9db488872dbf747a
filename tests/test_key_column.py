"""A join key is made once per query, and a SUMMARIZE / PARTITION task
makes its calls under one policy frame.

:meth:`FudjJoin._key_column` takes each record through the key
expression, the translation layer and the library's ``prepare`` once;
every phase reads that column.  A task then makes all its
``local_aggregate`` / ``assign`` calls inside one
:meth:`ExecutionContext.guard_batch` and only when some call raised makes
them again, record by record, under ``guard_record``.  Pinned here:

- with a poison record in the middle of a partition, under ``skip`` and
  ``quarantine``, the summary, the entries, the bytes of the quarantine
  log and the callback spans' ``calls`` are those of the loop written out
  below — one guarded scalar call per record per phase, each deriving
  what it needs from the raw key, which is what the operator did before
  it had a key column — for a library that mutates its summary in place
  (text) and one that does not (spatial);
- ``prepare`` runs once per input record per query, whatever the
  backend or the SUMMARIZE sample, and once more per spilled entry;
- a token cancelled inside a slow ``local_aggregate`` stops the task
  before its next record.
"""

import json
import os

import pytest

from repro.core.flexible_join import JoinSide
from repro.database import Database
from repro.engine import Cluster, Schema
from repro.engine.cancel import CancellationToken
from repro.engine.context import ExecutionContext
from repro.engine.operators import FudjJoin, Scan
from repro.errors import FudjCallbackError, QueryCancelledError
from repro.geometry import Point
from repro.joins import SpatialJoin, TextSimilarityJoin
from repro.serde.values import unbox

# -- the batch frame against the record-by-record loop ---------------------------


class FussyTextJoin(TextSimilarityJoin):
    """Raises on a text holding the word ``poison`` — in the callbacks,
    not in ``prepare``.  The summary is a dict mutated in place."""

    def local_aggregate(self, tokens, summary, side):
        if "poison" in tokens:
            raise ValueError("poison text")
        return super().local_aggregate(tokens, summary, side)

    def assign(self, tokens, pplan, side):
        if "poison" in tokens:
            raise ValueError("poison text")
        return super().assign(tokens, pplan, side)


TEXTS = ["alpha beta gamma", "beta gamma delta", "gamma delta alpha",
         "alpha poison beta",  # raises in local_aggregate and assign
         "delta alpha beta", "beta delta", "alpha gamma",
         None,                 # raises in prepare
         "gamma beta alpha delta", "delta gamma", "alpha beta",
         "beta gamma"]

#: ``mbr_of(None)`` raises; the summary is an immutable rectangle.
POINTS = [Point(float(i), float(i % 5)) for i in range(5)] + [None] + [
    Point(float(i), float(i % 3)) for i in range(5, 12)]

LIBRARIES = {
    "text": (lambda: FussyTextJoin(0.5), TEXTS),
    "spatial": (lambda: SpatialJoin(4), POINTS),
}


def left_side(values):
    """One partition, so the poison records sit between healthy ones."""
    cluster = Cluster(num_partitions=1)
    for name in ("L", "R"):
        dataset = cluster.create_dataset(name, Schema(["id", "k"]), "id")
        dataset.bulk_load({"id": i, "k": value}
                          for i, value in enumerate(values))
    return cluster


def operator(join) -> FudjJoin:
    return FudjJoin(Scan("L", "l"), Scan("R", "r"), join,
                    lambda record: record["l.k"],
                    lambda record: record["r.k"])


def reference(join, ctx, records):
    """SUMMARIZE and PARTITION of one partition, one guarded scalar call
    per record per phase, each call starting from the raw key."""
    side = JoinSide.LEFT

    def prepared(raw):
        return join.prepare(raw, side) if join.prepares() else raw

    def aggregate(raw, summary):
        return join.local_aggregate(prepared(raw), summary, side)

    def assign(raw):
        return join.assign_list(prepared(raw), pplan, side)

    raws = [unbox(record["l.k"]) for record in records]
    with ctx.tracer.span("summarize-left", kind="stage"):
        summary = None
        for raw, record in zip(raws, records):
            ok, folded = ctx.guard_record(join.name, "local_aggregate",
                                          aggregate, raw, summary,
                                          detail=record)
            if ok:
                summary = folded
    pplan = join.divide(summary, summary)
    entries = []
    with ctx.tracer.span("assign-left", kind="stage"):
        for raw, record in zip(raws, records):
            ok, bucket_ids = ctx.guard_record(join.name, "assign", assign,
                                              raw, detail=record)
            if ok:
                assignment = (tuple(sorted(bucket_ids))
                              if len(bucket_ids) > 1 else None)
                entries += [(bucket_id, raw, record.values, assignment)
                            for bucket_id in bucket_ids]
    return summary, pplan, entries


def callback_calls(ctx) -> dict:
    """``(calls, errors)`` of every callback span of the query so far."""
    found = {}

    def walk(span):
        if span.kind == "callback":
            found[span.name] = (span.calls, span.errors)
        for child in span.children:
            walk(child)

    walk(ctx.tracer.root)
    return found


@pytest.mark.parametrize("policy", ["skip", "quarantine"])
@pytest.mark.parametrize("library", sorted(LIBRARIES))
def test_a_poison_record_mid_partition_is_the_scalar_loops_answer(
        library, policy):
    make_join, values = LIBRARIES[library]
    cluster = left_side(values)

    want_ctx = ExecutionContext(cluster, on_error=policy, trace=True)
    records = Scan("L", "l").execute(want_ctx).partitions[0]
    poison = [i for i, record in enumerate(records)
              if unbox(record["l.k"]) is None
              or "poison" in str(unbox(record["l.k"]))]
    assert poison and 0 < min(poison) and max(poison) < len(records) - 1
    want_summary, pplan, want_entries = reference(
        make_join(), want_ctx, records)

    ctx = ExecutionContext(cluster, on_error=policy, trace=True)
    op = operator(make_join())
    left = op.left.execute(ctx)
    column = [op._key_column(partition, JoinSide.LEFT, ctx)
              for partition in left.partitions]
    summary = op._summarize_side(left, column, JoinSide.LEFT, ctx)
    entries = op._assign_side(left, column, JoinSide.LEFT, pplan, ctx)[0]

    assert summary == want_summary
    assert [(bucket_id, raw, record.values, assignment)
            for bucket_id, _, record, assignment, raw in entries
            ] == want_entries
    assert entries, "every record was dropped: nothing was compared"
    if library == "text":
        # What the callbacks got is what ``prepare`` made of the raw key.
        assert all(key == op.join.prepare(raw, JoinSide.LEFT)
                   for _, key, _, _, raw in entries)
    assert (ctx.metrics.records_quarantined
            == want_ctx.metrics.records_quarantined == 2 * len(poison))
    assert (json.dumps(ctx.metrics.quarantine_log)
            == json.dumps(want_ctx.metrics.quarantine_log))
    assert bool(ctx.metrics.quarantine_log) == (policy == "quarantine")
    assert callback_calls(ctx) == callback_calls(want_ctx) == {
        "local_aggregate": (len(records), len(poison)),
        "assign": (len(records), len(poison)),
    }


def test_a_healthy_partition_is_one_frame_with_every_call_counted():
    make_join, values = LIBRARIES["text"]
    healthy = [text for text in values if text and "poison" not in text]
    cluster = left_side(healthy)
    ctx = ExecutionContext(cluster, trace=True)
    operator(make_join()).execute(ctx)
    calls = callback_calls(ctx)
    # Both sides scan the same texts; SUMMARIZE and PARTITION each made
    # one call per record, none failed.
    assert calls["local_aggregate"] == calls["assign"] == (len(healthy), 0)
    assert ctx.finish().translation_conversions == 2 * len(healthy)


def test_fail_names_the_callback_that_was_to_receive_the_key():
    """A ``prepare`` that raises fails the query where the library used
    to raise it: in the first callback handed that record's key."""
    ctx = ExecutionContext(left_side(TEXTS[6:9]))
    with pytest.raises(FudjCallbackError) as raised:
        operator(TextSimilarityJoin(0.5)).execute(ctx)
    assert "failed in local_aggregate: AttributeError" in str(raised.value)


def test_a_quarantined_verify_pair_is_reported_by_its_raw_keys():
    class FussyVerify(TextSimilarityJoin):
        def verify(self, tokens1, tokens2, pplan):
            if "delta" in tokens1 and "delta" in tokens2:
                raise ValueError("poison pair")
            return super().verify(tokens1, tokens2, pplan)

    ctx = ExecutionContext(left_side(["alpha beta", "gamma delta"]),
                           on_error="quarantine")
    operator(FussyVerify(0.5)).execute(ctx)
    assert [entry["record"] for entry in ctx.metrics.quarantine_log] == [
        repr(("gamma delta", "gamma delta"))]


# -- how often ``prepare`` runs -----------------------------------------------------


class CountingTextJoin(TextSimilarityJoin):
    """Appends a byte to :attr:`ledger` per ``prepare`` call, so calls
    made in a worker process are counted too."""

    ledger = None

    def prepare(self, text, side):
        with open(self.ledger, "ab") as ledger:
            ledger.write(b".")
        return super().prepare(text, side)


REVIEWS = [{"id": i, "stars": 4 + i % 2,
            "review": " ".join(f"w{(i * step) % 23}" for step in (1, 2, 3, 5))}
           for i in range(120)]
SQL = ("SELECT r1.id AS a, r2.id AS b FROM Reviews r1, Reviews r2 "
       "WHERE r1.stars = 5 AND r2.stars = 4 "
       "AND similarity_jaccard(r1.review, r2.review) >= 0.5")
#: Both sides of the join after their filters.
INPUT_RECORDS = len(REVIEWS)


@pytest.fixture
def counting_database(tmp_path):
    CountingTextJoin.ledger = str(tmp_path / "prepare-calls")
    databases = []

    def build(**options) -> Database:
        db = Database(num_partitions=3, **options)
        databases.append(db)
        db.execute("CREATE TYPE R { id: int, stars: int, review: text }")
        db.execute("CREATE DATASET Reviews(R) PRIMARY KEY id")
        db.load("Reviews", REVIEWS)
        db.create_join("similarity_jaccard", CountingTextJoin)
        return db

    yield build
    for db in databases:
        db.close()


def prepare_calls() -> int:
    ledger = CountingTextJoin.ledger
    return os.path.getsize(ledger) if os.path.exists(ledger) else 0


@pytest.mark.parametrize("how", [
    {}, {"backend": "process"}, {"summarize_sample": 0.25},
    {"dedup": "elimination"}])
def test_prepare_runs_once_per_input_record(counting_database, how):
    how = dict(how)
    db = counting_database()
    if how.pop("backend", None):
        db.set_backend("process")
    want = sorted(map(repr, counting_database().execute(
        SQL, mode="ontop").rows))
    result = db.execute(SQL, **how)
    assert prepare_calls() == INPUT_RECORDS
    assert result.metrics.translation_conversions == INPUT_RECORDS
    assert sorted(map(repr, result.rows)) == want and want
    db.execute(SQL, **how)  # nothing is kept from one query to the next
    assert prepare_calls() == 2 * INPUT_RECORDS


def test_prepare_runs_once_more_per_spilled_entry(counting_database):
    db = counting_database(memory_budget=512)
    want = sorted(map(repr, counting_database().execute(SQL).rows))
    before = prepare_calls()
    result = db.execute(SQL)
    replayed = sum(
        event["detail"]["spilled_items"]
        for event in map(json.loads,
                         db.telemetry.events.to_jsonl().splitlines())
        if event["kind"] == "resource.spill"
        and event["stage"].endswith("/combine"))
    assert replayed > 0
    assert prepare_calls() - before == INPUT_RECORDS + replayed
    assert (result.metrics.translation_conversions
            == INPUT_RECORDS + replayed)
    assert sorted(map(repr, result.rows)) == want


# -- cancellation -------------------------------------------------------------------


class SlowSummaryJoin(TextSimilarityJoin):
    """Its third ``local_aggregate`` is the slow one: the controller
    cancels the query while it runs."""

    token = None
    calls = 0

    def local_aggregate(self, tokens, summary, side):
        type(self).calls += 1
        if self.calls == 3:
            self.token.cancel("stop")
        return super().local_aggregate(tokens, summary, side)


def test_a_cancel_inside_local_aggregate_stops_before_the_next_record():
    SlowSummaryJoin.token = CancellationToken()
    SlowSummaryJoin.calls = 0
    healthy = [text for text in TEXTS if text]
    ctx = ExecutionContext(left_side(healthy), on_error="skip",
                           cancel=SlowSummaryJoin.token)
    with pytest.raises(QueryCancelledError):
        operator(SlowSummaryJoin(0.5)).execute(ctx)
    assert SlowSummaryJoin.calls == 3 < len(healthy)
