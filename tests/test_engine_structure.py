"""One copy of each engine decision: the hooks have one calling module.

The FUDJ operator used to hold four exchanges that repeated
``engine/exchange.py``'s line for line, the process pool a retry loop
that mirrored ``ExecutionContext.run_task``, and the record frame was
encoded by hand in five places.  Copies like that come back one
convenient call at a time, so this test parses ``src/repro`` and fails
on a call to an engine hook from anywhere but the module that owns the
decision — or from a function listed below with its reason.  The
built-in joins held four more exchanges of their own; bytes that cross
workers are counted in ``engine/exchange.py`` or in a function listed
in :data:`BYTE_COUNTERS`.

The same goes for a fact declared twice: a per-statement counter was
hand-listed in seven places across ``metrics.py`` and ``telemetry.py``,
the stage-name pattern compiled in two modules, a statement recorded
from two call sites.  Four tests hold each to one.

And for a row's container: below a pipeline breaker the streaming
operators hand on value tuples, and the Record tests count the Records a
plan makes.

And for ``match``: a row of its calls is made once per query, by the
relation builder, and never by a COMBINE task.

And for a query's stop condition: a timeout used to be a second clock in
``ExecutionContext`` beside the cancellation token, and a served
deadline a third, a watchdog thread that flipped the token; one test
holds the deadline to the token.

And for what is built only to measure a row: the last test counts the
Rectangles a spatial query makes and the values it serializes.
"""

import ast
import inspect
import sys
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest

import repro
from repro import Database
from repro import server
from repro.bench import SPATIAL_SQL, spatial_database
from repro.database import _error_status
from repro.engine import kernels
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan
from repro.engine.metrics import QueryMetrics
from repro.engine.record import Record
from repro.engine.telemetry import STATEMENT_FACTS
from repro.geometry import Rectangle
from repro.serde import serializer
from tests.helpers import BandJoin

ROOT = Path(repro.__file__).parent

#: hook -> where it may be called from: a path under src/repro (any
#: function of that module) or ``(path, qualified function name)``.
CALLERS = {
    # Link faults and the checkpoint copy are an exchange's to apply.
    "apply_exchange_faults": {"engine/exchange.py"},
    "checkpoint_outputs": {"engine/exchange.py"},
    "charge_checkpoint": {
        "engine/exchange.py",
        # checkpoint_outputs is charge_checkpoint per received partition.
        ("engine/faults.py", "checkpoint_outputs"),
    },
    # The crash / straggler rolls belong to the one retry loop.
    "crashes": {
        ("engine/context.py", "ExecutionContext.run_task"),
        # The physical acting script of FaultPlan(real=True): how often a
        # worker process really dies — not the accounting, which is
        # run_task's on either backend.
        ("engine/workers.py", "_fault_schedule"),
    },
    "straggles": {
        ("engine/context.py", "ExecutionContext.run_task"),
        ("engine/workers.py", "_fault_schedule"),
    },
    # ``match`` is decided once per query, in the relation the kernels
    # look up (combine.match_relation); one by one only for the sparse
    # candidates of a ``local_join``, memoised per pair of a task.
    "safe_match": {("engine/combine.py", "_BucketPairs.matches")},
    # A task's ``verify`` calls share one policy frame; one by one only
    # to redo a block in which some call raised.
    "safe_verify": {("engine/combine.py", "_Verifier.flush")},
    # A statement is recorded where it ends, whichever way it ends.
    "record_statement": {("database.py", "Database.execute")},
}

#: Functions outside engine/exchange.py that add to a stage's
#: ``network_bytes`` or ``fabric_bytes``.
BYTE_COUNTERS = {
    # Re-sends over a flaky link; only exchanges call it.
    ("engine/faults.py", "apply_exchange_faults"),
    # Partial summaries to the coordinator and the PPlan back: small
    # messages, charged as constants.
    ("engine/operators/fudj_join.py", "FudjJoin._summarize_side_inner"),
    ("engine/operators/fudj_join.py", "FudjJoin.run"),
    ("builtin/spatial_operator.py", "BuiltinSpatialJoinOperator._side_mbr"),
    ("builtin/interval_operator.py",
     "BuiltinIntervalJoinOperator._side_range"),
    ("builtin/text_operator.py",
     "BuiltinTextSimilarityJoinOperator._count_tokens"),
}

#: ``QueryMetrics.to_dict()`` keys telemetry does not read, and why.
NOT_STATEMENT_FACTS = {
    "wall_seconds": "recorded from Database.execute's own clock, which "
                    "starts before the parse and stops after the fold",
    "output_records": "the history's rows column, counted off the result",
}

#: ``to_dict()`` keys telemetry stores under another name.
RENAMED_FACTS = ("network_bytes", "translation_conversions",
                 "stragglers_detected", "records_quarantined")

#: The same, for calls made under src/repro/engine only: the serde layer
#: has other users (storage, the translator), the engine has one frame.
ENGINE_CALLERS = {
    "serialize_value": {
        ("engine/resources.py", "encode_frame"),
    },
    "deserialize_value": {("engine/resources.py", "decode_frame")},
    # A join key is made once per query, in one function: the key
    # expression, the translation layer, the library's ``prepare``.
    "to_external_all": {
        ("engine/operators/fudj_join.py", "FudjJoin._key_column")},
    "_key_column": {
        # Each side's column, before SUMMARIZE; every phase reads it.
        ("engine/operators/fudj_join.py", "FudjJoin.run"),
        # An entry replayed from a spill file has its key made again.
        ("engine/combine.py", "LocalSite._admit"),
    },
}


class _Calls(ast.NodeVisitor):
    """Collects ``(callee name, qualified calling function)`` of every
    call, ``(attribute, qualified function)`` of every augmented
    assignment to an attribute, and the name of every class."""

    def __init__(self) -> None:
        self.scope = []
        self.calls = []
        self.augmented = []
        self.classes = []

    def visit_ClassDef(self, node) -> None:
        self.classes.append(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AugAssign(self, node) -> None:
        if isinstance(node.target, ast.Attribute):
            self.augmented.append((node.target.attr, ".".join(self.scope)))
        self.generic_visit(node)

    def visit_Call(self, node) -> None:
        callee = node.func
        name = getattr(callee, "id", None) or getattr(callee, "attr", None)
        if name is not None:
            self.calls.append((name, ".".join(self.scope)))
        self.generic_visit(node)


def scan(package: str = ""):
    """``(path, visitor)`` for every module under src/repro/``package``."""
    for path in sorted((ROOT / package).rglob("*.py")):
        visitor = _Calls()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        yield path.relative_to(ROOT).as_posix(), visitor


def strays(allowed: dict, package: str = "") -> list:
    found = []
    for path, visitor in scan(package):
        for name, function in visitor.calls:
            where = allowed.get(name)
            if (where is not None and path not in where
                    and (path, function) not in where):
                found.append(f"{name}() in src/repro/{path}: {function}")
    return found


def test_engine_hooks_have_one_calling_module():
    found = strays(CALLERS) + strays(ENGINE_CALLERS, "engine")
    assert not found, (
        "an engine hook is called from outside the module that owns it "
        "(call that module instead, or list the function in CALLERS with "
        "the reason):\n" + "\n".join(found))


def test_every_listed_caller_still_calls():
    present = {(name, path, function)
               for path, visitor in scan()
               for name, function in visitor.calls}
    for name, where in {**CALLERS, **ENGINE_CALLERS}.items():
        for entry in where:
            if isinstance(entry, tuple):
                assert (name, *entry) in present, (name, entry)
            else:
                assert any(hit[:2] == (name, entry) for hit in present), (
                    name, entry)


def byte_counters() -> set:
    """``(path, function)`` of every augmented assignment to
    ``network_bytes`` or ``fabric_bytes`` under src/repro."""
    return {(path, function)
            for path, visitor in scan()
            for name, function in visitor.augmented
            if name in ("network_bytes", "fabric_bytes")}


def test_bytes_cross_workers_only_through_the_exchanges():
    found = sorted(f"src/repro/{path}: {function}"
                   for path, function in byte_counters() - BYTE_COUNTERS
                   if path != "engine/exchange.py")
    assert not found, (
        "bytes counted outside engine/exchange.py (send them through "
        "route_exchange / replicate_exchange, or list the function in "
        "BYTE_COUNTERS with the reason):\n" + "\n".join(found))


def test_every_listed_byte_counter_still_counts():
    assert BYTE_COUNTERS <= byte_counters()


def test_no_shim_classes_in_the_engine():
    shims = [f"src/repro/{path}: {name}"
             for path, visitor in scan("engine")
             for name in visitor.classes if name.endswith("Shim")]
    assert not shims, (
        "an adapter that exists to satisfy another module's signature; "
        "change the signature:\n" + "\n".join(shims))


def test_the_visitor_names_the_calling_function():
    visitor = _Calls()
    visitor.visit(ast.parse(
        "class A:\n"
        "    def m(self, plan):\n"
        "        def inner():\n"
        "            return plan.crashes(1)\n"
        "        helper()\n"
        "        self.stage.network_bytes += 1\n"
        "class BShim: pass\n"))
    assert visitor.calls == [("crashes", "A.m.inner"), ("helper", "A.m")]
    assert visitor.augmented == [("network_bytes", "A.m")]
    assert visitor.classes == ["A", "BShim"]


def string_constants(path: str) -> list:
    tree = ast.parse((ROOT / path).read_text())
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_every_to_dict_key_is_a_declared_fact():
    declared = {key for key, *_ in STATEMENT_FACTS}
    assert not declared & set(NOT_STATEMENT_FACTS)
    left_out = set(QueryMetrics().to_dict()) - declared - set(
        NOT_STATEMENT_FACTS)
    assert not left_out, (
        f"to_dict() keys telemetry never sees: {sorted(left_out)} — add a "
        "STATEMENT_FACTS row (or a NOT_STATEMENT_FACTS entry and its reason)")
    assert declared <= set(QueryMetrics().to_dict())


def test_a_renamed_fact_is_spelled_once():
    constants = string_constants("engine/telemetry.py")
    for key in RENAMED_FACTS:
        assert constants.count(key) == 1, (
            f"{key!r} is written {constants.count(key)} times in "
            "telemetry.py; read it from STATEMENT_FACTS")


def test_one_module_knows_the_instance_id_pattern():
    owners = [path for path, _ in scan()
              if r"#\d+" in string_constants(path)]
    assert owners == ["engine/metrics.py"], owners


class _Batches(_Calls):
    """:class:`_Calls` that also keeps the phase of every ``guard_batch``
    call: ``(phase, qualified calling function)``."""

    def __init__(self) -> None:
        super().__init__()
        self.batches = []

    def visit_Call(self, node) -> None:
        callee = node.func
        name = getattr(callee, "id", None) or getattr(callee, "attr", None)
        if (name == "guard_batch" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            self.batches.append((node.args[1].value, ".".join(self.scope)))
        super().visit_Call(node)


def test_match_is_batched_only_by_the_relation_builder():
    """A row of ``match`` calls is made in one place, once per query,
    before any COMBINE task runs; the kernels only look candidates up."""
    callers = []
    for path in sorted(ROOT.rglob("*.py")):
        visitor = _Batches()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        callers += [(path.relative_to(ROOT).as_posix(), function)
                    for phase, function in visitor.batches
                    if phase == "match"]
    assert callers == [("engine/combine.py", "match_relation")], callers


def test_a_statement_is_recorded_from_one_call_site():
    sites = [function for path, visitor in scan()
             for name, function in visitor.calls
             if name == "record_statement"]
    assert sites == ["Database.execute"], sites


# -- one Record per row that reaches a pipeline breaker ---------------------------
#
# Scan, prune, filter and map hand each other value tuples (``rows``); a
# Record is made where an operator that needs records reads them.  The
# tests below count ``Record.__init__`` calls by the schema they are made
# for, so that a convenient ``execute`` in a streaming operator — one
# Record per row per operator, which is what these plans cost before —
# shows as a count and not as a slower benchmark three PRs later.


@pytest.fixture
def records_made(monkeypatch):
    """``{schema fields: Records constructed}`` while the test runs."""
    made = Counter()
    construct = Record.__init__

    def counting(self, schema, values):
        made[schema.fields] += 1
        construct(self, schema, values)

    monkeypatch.setattr(Record, "__init__", counting)
    return made


def _fires(rows: int = 1200) -> Database:
    db = Database(num_partitions=4, execution="row")
    db.execute("CREATE TYPE FireType { id: int, start: double, "
               "zone: int, note: string }")
    db.execute("CREATE DATASET Fires(FireType) PRIMARY KEY id")
    db.load("Fires", [{"id": i, "start": float(i % 97), "zone": i % 7,
                       "note": f"n{i}"} for i in range(rows)])
    return db


def test_a_point_lookup_makes_no_record_per_row(records_made):
    # The serving_mixed lookup shape.  At the parent of this test's PR:
    # 2,401 — 1,200 scanned, 1,200 pruned, 1 mapped.
    with closing(_fires()) as db:
        records_made.clear()
        result = db.execute("SELECT f.id, f.start FROM Fires f "
                            "WHERE f.id = 345")
        assert result.rows == [{"f.id": 345, "f.start": 345.0 % 97}]
        assert sum(records_made.values()) <= 2, records_made


def test_a_scanned_group_by_makes_no_record_before_its_partial_states(
        records_made):
    with closing(_fires()) as db:
        records_made.clear()
        result = db.execute("SELECT f.zone, COUNT(1) AS c FROM Fires f "
                            "WHERE f.start < 50.0 GROUP BY f.zone")
        assert len(result.rows) == 7
        # Partial states shuffle as value tuples; output rows out of the
        # merge are the only Records.
        assert set(records_made) == {("f.zone", "c")}, records_made
        assert records_made["f.zone", "c"] == 7


def test_a_filtered_fudj_input_makes_no_record_per_input_row(records_made):
    with closing(_fires(300)) as db:
        db.create_join("near", BandJoin, defaults=(1.5, 8))
        records_made.clear()
        result = db.execute(
            "SELECT a.id, b.id FROM Fires a, Fires b "
            "WHERE near(a.start, b.start) AND a.zone = 3 AND b.id < 40")
        assert result.rows
        inputs = {fields: count for fields, count in records_made.items()
                  if len({name.split(".")[0] for name in fields}) == 1
                  and fields[0][:2] in ("a.", "b.")}
        assert not inputs, inputs
        # What is left is COMBINE's one Record per joined row.
        assert list(records_made.values()) == [len(result.rows)], (
            records_made)


def test_the_kernels_hold_no_row_cursor():
    assert not hasattr(kernels, "_RowCursor")
    assert not hasattr(kernels, "make_cursor")


# -- one stop condition per query ------------------------------------------------


def test_the_cancellation_token_is_the_only_stop_condition():
    # Only the token's check() decides a query ran out of time...
    raisers = sorted({path for path, visitor in scan()
                      for name, _ in visitor.calls
                      if name == "QueryTimeoutError"})
    assert raisers == ["engine/cancel.py"], raisers
    # ...so the engine keeps no clock of its own,
    assert not hasattr(ExecutionContext, "check_timeout")
    for function in (ExecutionContext.__init__, execute_plan):
        assert "timeout_seconds" not in inspect.signature(function).parameters
    # and the server arms no watchdog and maps no cancel reason to a
    # status: a deadline is the token's, recorded as what it raised.
    server_calls = {name for path, visitor in scan()
                    if path == "server.py" for name, _ in visitor.calls}
    assert "Timer" not in server_calls
    assert server._error_status is _error_status


# -- nothing built per record just to measure it ---------------------------------
#
# A spatial key is folded into its side's MBR with ``Rectangle.cover`` and
# mapped to its tiles with ``UniformGrid.tile_ids_of``; an exchange sizes
# a row with ``encoded_size``.  At the parent of this test's change the
# query below built 12,399 Rectangles — ``Point.mbr()`` twice per
# Wildfires point and one ``union`` per record — and made 4,386
# ``serialize_value`` calls, sizing each row it moved by serializing it
# into a scratch buffer.


def test_a_spatial_fudj_query_builds_and_serializes_nothing_per_record(
        monkeypatch):
    made = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            made[name] += 1
            return function(*args, **kwargs)
        return counted

    # spatial_partition's shape: 8 partitions, grid 48; no memory budget,
    # fault plan or save, so no record is framed for a spill, a
    # checkpoint or a file.
    with closing(spatial_database(400, 4000)) as db:
        monkeypatch.setattr(Rectangle, "__init__",
                            counting("Rectangle", Rectangle.__init__))
        original = serializer.serialize_value
        for module in list(sys.modules.values()):
            if getattr(module, "serialize_value", None) is original:
                monkeypatch.setattr(module, "serialize_value",
                                    counting("serialize_value", original))
        result = db.execute(SPATIAL_SQL, mode="fudj")
    assert len(result.rows) == 51
    # What is left is one Rectangle each time a partition's running MBR
    # grows (233), each partition's first key (8), the merges (14) and
    # the overlap (1): 2.1 % of the parent's.
    assert made["serialize_value"] == 0, made
    assert made["Rectangle"] <= 12_399 * 0.025, made
