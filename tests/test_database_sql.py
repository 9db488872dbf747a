"""End-to-end SQL tests through the Database facade (DDL + queries)."""

import threading

import pytest

from repro.database import Database
from repro.errors import (
    CatalogError,
    ExecutionError,
    JoinLibraryError,
    PlanError,
)


@pytest.fixture()
def db():
    db = Database(num_partitions=4)
    db.execute("CREATE TYPE ItemType { id: int, grp: int, price: double, "
               "name: string }")
    db.execute("CREATE DATASET Items(ItemType) PRIMARY KEY id")
    db.load("Items", [
        {"id": i, "grp": i % 3, "price": float(i), "name": f"item{i}"}
        for i in range(30)
    ])
    return db


class TestDdl:
    def test_create_type_twice_fails(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TYPE ItemType { id: int }")

    def test_create_dataset_unknown_type(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE DATASET X(NoType) PRIMARY KEY id")

    def test_drop_dataset(self, db):
        db.execute("DROP DATASET Items")
        with pytest.raises(Exception):
            db.execute("SELECT i.id FROM Items i")

    def test_create_join_via_sql(self, db):
        db.execute(
            'CREATE JOIN my_spatial(a: geometry, b: geometry) RETURNS boolean '
            'AS "repro.joins.spatial.SpatialJoin" AT repro'
        )
        assert "my_spatial" in db.joins
        db.execute("DROP JOIN my_spatial(a: geometry, b: geometry)")
        assert "my_spatial" not in db.joins

    def test_create_join_duplicate(self, db):
        db.execute('CREATE JOIN j(a: int, b: int) RETURNS boolean AS "x.Y"')
        with pytest.raises(JoinLibraryError):
            db.execute('CREATE JOIN j(a: int, b: int) RETURNS boolean AS "x.Y"')

    def test_drop_missing_join(self, db):
        with pytest.raises(JoinLibraryError):
            db.execute("DROP JOIN nope")

    def test_bad_class_path_fails_at_use_not_create(self, db):
        db.execute('CREATE JOIN lazy(a: int, b: int) RETURNS boolean AS "no.Cls"')
        db.execute("CREATE TYPE T2 { id: int, k: int }")
        db.execute("CREATE DATASET Other(T2) PRIMARY KEY id")
        db.load("Other", [{"id": 1, "k": 1}])
        with pytest.raises(JoinLibraryError):
            db.execute(
                "SELECT i.id FROM Items i, Other o WHERE lazy(i.grp, o.k)"
            )


class TestSelect:
    def test_projection(self, db):
        result = db.execute("SELECT i.id, i.name FROM Items i")
        assert len(result) == 30
        assert result.schema == ("i.id", "i.name")

    def test_filter(self, db):
        result = db.execute("SELECT i.id FROM Items i WHERE i.price < 5")
        assert sorted(result.column("i.id")) == [0, 1, 2, 3, 4]

    def test_expression_in_select(self, db):
        result = db.execute("SELECT i.price * 2 AS double_price FROM Items i "
                            "WHERE i.id = 3")
        assert result.rows == [{"double_price": 6.0}]

    def test_count_star(self, db):
        result = db.execute("SELECT COUNT(*) AS n FROM Items i")
        assert result.rows == [{"n": 30}]

    def test_scalar_aggregates(self, db):
        result = db.execute(
            "SELECT COUNT(1) AS n, SUM(i.price) AS s, AVG(i.price) AS a, "
            "MIN(i.price) AS lo, MAX(i.price) AS hi FROM Items i"
        )
        row = result.rows[0]
        assert row["n"] == 30
        assert row["s"] == sum(range(30))
        assert row["a"] == pytest.approx(14.5)
        assert row["lo"] == 0.0
        assert row["hi"] == 29.0

    def test_group_by(self, db):
        result = db.execute(
            "SELECT i.grp, COUNT(1) AS n FROM Items i GROUP BY i.grp"
        )
        assert sorted((r["i.grp"], r["n"]) for r in result.rows) == [
            (0, 10), (1, 10), (2, 10),
        ]

    def test_group_by_with_order_and_limit(self, db):
        result = db.execute(
            "SELECT i.grp, SUM(i.price) AS total FROM Items i "
            "GROUP BY i.grp ORDER BY total DESC LIMIT 2"
        )
        totals = [r["total"] for r in result.rows]
        assert len(totals) == 2
        assert totals == sorted(totals, reverse=True)

    def test_order_by_column(self, db):
        result = db.execute(
            "SELECT i.id FROM Items i WHERE i.grp = 0 ORDER BY i.id DESC"
        )
        assert result.column("i.id") == [27, 24, 21, 18, 15, 12, 9, 6, 3, 0]

    def test_order_by_expression(self, db):
        result = db.execute(
            "SELECT i.id FROM Items i ORDER BY i.price * -1 LIMIT 3"
        )
        assert result.column("i.id") == [29, 28, 27]

    def test_limit(self, db):
        assert len(db.execute("SELECT i.id FROM Items i LIMIT 4")) == 4

    def test_equi_self_join(self, db):
        result = db.execute(
            "SELECT COUNT(1) AS n FROM Items a, Items b WHERE a.grp = b.grp"
        )
        assert result.rows == [{"n": 300}]  # 3 groups x 10 x 10

    def test_theta_join_via_nlj(self, db):
        result = db.execute(
            "SELECT COUNT(1) AS n FROM Items a, Items b "
            "WHERE a.id < b.id AND b.id < 3"
        )
        assert result.rows == [{"n": 3}]  # (0,1), (0,2), (1,2)

    def test_function_in_filter(self, db):
        result = db.execute(
            "SELECT i.id FROM Items i WHERE length(i.name) = 5"
        )
        assert sorted(result.column("i.id")) == list(range(10))  # item0..item9

    def test_scalar_udf(self, db):
        db.register_udf("price_band", lambda p: int(p // 10), arity=1)
        result = db.execute(
            "SELECT price_band(i.price) AS band, COUNT(1) AS n "
            "FROM Items i GROUP BY price_band(i.price)"
        )
        assert sorted((r["band"], r["n"]) for r in result.rows) == [
            (0, 10), (1, 10), (2, 10),
        ]

    def test_unknown_mode(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT i.id FROM Items i", mode="warp-speed")

    def test_unknown_dedup(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT i.id FROM Items i", dedup="magic")

    def test_explain_select_only(self, db):
        with pytest.raises(PlanError):
            db.explain("DROP DATASET Items")

    def test_metrics_attached(self, db):
        result = db.execute("SELECT COUNT(1) AS n FROM Items i")
        assert result.metrics.wall_seconds > 0
        assert result.metrics.simulated_seconds(12) > 0


class _WatchedLock:
    """A lock that reports every wait for it that timed out."""

    def __init__(self, lock, waited: threading.Event) -> None:
        self._lock = lock
        self._waited = waited

    def acquire(self, blocking=True, timeout=-1):
        got = self._lock.acquire(blocking, timeout)
        if not got:
            self._waited.set()
        return got

    def release(self):
        self._lock.release()


RACED_SQL = ("SELECT COUNT(1) AS c FROM A a, B b "
             "WHERE slow(a.v) >= 0 AND a.v = b.v")


class TestDdlWaitsForRunningQueries:
    """DDL and ``load`` sent while a query runs take effect after it:
    the query answers as if it had run alone."""

    def raced(self, ddl):
        """Run :data:`RACED_SQL` and, while its first ``slow`` call
        waits, ``ddl(db)`` on another thread; the call goes on once the
        DDL has waited for the engine or has finished.  The query must
        answer what it answers alone; returns the database."""
        db = Database(num_partitions=4)
        db.execute("CREATE TYPE T { id: int, v: int }")
        for name in ("A", "B"):
            db.execute(f"CREATE DATASET {name}(T) PRIMARY KEY id")
            db.load(name, [{"id": i, "v": i % 4} for i in range(40)])
        armed, inside, ddl_waited = (threading.Event(), threading.Event(),
                                     threading.Event())

        def slow(value):
            if armed.is_set():
                armed.clear()
                inside.set()
                ddl_waited.wait(10)
            return value

        db.register_udf("slow", slow, arity=1)
        alone = db.execute(RACED_SQL).rows
        armed.set()
        db._engine_lock = _WatchedLock(db._engine_lock, ddl_waited)
        rows = []
        query = threading.Thread(
            target=lambda: rows.extend(db.execute(RACED_SQL).rows))
        query.start()
        assert inside.wait(10)

        def run_ddl():
            try:
                ddl(db)
            finally:
                ddl_waited.set()

        other = threading.Thread(target=run_ddl)
        other.start()
        query.join(10)
        other.join(10)
        assert not query.is_alive() and not other.is_alive()
        assert rows == alone == [{"c": 400}]
        return db

    def test_load_waits(self):
        db = self.raced(lambda db: db.load(
            "B", [{"id": 100 + i, "v": i % 4} for i in range(40)]))
        assert db.execute(RACED_SQL).rows == [{"c": 800}]

    def test_drop_dataset_waits(self):
        db = self.raced(lambda db: db.execute("DROP DATASET B"))
        with pytest.raises((CatalogError, ExecutionError)):
            db.execute(RACED_SQL)
