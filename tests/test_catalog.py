"""Unit tests for the catalog."""

import pytest

from repro.catalog import Catalog
from repro.database import Database
from repro.engine import Cluster
from repro.errors import CatalogError, ParseError, ReproError


@pytest.fixture()
def catalog():
    c = Catalog(Cluster(num_partitions=2))
    c.create_type("Park", [("id", "int"), ("boundary", "geometry")])
    return c


class TestTypes:
    def test_create_and_lookup(self, catalog):
        info = catalog.type_info("Park")
        assert info.field_names == ("id", "boundary")
        assert catalog.has_type("Park")

    def test_duplicate_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_type("Park", [("id", "int")])

    def test_unknown_field_type(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_type("Bad", [("x", "blob")])

    def test_empty_type_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_type("Empty", [])

    def test_field_type_case_insensitive(self, catalog):
        catalog.create_type("Mixed", [("x", "GEOMETRY")])
        assert catalog.type_info("Mixed").fields == (("x", "geometry"),)

    def test_missing_type(self, catalog):
        with pytest.raises(CatalogError):
            catalog.type_info("Nope")


class TestDatasets:
    def test_create_and_lookup(self, catalog):
        catalog.create_dataset("Parks", "Park", "id")
        info = catalog.dataset_info("Parks")
        assert info.type_name == "Park"
        assert info.primary_key == "id"
        assert catalog.has_dataset("Parks")
        assert catalog.dataset_names() == ["Parks"]

    def test_unknown_type(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_dataset("Parks", "Nope", "id")

    def test_primary_key_must_be_a_field(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_dataset("Parks", "Park", "missing")

    def test_duplicate_dataset(self, catalog):
        catalog.create_dataset("Parks", "Park", "id")
        with pytest.raises(CatalogError):
            catalog.create_dataset("Parks", "Park", "id")

    def test_drop(self, catalog):
        catalog.create_dataset("Parks", "Park", "id")
        catalog.drop_dataset("Parks")
        assert not catalog.has_dataset("Parks")
        with pytest.raises(CatalogError):
            catalog.drop_dataset("Parks")


class TestVirtualTables:
    @pytest.fixture()
    def catalog(self, catalog):
        catalog.register_virtual_table(
            "sys.t", [("n", "INT")], lambda: [{"n": 1}, {"n": 2}])
        return catalog

    def test_resolves_but_is_not_listed(self, catalog):
        assert catalog.has_dataset("sys.t")
        assert catalog.dataset_info("sys.t").fields == (("n", "int"),)
        assert catalog.dataset_names() == []

    def test_unknown_field_type(self, catalog):
        with pytest.raises(CatalogError, match="unknown field type"):
            catalog.register_virtual_table("sys.u", [("x", "blob")], list)

    def test_cannot_be_created_dropped_or_loaded_into(self, catalog):
        with pytest.raises(CatalogError, match="reserved"):
            catalog.create_dataset("sys.t", "Park", "id")
        with pytest.raises(CatalogError,
                           match="cannot drop virtual table: sys.t"):
            catalog.drop_dataset("sys.t")
        with pytest.raises(CatalogError,
                           match="cannot load into virtual table: sys.t"):
            catalog.stored_dataset("sys.t")
        assert catalog.has_dataset("sys.t")


# -- the DDL error surface, through the SQL and API twins --------------------------


def _ddl_db():
    db = Database(num_partitions=2)
    db.execute("CREATE TYPE T { id: int, v: int }")
    db.execute("CREATE DATASET D(T) PRIMARY KEY id")
    return db


#: (case, statement, exception class, message).  SQL names no dotted
#: dataset in DDL, so its ``sys.*`` twins stop at the parser; the API
#: twins reach the catalog's reserved-namespace check.  Dropping has no
#: API twin and loading no SQL one.
DDL_ERRORS = [
    ("duplicate-sql", lambda db: db.execute(
        "CREATE DATASET D(T) PRIMARY KEY id"),
     CatalogError, "dataset already exists: D"),
    ("duplicate-api", lambda db: db.create_dataset("D", "T", "id"),
     CatalogError, "dataset already exists: D"),
    ("unknown-type-sql", lambda db: db.execute(
        "CREATE DATASET X(Nope) PRIMARY KEY id"),
     CatalogError, "no such type: Nope"),
    ("unknown-type-api", lambda db: db.create_dataset("X", "Nope", "id"),
     CatalogError, "no such type: Nope"),
    ("key-not-a-field-sql", lambda db: db.execute(
        "CREATE DATASET X(T) PRIMARY KEY k"),
     CatalogError, "primary key 'k' is not a field of type T"),
    ("key-not-a-field-api", lambda db: db.create_dataset("X", "T", "k"),
     CatalogError, "primary key 'k' is not a field of type T"),
    ("create-sys-sql", lambda db: db.execute(
        "CREATE DATASET sys.x(T) PRIMARY KEY id"),
     ParseError, "expected '(' but found '.'"),
    ("create-sys-api", lambda db: db.create_dataset("sys.x", "T", "id"),
     CatalogError, "cannot create dataset sys.x: the sys.* namespace is "
                   "reserved for virtual tables"),
    ("create-sys-table-api",
     lambda db: db.create_dataset("sys.queries", "T", "id"),
     CatalogError, "cannot create dataset sys.queries: the sys.* namespace "
                   "is reserved for virtual tables"),
    ("drop-sys-sql", lambda db: db.execute("DROP DATASET sys.queries"),
     ParseError, "expected 'eof' but found '.'"),
    ("drop-unknown-sql", lambda db: db.execute("DROP DATASET Nope"),
     CatalogError, "no such dataset: Nope"),
    ("load-unknown-api", lambda db: db.load("Nope", [{"id": 1, "v": 1}]),
     CatalogError, "no such dataset: Nope"),
]


@pytest.mark.parametrize("statement, error, message",
                         [case[1:] for case in DDL_ERRORS],
                         ids=[case[0] for case in DDL_ERRORS])
def test_ddl_error_surface(statement, error, message):
    db = _ddl_db()
    with pytest.raises(ReproError) as caught:
        statement(db)
    assert (type(caught.value), str(caught.value)) == (error, message)
    # A refused statement changes nothing.
    assert db.catalog.dataset_names() == ["D"]
    assert len(db.cluster.dataset("D")) == 0
