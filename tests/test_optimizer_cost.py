"""The cost-based optimizer: estimates, ordering, operator selection.

Covers the three stages end to end — pessimistic bounds that dominate
actuals, deterministic join ordering, hash-vs-broadcast selection —
plus the surface: ``optimizer=`` kwarg/env, ``.opt``, ``EXPLAIN``
annotations, ``sys.plans``, and the breaker's plan-time fail-fast.
"""

from __future__ import annotations

import random

import pytest

from repro.database import Database
from repro.errors import BreakerOpenError, PlanError
from repro.optimizer import CardinalityEstimator, enumerate_join_order
from repro.optimizer.binder import bind_select
from repro.query.parser import parse_statement

from tests.helpers import ModEquiJoin


def three_table_db(**kwargs) -> Database:
    """A seeded, skewed users/orders/products database: ``products``
    is tiny and selectively filterable, ``orders`` is the fat fact
    table — the enumerator should never start from ``orders``."""
    db = Database(**kwargs)
    db.create_type("t_user", [("uid", "int"), ("region", "string")])
    db.create_dataset("users", "t_user", "uid")
    db.create_type("t_order", [("oid", "int"), ("uid", "int"),
                               ("pid", "int")])
    db.create_dataset("orders", "t_order", "oid")
    db.create_type("t_prod", [("pid", "int"), ("cat", "string")])
    db.create_dataset("products", "t_prod", "pid")
    rng = random.Random(7)
    db.load("users", [{"uid": i, "region": rng.choice("abc")}
                      for i in range(50)])
    db.load("orders", [{"oid": i, "uid": rng.randrange(50),
                        "pid": rng.randrange(10)} for i in range(400)])
    db.load("products", [{"pid": i, "cat": f"c{i % 3}"}
                         for i in range(10)])
    return db


MULTI_SQL = ("select u.uid, o.oid, p.cat from users u, orders o, products p "
             "where u.uid = o.uid and o.pid = p.pid and p.cat = 'c1'")


def plan_rows_for(db: Database, sql: str, **kwargs):
    db.execute(sql, **kwargs)
    return db.telemetry.history.entries()[-1]["plans"]


# -- stage 1: pessimistic bounds --------------------------------------------------


ESTIMATE_QUERIES = [
    MULTI_SQL,
    "select u.uid, o.oid from users u, orders o where u.uid = o.uid",
    "select * from orders o where o.pid = 3",
    ("select o.pid, count(*) as n from orders o, products p "
     "where o.pid = p.pid group by o.pid"),
    ("select u.uid from users u, orders o where u.uid = o.uid "
     "order by u.uid limit 5"),
    "select count(*) as n from users u, orders o where u.uid = o.uid",
]


@pytest.mark.parametrize("sql", ESTIMATE_QUERIES)
def test_estimates_are_upper_bounds(sql):
    """The monotonicity contract: no executed stage ever produces more
    rows than its pessimistic bound."""
    db = three_table_db(optimizer="cost")
    for row in plan_rows_for(db, sql):
        if row["est_rows"] >= 0 and row["actual_rows"] >= 0:
            assert row["actual_rows"] <= row["est_rows"], row


def test_estimates_survive_batch_mode():
    db = three_table_db(optimizer="cost", execution="batch")
    for row in plan_rows_for(db, MULTI_SQL):
        if row["est_rows"] >= 0 and row["actual_rows"] >= 0:
            assert row["actual_rows"] <= row["est_rows"], row


# -- stage 2: join ordering -------------------------------------------------------


def order_for(db: Database, sql: str):
    bound = bind_select(parse_statement(sql), db.catalog, db.functions,
                        db.joins)
    return enumerate_join_order(bound, CardinalityEstimator(db.cluster))


def test_join_order_starts_from_selective_table():
    """The filtered tiny table (bound 4) must anchor the order; the fat
    fact table joins via its equi edge, never first."""
    db = three_table_db()
    order = order_for(db, MULTI_SQL)
    assert order.aliases[0] == "p"
    assert order.reordered
    assert order.cost < float("inf")


def test_join_order_is_deterministic_across_instances():
    first = order_for(three_table_db(), MULTI_SQL)
    second = order_for(three_table_db(), MULTI_SQL)
    assert first.aliases == second.aliases
    assert first.cost == second.cost


def test_join_order_invariant_under_from_permutation():
    db = three_table_db()
    permuted = ("select u.uid, o.oid, p.cat "
                "from products p, users u, orders o "
                "where u.uid = o.uid and o.pid = p.pid and p.cat = 'c1'")
    assert order_for(db, MULTI_SQL).aliases == order_for(db, permuted).aliases


def test_two_table_queries_keep_written_order():
    db = three_table_db()
    order = order_for(
        db, "select * from orders o, users u where u.uid = o.uid")
    assert order.aliases == ["o", "u"]
    assert not order.reordered


def test_chosen_order_beats_written_order_on_skew():
    """The acceptance margin: on the skewed workload the cost-chosen
    order's bound-sum must beat the naive written (left-deep) order."""
    from repro.optimizer import joinorder

    db = three_table_db()
    chosen = order_for(db, MULTI_SQL)
    estimator = CardinalityEstimator(db.cluster)
    bound = bind_select(parse_statement(MULTI_SQL), db.catalog,
                        db.functions, db.joins)
    written = joinorder.from_aliases(bound)
    written_cost = joinorder.order_cost(bound, estimator, written)
    assert chosen.cost < written_cost


# -- stage 3: operator selection --------------------------------------------------


def test_broadcast_selected_for_small_build_side():
    db = three_table_db(optimizer="cost")
    assert "BROADCAST HASH JOIN" in db.explain(MULTI_SQL)


def test_no_broadcast_when_build_exceeds_budget():
    from repro.engine.costs import CostModel

    db = three_table_db(optimizer="cost",
                        cost_model=CostModel(worker_memory_bytes=1.0))
    assert "BROADCAST HASH JOIN" not in db.explain(MULTI_SQL)


def test_rule_mode_never_broadcasts():
    db = three_table_db()
    assert "BROADCAST HASH JOIN" not in db.explain(MULTI_SQL)


def test_breaker_fails_fast_at_plan_time():
    db = three_table_db(optimizer="cost", breaker_threshold=1)
    db.create_join("mod_equi", ModEquiJoin, defaults=(8,))
    db.breaker.record_failure("mod_equi")
    sql = ("select u.uid from users u, orders o, products p "
           "where mod_equi(u.uid, o.uid) and o.pid = p.pid")
    with pytest.raises(BreakerOpenError):
        db.explain(sql)
    # The rule optimizer has no plan-time consultation; the breaker
    # still guards execution, so only EXPLAIN's behaviour differs.
    db.explain(sql, optimizer="rule")


# -- correctness across modes -----------------------------------------------------


@pytest.mark.parametrize("execution", ["row", "batch"])
def test_multi_join_rows_match_rule_plans(execution):
    db = three_table_db(execution=execution)
    expected = db.execute(MULTI_SQL).rows
    actual = db.execute(MULTI_SQL, optimizer="cost").rows
    assert sorted(map(repr, actual)) == sorted(map(repr, expected))
    assert len(expected) > 0


def test_cross_join_parses_and_runs():
    db = three_table_db()
    rows = db.execute(
        "select count(*) as n from products p cross join users u").rows
    assert rows == [{"n": 500}]


def test_four_table_join_correct_under_cost():
    db = three_table_db()
    db.create_type("t_cat", [("cat", "string"), ("label", "string")])
    db.create_dataset("cats", "t_cat", "cat")
    db.load("cats", [{"cat": f"c{i}", "label": f"L{i}"} for i in range(3)])
    sql = ("select u.uid, c.label from users u, orders o, products p, cats c "
           "where u.uid = o.uid and o.pid = p.pid and p.cat = c.cat")
    expected = db.execute(sql).rows
    actual = db.execute(sql, optimizer="cost").rows
    assert sorted(map(repr, actual)) == sorted(map(repr, expected))


# -- the surface ------------------------------------------------------------------


def test_explain_annotations_only_under_cost():
    db = three_table_db()
    assert "[est<=" not in db.explain(MULTI_SQL)
    assert "[est<=" in db.explain(MULTI_SQL, optimizer="cost")


def test_explain_analyze_reports_estimates_vs_actuals():
    db = three_table_db(optimizer="cost")
    text = "\n".join(
        row["plan"] for row in db.execute("explain analyze " + MULTI_SQL).rows
    )
    assert "estimates vs. actuals (rows):" in text
    assert "!bound-exceeded" not in text


def test_sys_plans_records_both_optimizers():
    db = three_table_db()
    db.execute(MULTI_SQL)
    db.execute(MULTI_SQL, optimizer="cost")
    rows = db.execute("select * from sys.plans").rows
    rule_rows = [r for r in rows if r["optimizer"] == "rule"]
    cost_rows = [r for r in rows if r["optimizer"] == "cost"]
    assert rule_rows and cost_rows
    assert all(r["est_rows"] == -1.0 for r in rule_rows)
    assert any(r["est_rows"] >= 0 for r in cost_rows)
    assert {r["query_id"] for r in cost_rows} != {r["query_id"]
                                                  for r in rule_rows}


def test_optimizer_kwarg_and_validation():
    assert Database().optimizer == "rule"
    assert Database(optimizer="cost").optimizer == "cost"
    with pytest.raises(PlanError):
        Database(optimizer="volcano")
    db = Database()
    with pytest.raises(PlanError):
        db.execute("select 1 as x from sys.queries", optimizer="bogus")


def test_set_optimizer_switches_sessions():
    db = three_table_db()
    db.set_optimizer("cost")
    assert "[est<=" in db.explain(MULTI_SQL)
    db.set_optimizer("rule")
    assert "[est<=" not in db.explain(MULTI_SQL)


def test_shell_opt_command_and_clean_errors():
    from repro.cli import Shell

    out = []
    shell = Shell(db=three_table_db(), write=out.append)
    shell.feed(".opt show")
    shell.feed(".opt cost")
    shell.feed(".opt bogus")
    assert out == ["optimizer = rule", "optimizer = cost",
                   "usage: .opt rule|cost|show"]
    # Unknown tables surface the binder's clean error under both
    # optimizers — EXPLAIN included, never a raw traceback.
    for statement in ("select * from nope;", "explain select * from nope;"):
        for opt in ("cost", "rule"):
            out.clear()
            shell.feed(f".opt {opt}")
            out.clear()
            shell.feed(statement)
            assert out == ["error: no such dataset: nope"]


def test_demo_preserves_session_optimizer():
    from repro.cli import Shell

    out = []
    shell = Shell(db=Database(optimizer="cost"), write=out.append)
    shell.feed(".demo spatial")
    assert shell.db.optimizer == "cost"


def test_cli_optimizer_flag(tmp_path, capsys):
    from repro.cli import main

    script = tmp_path / "q.sql"
    script.write_text("select 1 as one from sys.queries limit 1;")
    assert main(["--optimizer", "cost", str(script)]) == 0
    assert "cost optimizer active" in capsys.readouterr().out
    assert main(["--optimizer", "volcano", str(script)]) == 1
