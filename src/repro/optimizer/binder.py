"""Name resolution: datasets, columns, scalar functions, aggregates.

Binding turns a parsed :class:`SelectStatement` into a :class:`BoundQuery`
— a FROM skeleton (left-deep Cartesian products), a bound WHERE
expression, and a classified SELECT list (group keys vs aggregates vs
plain expressions).  Every :class:`FunctionCall` leaves binding with its
implementation attached (except names that exist *only* as registered
joins, which the FUDJ rewrite must claim later).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.query.ast import (
    And,
    Arithmetic,
    Column,
    Comparison,
    Expr,
    FunctionCall,
    Literal,
    Not,
    Or,
    Star,
)
from repro.query.logical import (
    AggregateCall,
    LCartesian,
    LScan,
    LogicalNode,
    SelectStatement,
)

_AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max"}


@dataclass
class BoundQuery:
    """A bound SELECT, ready for the rewrite rules."""

    root: LogicalNode  # FROM skeleton (scans / cartesian products)
    where: Expr  # bound predicate or None
    select_items: list  # [(output_name, Expr)] — non-aggregate items
    aggregates: list  # [AggregateCall]
    group_keys: list  # [(output_name, Expr)]
    order_by: list  # [(Expr-or-output-name, descending)]
    limit: int
    offset: int = None
    distinct: bool = False
    having: Expr = None  # over group-by output columns
    aliases: dict = field(default_factory=dict)  # alias -> dataset name
    alias_fields: dict = field(default_factory=dict)  # alias -> field names

    @property
    def has_aggregates(self) -> bool:
        return bool(self.aggregates)


def bind_select(stmt: SelectStatement, catalog, functions,
                joins=None) -> BoundQuery:
    """Bind a SELECT statement against catalog + function registry.

    ``joins`` (a JoinRegistry) is consulted only to *allow* unbound calls
    whose name matches a registered join; the FUDJ rewrite rule binds the
    rest of their semantics.
    """
    aliases = {}
    alias_fields = {}
    for table in stmt.tables:
        if table.alias in aliases:
            raise PlanError(f"duplicate alias in FROM: {table.alias}")
        relation = catalog.dataset_info(table.dataset)
        aliases[table.alias] = table.dataset
        alias_fields[table.alias] = relation.schema.fields

    binder = _ExprBinder(aliases, alias_fields, functions, joins)

    root = None
    for table in stmt.tables:
        scan = LScan(table.dataset, table.alias)
        root = scan if root is None else LCartesian(root, scan)

    where = binder.bind(stmt.where) if stmt.where is not None else None

    group_keys = []
    for expr in stmt.group_by:
        bound = binder.bind(expr)
        group_keys.append((_default_name(bound, len(group_keys)), bound))

    select_items = []
    aggregates = []
    for position, item in enumerate(stmt.items):
        if isinstance(item.expr, Star):
            select_items.extend(_expand_star(stmt.tables, alias_fields))
            continue
        name = item.output_name(position)
        agg = _as_aggregate(item.expr, name, binder)
        if agg is not None:
            aggregates.append(agg)
        else:
            bound = binder.bind(item.expr)
            select_items.append((name, bound))

    # Give group keys the names of matching select items so outputs read
    # like the query (``GROUP BY p.id`` + ``SELECT p.id`` -> column p.id).
    named_keys = []
    for key_name, key_expr in group_keys:
        for item_name, item_expr in select_items:
            if item_expr == key_expr:
                key_name = item_name
                break
        named_keys.append((key_name, key_expr))

    if aggregates and select_items and not named_keys:
        raise PlanError(
            "non-aggregate SELECT items require a GROUP BY: "
            + ", ".join(name for name, _ in select_items)
        )
    if named_keys:
        key_exprs = [expr for _, expr in named_keys]
        for name, expr in select_items:
            if expr not in key_exprs:
                raise PlanError(
                    f"SELECT item {name!r} is neither aggregated nor grouped"
                )

    having = None
    if stmt.having is not None:
        if not named_keys and not aggregates:
            raise PlanError("HAVING requires a GROUP BY or aggregates")
        having = _bind_having(stmt.having, binder, aggregates, named_keys,
                              select_items)

    order_by = []
    for expr, descending in stmt.order_by:
        order_by.append((_bind_order_key(expr, binder, select_items, aggregates,
                                         named_keys), descending))

    return BoundQuery(
        root=root,
        where=where,
        select_items=select_items,
        aggregates=aggregates,
        group_keys=named_keys,
        order_by=order_by,
        limit=stmt.limit,
        offset=stmt.offset,
        distinct=stmt.distinct,
        having=having,
        aliases=aliases,
        alias_fields=alias_fields,
    )


def _expand_star(tables, alias_fields) -> list:
    """``SELECT *`` → one ``(output_name, Column)`` per field of every
    FROM table, in declaration order.

    Output names are the bare field names; a field appearing in more
    than one table keeps its qualified ``alias.field`` name so the
    output schema stays duplicate-free.
    """
    seen = {}
    for table in tables:
        for field_name in alias_fields[table.alias]:
            seen[field_name] = seen.get(field_name, 0) + 1
    items = []
    for table in tables:
        for field_name in alias_fields[table.alias]:
            qualified = f"{table.alias}.{field_name}"
            name = field_name if seen[field_name] == 1 else qualified
            items.append((name, Column(qualified)))
    return items


def _default_name(expr: Expr, position: int) -> str:
    if isinstance(expr, Column):
        return expr.name
    return f"$key{position}"


def _as_aggregate(expr: Expr, name: str, binder) -> AggregateCall:
    """Recognize ``COUNT/SUM/AVG/MIN/MAX(...)`` select items."""
    if not isinstance(expr, FunctionCall) or expr.name not in _AGGREGATE_NAMES:
        return None
    if len(expr.args) > 1:
        raise PlanError(f"aggregate {expr.name} takes at most one argument")
    distinct = getattr(expr, "distinct", False)
    if distinct and expr.name != "count":
        raise PlanError(f"DISTINCT aggregates support COUNT only, "
                        f"not {expr.name}")
    argument = None
    if expr.args:
        arg = expr.args[0]
        # COUNT(1) counts rows, same as COUNT(*).
        if not (expr.name == "count" and isinstance(arg, Literal)
                and not distinct):
            argument = binder.bind(arg)
    return AggregateCall(expr.name, argument, name, distinct)


def _bind_having(expr: Expr, binder, aggregates, group_keys, select_items):
    """Bind a HAVING predicate against the GROUP BY output.

    Aggregate calls are matched to SELECT-list aggregates by structure
    (``COUNT(1)`` in HAVING finds ``COUNT(1) AS c``); aggregates that
    appear only in HAVING are added as hidden outputs (named
    ``$having<i>``) that the final projection drops.  Plain columns must
    name a group key or select alias.
    """
    key_names = {name for name, _ in group_keys}
    alias_names = {name for name, _ in select_items}

    def rewrite(node: Expr) -> Expr:
        if isinstance(node, Literal):
            return node
        if isinstance(node, Column):
            if node.name in key_names or node.name in alias_names or any(
                node.name == agg.output_name for agg in aggregates
            ):
                return node
            bound = binder.bind(node)
            for name, key_expr in group_keys:
                if key_expr == bound:
                    return Column(name)
            raise PlanError(
                f"HAVING column {node.name!r} is neither grouped nor "
                f"aggregated"
            )
        if isinstance(node, FunctionCall) and node.name in _AGGREGATE_NAMES:
            call = _as_aggregate(node, f"$having{len(aggregates)}", binder)
            for agg in aggregates:
                if (agg.func == call.func and agg.argument == call.argument
                        and agg.distinct == call.distinct):
                    return Column(agg.output_name)
            aggregates.append(call)
            return Column(call.output_name)
        if isinstance(node, Comparison):
            return Comparison(node.op, rewrite(node.left), rewrite(node.right))
        if isinstance(node, Arithmetic):
            return Arithmetic(node.op, rewrite(node.left), rewrite(node.right))
        if isinstance(node, And):
            return And(rewrite(node.left), rewrite(node.right))
        if isinstance(node, Or):
            return Or(rewrite(node.left), rewrite(node.right))
        if isinstance(node, Not):
            return Not(rewrite(node.child))
        if isinstance(node, FunctionCall):
            bound = binder.bind(node)
            bound.args = [rewrite(arg) for arg in node.args]
            return bound
        raise PlanError(f"cannot bind HAVING expression: {node!r}")

    return rewrite(expr)


def _bind_order_key(expr: Expr, binder, select_items, aggregates, group_keys):
    """ORDER BY keys may name an output column or be a full expression."""
    if isinstance(expr, Column):
        output_names = (
            {name for name, _ in select_items}
            | {agg.output_name for agg in aggregates}
            | {name for name, _ in group_keys}
        )
        if expr.name in output_names:
            return expr.name  # resolved later against the output schema
    return binder.bind(expr)


class _ExprBinder:
    """Rewrites raw parser expressions into bound expressions."""

    def __init__(self, aliases, alias_fields, functions, joins) -> None:
        self.aliases = aliases
        self.alias_fields = alias_fields
        self.functions = functions
        self.joins = joins

    def bind(self, expr: Expr) -> Expr:
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, Column):
            return Column(self._resolve_column(expr.name))
        if isinstance(expr, FunctionCall):
            args = [self.bind(arg) for arg in expr.args]
            if expr.name in self.functions:
                fdef = self.functions.lookup(expr.name)
                if fdef.arity >= 0 and len(args) != fdef.arity:
                    raise PlanError(
                        f"function {expr.name} expects {fdef.arity} argument(s), "
                        f"got {len(args)}"
                    )
                return FunctionCall(expr.name, args, fdef.fn, fdef.expensive)
            if self.joins is not None and expr.name in self.joins:
                # A pure FUDJ predicate: semantics come from the rewrite
                # rule; it stays unbound as a scalar.
                return FunctionCall(expr.name, args, None, expensive=True)
            raise PlanError(f"unknown function: {expr.name}")
        if isinstance(expr, Comparison):
            return Comparison(expr.op, self.bind(expr.left), self.bind(expr.right))
        if isinstance(expr, Arithmetic):
            return Arithmetic(expr.op, self.bind(expr.left), self.bind(expr.right))
        if isinstance(expr, And):
            return And(self.bind(expr.left), self.bind(expr.right))
        if isinstance(expr, Or):
            return Or(self.bind(expr.left), self.bind(expr.right))
        if isinstance(expr, Not):
            return Not(self.bind(expr.child))
        raise PlanError(f"cannot bind expression: {expr!r}")

    def _resolve_column(self, name: str) -> str:
        if "." in name:
            # Split at the *last* dot: aliases may themselves be dotted
            # (an unaliased ``FROM sys.queries``), field names never are.
            alias, field_name = name.rsplit(".", 1)
            if alias not in self.aliases:
                raise PlanError(f"unknown alias: {alias}")
            if field_name not in self.alias_fields[alias]:
                raise PlanError(f"dataset {self.aliases[alias]} has no field "
                                f"{field_name!r}")
            return name
        candidates = [
            alias for alias, fields in self.alias_fields.items() if name in fields
        ]
        if not candidates:
            raise PlanError(f"unknown column: {name}")
        if len(candidates) > 1:
            raise PlanError(f"ambiguous column {name!r}: {candidates}")
        return f"{candidates[0]}.{name}"
