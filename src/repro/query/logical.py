"""Logical plan nodes and parsed statement types.

The parser produces *statements*; the binder/optimizer turns SELECT
statements into logical plans; the planner lowers logical plans to
physical operators.  Logical nodes are deliberately few — the interesting
transformation (the FUDJ rewrite) replaces a Cartesian-product-plus-filter
with a :class:`LFudjJoin`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.query.ast import Column, Expr


# -- statements ----------------------------------------------------------------------


@dataclass
class SelectItem:
    """One item of the SELECT list."""

    expr: Expr
    alias: str = None

    def output_name(self, position: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, Column):
            return self.expr.name
        return f"$col{position}"


@dataclass
class TableRef:
    """One FROM-clause entry: ``Parks p``."""

    dataset: str
    alias: str


@dataclass
class SelectStatement:
    items: list
    tables: list
    where: Expr = None
    group_by: list = field(default_factory=list)
    having: Expr = None
    order_by: list = field(default_factory=list)  # [(Expr, descending)]
    limit: int = None
    offset: int = None
    distinct: bool = False


@dataclass
class CreateTypeStatement:
    name: str
    fields: list  # [(field_name, type_name)]


@dataclass
class CreateDatasetStatement:
    name: str
    type_name: str
    primary_key: str


@dataclass
class CreateJoinStatement:
    """``CREATE JOIN name(a: string, b: string, t: double) RETURNS boolean
    AS "module.Class" AT library`` (paper Query 4)."""

    name: str
    params: list  # [(param_name, type_name)]
    class_path: str
    library: str


@dataclass
class DropJoinStatement:
    name: str


@dataclass
class DropDatasetStatement:
    name: str


@dataclass
class ExplainStatement:
    """``EXPLAIN [ANALYZE] SELECT ...``: show the optimized physical plan
    (and, with ANALYZE, execute the query and show per-stage metrics)."""

    select: "SelectStatement"
    analyze: bool = False


# -- logical plan nodes ----------------------------------------------------------------


class LogicalNode:
    """Base logical plan node.

    The cost-based optimizer annotates nodes in place: ``est_rows``
    carries the pessimistic cardinality bound, ``strategy`` the physical
    join strategy chosen by operator selection (``hash`` / ``broadcast``
    / ``theta`` / ``fudj``).  Rule-optimized plans are never annotated,
    so their rendering stays byte-identical.
    """

    est_rows = None
    strategy = None
    strategy_note = ""

    def children(self) -> list:
        return []

    def explain(self, indent: int = 0) -> str:
        lines = [" " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 2))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class LScan(LogicalNode):
    dataset: str
    alias: str

    def describe(self) -> str:
        return f"Scan {self.dataset} AS {self.alias}"


@dataclass
class LFilter(LogicalNode):
    child: LogicalNode
    predicate: Expr

    def children(self) -> list:
        return [self.child]

    def describe(self) -> str:
        return f"Filter {self.predicate}"


@dataclass
class LCartesian(LogicalNode):
    left: LogicalNode
    right: LogicalNode

    def children(self) -> list:
        return [self.left, self.right]

    def describe(self) -> str:
        return "CartesianProduct"


@dataclass
class LEquiJoin(LogicalNode):
    """Equality join usable by the hash-join operator."""

    left: LogicalNode
    right: LogicalNode
    left_expr: Expr
    right_expr: Expr
    residual: Expr = None

    def children(self) -> list:
        return [self.left, self.right]

    def describe(self) -> str:
        text = f"EquiJoin {self.left_expr} = {self.right_expr}"
        if self.residual is not None:
            text += f" residual {self.residual}"
        return text


@dataclass
class LNLJoin(LogicalNode):
    """Nested-loop join with an arbitrary predicate (the on-top plan)."""

    left: LogicalNode
    right: LogicalNode
    predicate: Expr = None

    def children(self) -> list:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"NLJoin {self.predicate}"


@dataclass
class LFudjJoin(LogicalNode):
    """A detected FUDJ join (paper Fig 8, logical form).

    ``join_name`` resolves in the join registry; ``left_key``/``right_key``
    are the two key expressions of the predicate call; ``parameters`` are
    the literal join parameters; ``residual`` holds remaining two-sided
    conjuncts evaluated after the FUDJ verify.
    """

    left: LogicalNode
    right: LogicalNode
    join_name: str
    left_key: Expr
    right_key: Expr
    parameters: tuple = ()
    residual: Expr = None
    self_join: bool = False

    def children(self) -> list:
        return [self.left, self.right]

    def describe(self) -> str:
        text = (
            f"FudjJoin {self.join_name}({self.left_key}, {self.right_key}"
            + (f", params={self.parameters}" if self.parameters else "")
            + ")"
        )
        if self.self_join:
            text += " [self-join: summarize once]"
        if self.residual is not None:
            text += f" residual {self.residual}"
        return text


@dataclass
class LProject(LogicalNode):
    """Compute the SELECT list (expressions with output names)."""

    child: LogicalNode
    items: list  # [(name, Expr)]

    def children(self) -> list:
        return [self.child]

    def describe(self) -> str:
        return "Project " + ", ".join(name for name, _ in self.items)


@dataclass
class LGroupBy(LogicalNode):
    child: LogicalNode
    keys: list  # [(name, Expr)]
    aggregates: list  # [AggregateCall]

    def children(self) -> list:
        return [self.child]

    def describe(self) -> str:
        return (
            "GroupBy "
            + ", ".join(name for name, _ in self.keys)
            + " agg "
            + ", ".join(a.output_name for a in self.aggregates)
        )


@dataclass
class LScalarAgg(LogicalNode):
    child: LogicalNode
    aggregates: list

    def children(self) -> list:
        return [self.child]

    def describe(self) -> str:
        return "Aggregate " + ", ".join(a.output_name for a in self.aggregates)


@dataclass
class LOrderBy(LogicalNode):
    child: LogicalNode
    keys: list  # [(Expr, descending)]

    def children(self) -> list:
        return [self.child]

    def describe(self) -> str:
        return "OrderBy " + ", ".join(
            f"{expr}{' DESC' if desc else ''}" for expr, desc in self.keys
        )


@dataclass
class LLimit(LogicalNode):
    child: LogicalNode
    count: int
    offset: int = 0

    def children(self) -> list:
        return [self.child]

    def describe(self) -> str:
        text = f"Limit {self.count}"
        if self.offset:
            text += f" Offset {self.offset}"
        return text


@dataclass
class LPrune(LogicalNode):
    """Column pruning: keep only the named fields (projection pushdown)."""

    child: LogicalNode
    fields: tuple

    def children(self) -> list:
        return [self.child]

    def describe(self) -> str:
        return "Prune " + ", ".join(self.fields)


@dataclass
class LDistinct(LogicalNode):
    """SELECT DISTINCT: a global distinct over the output rows."""

    child: LogicalNode

    def children(self) -> list:
        return [self.child]

    def describe(self) -> str:
        return "Distinct"


@dataclass
class AggregateCall:
    """An aggregate in the SELECT list: ``COUNT(w.id) AS num_fires``."""

    func: str  # count, sum, avg, min, max
    argument: Expr = None  # None for COUNT(*) / COUNT(1)
    output_name: str = "agg"
    distinct: bool = False  # COUNT(DISTINCT x)

    VALID = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.func not in self.VALID:
            raise PlanError(f"unknown aggregate function: {self.func}")
