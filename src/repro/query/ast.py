"""Expression AST.

Expressions evaluate against a :class:`~repro.engine.record.Record` whose
fields carry qualified names (``p.id``).  Evaluation returns plain Python
values (columns unbox); operators box results again where they need to.

Every node has two evaluators that must agree.  :meth:`Expr.evaluate`
walks the tree for one record, looking every field up by name: it is the
reference.  :meth:`Expr.compile` resolves the field positions of one
schema once and returns a closure over a raw value tuple: it is what the
engine's per-row loops call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.errors import PlanError
from repro.serde.values import AValue, unbox


class Expr:
    """Base expression node."""

    def evaluate(self, record):
        """Plain-Python value of this expression for ``record``."""
        raise NotImplementedError

    def compile(self, schema):
        """``fn(values)``: this expression over a raw value tuple laid
        out as ``schema``, returning — or raising — what
        :meth:`evaluate` does for the record of those values.  A field
        the schema lacks raises when a row reaches it, not here."""
        raise NotImplementedError

    def referenced_fields(self) -> set:
        """Qualified field names this expression reads."""
        return set()

    def cost_units(self, model) -> float:
        """Work units one evaluation costs under ``model``."""
        return model.comparison

    def conjuncts(self) -> list:
        """Flatten top-level ANDs into a conjunct list."""
        return [self]


@dataclass(frozen=True)
class Column(Expr):
    """A field reference; ``name`` is already qualified (``p.id``)."""

    name: str

    def evaluate(self, record):
        return unbox(record[self.name])

    def compile(self, schema):
        if self.name not in schema:
            return lambda values: schema.index_of(self.name)  # raises
        position = schema.index_of(self.name)

        def column(values):
            value = values[position]
            return value.to_python() if isinstance(value, AValue) else value

        return column

    def boxed(self, schema):
        """``fn(values)``: the field as stored, boxed — for a consumer
        that unboxes a whole column itself (a FUDJ join key); a field
        the schema lacks raises as :meth:`compile`'s does."""
        if self.name not in schema:
            return self.compile(schema)
        return operator.itemgetter(schema.index_of(self.name))

    def referenced_fields(self) -> set:
        return {self.name}

    def cost_units(self, model) -> float:
        return model.record_touch

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """``SELECT *`` — a placeholder the binder expands into one Column
    per field of every FROM table.  It never survives binding, so it has
    no evaluation semantics."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value."""

    value: object

    def evaluate(self, record):
        return self.value

    def compile(self, schema):
        value = self.value
        return lambda values: value

    def cost_units(self, model) -> float:
        return 0.0

    def __str__(self) -> str:
        return repr(self.value)


class FunctionCall(Expr):
    """A scalar function call, bound to its implementation at build time.

    ``expensive`` marks heavy predicates (``ST_Contains`` on polygons,
    Jaccard over token sets); the planner charges those at the cost
    model's ``expensive_predicate`` rate, which is what makes the on-top
    NLJ baseline pay realistically.
    """

    def __init__(self, name: str, args, fn=None, expensive: bool = False) -> None:
        self.name = name.lower()
        self.args = list(args)
        self.fn = fn
        self.expensive = expensive
        #: Set by the parser for COUNT(DISTINCT expr).
        self.distinct = False

    def evaluate(self, record):
        if self.fn is None:
            raise PlanError(f"unbound function call: {self.name}")
        return self.fn(*(arg.evaluate(record) for arg in self.args))

    def compile(self, schema):
        fn = self.fn
        if fn is None:
            return self.evaluate  # raises before it reads its argument
        args = [arg.compile(schema) for arg in self.args]
        if len(args) == 1:
            arg, = args
            return lambda values: fn(arg(values))
        if len(args) == 2:
            first, second = args
            return lambda values: fn(first(values), second(values))
        return lambda values: fn(*[arg(values) for arg in args])

    def referenced_fields(self) -> set:
        fields = set()
        for arg in self.args:
            fields |= arg.referenced_fields()
        return fields

    def cost_units(self, model) -> float:
        base = model.expensive_predicate if self.expensive else model.comparison
        return base + sum(arg.cost_units(model) for arg in self.args)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionCall)
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash((self.name, tuple(self.args)))


_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(Expr):
    """A binary comparison; NULL on either side yields False (SQL-ish)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise PlanError(f"unknown comparison operator: {self.op}")

    def evaluate(self, record):
        lhs = self.left.evaluate(record)
        rhs = self.right.evaluate(record)
        if lhs is None or rhs is None:
            return False
        return _COMPARATORS[self.op](lhs, rhs)

    def compile(self, schema):
        compare = _COMPARATORS[self.op]
        left = self.left.compile(schema)
        if isinstance(self.right, Literal) and self.right.value is not None:
            constant = self.right.value

            def against_constant(values):
                lhs = left(values)
                return False if lhs is None else compare(lhs, constant)

            return against_constant
        right = self.right.compile(schema)

        def comparison(values):
            lhs = left(values)
            rhs = right(values)
            if lhs is None or rhs is None:
                return False
            return compare(lhs, rhs)

        return comparison

    def referenced_fields(self) -> set:
        return self.left.referenced_fields() | self.right.referenced_fields()

    def cost_units(self, model) -> float:
        return (
            model.comparison
            + self.left.cost_units(model)
            + self.right.cost_units(model)
        )

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def evaluate(self, record):
        return bool(self.left.evaluate(record)) and bool(self.right.evaluate(record))

    def compile(self, schema):
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        return lambda values: bool(left(values)) and bool(right(values))

    def referenced_fields(self) -> set:
        return self.left.referenced_fields() | self.right.referenced_fields()

    def cost_units(self, model) -> float:
        return self.left.cost_units(model) + self.right.cost_units(model)

    def conjuncts(self) -> list:
        return self.left.conjuncts() + self.right.conjuncts()

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def evaluate(self, record):
        return bool(self.left.evaluate(record)) or bool(self.right.evaluate(record))

    def compile(self, schema):
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        return lambda values: bool(left(values)) or bool(right(values))

    def referenced_fields(self) -> set:
        return self.left.referenced_fields() | self.right.referenced_fields()

    def cost_units(self, model) -> float:
        return self.left.cost_units(model) + self.right.cost_units(model)

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    child: Expr

    def evaluate(self, record):
        return not bool(self.child.evaluate(record))

    def compile(self, schema):
        child = self.child.compile(schema)
        return lambda values: not child(values)

    def referenced_fields(self) -> set:
        return self.child.referenced_fields()

    def cost_units(self, model) -> float:
        return self.child.cost_units(model)

    def __str__(self) -> str:
        return f"(NOT {self.child})"


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic; NULL-propagating."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise PlanError(f"unknown arithmetic operator: {self.op}")

    def evaluate(self, record):
        lhs = self.left.evaluate(record)
        rhs = self.right.evaluate(record)
        if lhs is None or rhs is None:
            return None
        return _ARITHMETIC[self.op](lhs, rhs)

    def compile(self, schema):
        apply = _ARITHMETIC[self.op]
        left = self.left.compile(schema)
        right = self.right.compile(schema)

        def arithmetic(values):
            lhs = left(values)
            rhs = right(values)
            if lhs is None or rhs is None:
                return None
            return apply(lhs, rhs)

        return arithmetic

    def referenced_fields(self) -> set:
        return self.left.referenced_fields() | self.right.referenced_fields()

    def cost_units(self, model) -> float:
        return (
            model.comparison
            + self.left.cost_units(model)
            + self.right.cost_units(model)
        )

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def conjuncts_of(expr: Expr) -> list:
    """Top-level conjuncts of ``expr`` (the whole expr when not an AND)."""
    return expr.conjuncts() if expr is not None else []


def combine_conjuncts(parts: list) -> Expr:
    """Rebuild a single expression from a conjunct list (None when empty)."""
    result = None
    for part in parts:
        result = part if result is None else And(result, part)
    return result
