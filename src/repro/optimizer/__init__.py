"""Query optimization: binding, rewrite rules, and physical planning.

The pipeline is ``bind`` (resolve names against the catalog and function
registry) → ``optimize`` (predicate pushdown, join detection — including
the FUDJ rewrite of paper §VI-C) → ``plan`` (lower the logical plan to
physical operators).

With ``Database(optimizer="cost")`` three staged components run between
binding and conjunct placement (see ``docs/query_optimizer.md``):
:class:`~repro.optimizer.stats.CardinalityEstimator` (pessimistic bounds
from catalog statistics), the upper-bound join-order enumerator
(:mod:`repro.optimizer.joinorder`), and a chainable
:class:`~repro.optimizer.physical.PhysicalOperatorSelection`.
"""

from repro.optimizer.binder import BoundQuery, bind_select
from repro.optimizer.joinorder import JoinOrder, enumerate_join_order
from repro.optimizer.physical import (
    BreakerAwareSelection,
    CostBasedOperatorSelection,
    OperatorAssignment,
    PhysicalOperatorSelection,
    SelectionContext,
    default_selection,
)
from repro.optimizer.rules import ExecutionMode, optimize
from repro.optimizer.planner import plan_physical
from repro.optimizer.stats import CardinalityEstimator, annotate_estimates

#: Optimizer modes accepted by ``Database(optimizer=...)``.
OPTIMIZER_MODES = ("rule", "cost")

__all__ = [
    "BoundQuery",
    "bind_select",
    "ExecutionMode",
    "optimize",
    "plan_physical",
    "OPTIMIZER_MODES",
    "CardinalityEstimator",
    "annotate_estimates",
    "JoinOrder",
    "enumerate_join_order",
    "PhysicalOperatorSelection",
    "CostBasedOperatorSelection",
    "BreakerAwareSelection",
    "OperatorAssignment",
    "SelectionContext",
    "default_selection",
]
