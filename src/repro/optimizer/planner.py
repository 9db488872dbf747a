"""Lower optimized logical plans to physical operators."""

from __future__ import annotations

from repro.engine.operators import (
    AvgAgg,
    BlockNestedLoopJoin,
    BroadcastHashJoin,
    CountAgg,
    CountDistinctAgg,
    Distinct,
    Filter,
    Project,
    FudjJoin,
    GroupBy,
    HashJoin,
    Limit,
    MapColumns,
    ScalarAggregate,
    Scan,
    Sort,
    SumAgg,
    MaxAgg,
    MinAgg,
)
from repro.engine.operators.base import PhysicalOperator
from repro.errors import PlanError
from repro.optimizer.rules import ExecutionMode
from repro.query.logical import (
    AggregateCall,
    LDistinct,
    LPrune,
    LEquiJoin,
    LFilter,
    LFudjJoin,
    LGroupBy,
    LLimit,
    LNLJoin,
    LOrderBy,
    LProject,
    LScalarAgg,
    LScan,
    LogicalNode,
)

_AGG_CLASSES = {
    "count": CountAgg,
    "sum": SumAgg,
    "avg": AvgAgg,
    "min": MinAgg,
    "max": MaxAgg,
}


def plan_physical(root: LogicalNode, joins, mode: ExecutionMode,
                  cost_model, dedup=None, builtin_factories=None,
                  summarize_sample: float = 1.0) -> PhysicalOperator:
    """Translate a logical plan into a physical operator tree.

    Args:
        root: the optimized logical plan.
        joins: the JoinRegistry (FUDJ instantiation).
        mode: FUDJ / BUILTIN / ONTOP — decides which operator implements
            detected FUDJ joins.
        cost_model: used to price compiled predicates.
        dedup: optional dedup-strategy override threaded into FUDJ joins
            (the Fig 12 experiments).
        builtin_factories: mapping join name -> factory building the
            hand-written built-in operator for BUILTIN mode.
    """
    planner = _Planner(joins, mode, cost_model, dedup, builtin_factories or {},
                       summarize_sample)
    return planner.lower(root)


class _Planner:
    def __init__(self, joins, mode, cost_model, dedup, builtin_factories,
                 summarize_sample: float = 1.0) -> None:
        self.joins = joins
        self.mode = mode
        self.model = cost_model
        self.dedup = dedup
        self.builtin_factories = builtin_factories
        self.summarize_sample = summarize_sample

    def lower(self, node: LogicalNode) -> PhysicalOperator:
        op = self._lower(node)
        # The cost optimizer annotates logical nodes with pessimistic
        # bounds; carry them onto the physical operator so EXPLAIN can
        # render estimates next to each stage.  Rule plans carry no
        # annotation and render exactly as before.
        if node.est_rows is not None and getattr(op, "est_rows", None) is None:
            op.est_rows = node.est_rows
        return op

    def _lower(self, node: LogicalNode) -> PhysicalOperator:
        if isinstance(node, LScan):
            return Scan(node.dataset, node.alias)
        if isinstance(node, LFilter):
            child = self.lower(node.child)
            predicate = node.predicate
            return Filter(
                child,
                predicate,
                cost_units=predicate.cost_units(self.model),
                description=str(predicate),
            )
        if isinstance(node, LProject):
            child = self.lower(node.child)
            columns = [
                (name, expr, expr.cost_units(self.model))
                for name, expr in node.items
            ]
            return MapColumns(child, columns)
        if isinstance(node, LGroupBy):
            child = self.lower(node.child)
            keys = list(node.keys)
            aggs = [self._agg_spec(call) for call in node.aggregates]
            return GroupBy(child, keys, aggs)
        if isinstance(node, LScalarAgg):
            child = self.lower(node.child)
            aggs = [self._agg_spec(call) for call in node.aggregates]
            return ScalarAggregate(child, aggs)
        if isinstance(node, LOrderBy):
            child = self.lower(node.child)
            keys = []
            for key, descending in node.keys:
                if isinstance(key, str):
                    name = key
                    keys.append((lambda r, _n=name: r[_n], descending))
                else:
                    keys.append((key.evaluate, descending))
            return Sort(child, keys)
        if isinstance(node, LLimit):
            return Limit(self.lower(node.child), node.count, node.offset)
        if isinstance(node, LDistinct):
            return Distinct(self.lower(node.child))
        if isinstance(node, LPrune):
            return Project(self.lower(node.child), node.fields)
        if isinstance(node, LEquiJoin):
            left = self.lower(node.left)
            right = self.lower(node.right)
            residual = node.residual
            # "broadcast" comes from the cost-based operator selection;
            # anything else (None, "hash") keeps the partitioned default.
            join_cls = (BroadcastHashJoin if node.strategy == "broadcast"
                        else HashJoin)
            return join_cls(
                left,
                right,
                node.left_expr.evaluate,
                node.right_expr.evaluate,
                residual=residual.evaluate if residual is not None else None,
                residual_cost=(
                    residual.cost_units(self.model) if residual is not None else None
                ),
            )
        if isinstance(node, LNLJoin):
            left = self.lower(node.left)
            right = self.lower(node.right)
            predicate = node.predicate
            if predicate is None:
                return BlockNestedLoopJoin(
                    left, right, lambda record: True,
                    predicate_cost=self.model.record_touch,
                )
            return BlockNestedLoopJoin(
                left,
                right,
                predicate.evaluate,
                predicate_cost=predicate.cost_units(self.model),
            )
        if isinstance(node, LFudjJoin):
            return self._lower_fudj(node)
        raise PlanError(f"cannot lower logical node: {node!r}")

    def _agg_spec(self, call: AggregateCall):
        value_fn = call.argument
        if call.distinct:
            if value_fn is None:
                raise PlanError("COUNT(DISTINCT ...) needs an argument")
            return CountDistinctAgg(call.output_name, value_fn)
        cls = _AGG_CLASSES[call.func]
        if call.func != "count" and value_fn is None:
            raise PlanError(f"aggregate {call.func} needs an argument")
        return cls(call.output_name, value_fn)

    def _lower_fudj(self, node: LFudjJoin) -> PhysicalOperator:
        left = self.lower(node.left)
        right = self.lower(node.right)

        if self.mode is ExecutionMode.BUILTIN:
            factory = self.builtin_factories.get(node.join_name)
            if factory is None:
                raise PlanError(
                    f"no built-in operator installed for join "
                    f"{node.join_name!r}; install one or use FUDJ mode"
                )
            # The hand-written operators read records, not rows.
            join_op = factory(left, right, node.left_key.evaluate,
                              node.right_key.evaluate,
                              tuple(node.parameters))
        else:
            join = self.joins.instantiate(node.join_name, node.parameters)
            join_op = FudjJoin(
                left,
                right,
                join,
                node.left_key,
                node.right_key,
                dedup=self.dedup,
                translate=True,
                self_join=node.self_join,
                verify_cost=self.model.expensive_predicate,
                summarize_sample=self.summarize_sample,
            )

        if node.residual is not None:
            return Filter(
                join_op,
                node.residual,
                cost_units=node.residual.cost_units(self.model),
                description=str(node.residual),
            )
        return join_op
