"""Upper-bound-driven join-order enumeration (UES-style, pessimistic).

Given a bound multi-join query and a :class:`CardinalityEstimator`, pick
the left-deep join order that greedily minimizes the *pessimistic upper
bound* of every intermediate result.  Minimizing a guaranteed bound
(rather than an error-prone point estimate) is the UES insight: the
chosen order can never blow up worse than the bound says, so the
enumerator is robust against the skew that wrecks
independence-assumption estimators.

The enumerator is deterministic: ties break on the original FROM-clause
position, never on dict/set iteration order.  Two-table queries keep
their written order untouched — a single join has nothing to reorder,
and preserving it keeps ``optimizer="cost"`` byte-identical to
``optimizer="rule"`` on single-join queries (the parity property every
``cost`` case of ``tests/test_golden.py`` checks against its rule twin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.query.ast import Comparison, Expr, conjuncts_of
from repro.query.logical import LScan


@dataclass
class OrderStep:
    """One relation entering the left-deep chain."""

    alias: str
    dataset: str
    base_bound: float  # bound after the relation's own filters
    bound: float       # bound of the intermediate result after this step
    reason: str        # "base" / "equi <conjunct>" / "theta" / "cross"


@dataclass
class JoinOrder:
    """The chosen left-deep order plus its bound profile."""

    aliases: list                      # aliases in join order
    steps: list = field(default_factory=list)  # [OrderStep]
    reordered: bool = False            # differs from the FROM order

    @property
    def cost(self) -> float:
        """The C_out-style quality proxy: the sum of every intermediate
        bound (what the greedy search minimizes step by step)."""
        return sum(step.bound for step in self.steps[1:])

    def describe(self) -> str:
        return " -> ".join(self.aliases)


def from_aliases(query) -> list:
    """FROM-clause aliases in written order (the skeleton is left-deep,
    so the leftmost scan is the deepest node)."""
    out = []
    pending = [query.root]
    while pending:
        node = pending.pop()
        if isinstance(node, LScan):
            out.append(node.alias)
        else:
            pending.extend(reversed(node.children()))
    return out


def enumerate_join_order(query, estimator) -> JoinOrder:
    """Pick a left-deep order minimizing the pessimistic bound.

    Greedy UES-style search, run once per possible anchor relation:
    from each start, repeatedly join the connected relation whose
    resulting bound is smallest (equi edges multiply by the incoming
    key's maximum base frequency; theta/FUDJ edges by the relation's
    bound), taking cross products only when no connected relation
    remains.  The chain with the smallest bound-sum wins.
    """
    order = from_aliases(query)
    conjuncts = conjuncts_of(query.where)
    positions = {alias: i for i, alias in enumerate(order)}
    bounds = {
        alias: estimator.base_bound(alias, query.aliases[alias], conjuncts)
        for alias in order
    }
    if len(order) <= 2:
        return _trivial_order(order, query, bounds, conjuncts, estimator)

    # One greedy chain per starting relation, keep the cheapest: the
    # smallest base bound is not always the best anchor — joining
    # *into* a skewed fact table multiplies by its key's max frequency,
    # while starting at it multiplies by the dimensions' (often 1).
    edges = _join_edges(conjuncts)
    best = None
    for start in order:
        candidate = _greedy_from(start, order, positions, bounds, edges,
                                 estimator, query)
        key = (candidate.cost, positions[start])
        if best is None or key < best[0]:
            best = (key, candidate)
    return best[1]


def _greedy_from(start, order, positions, bounds, edges, estimator,
                 query) -> JoinOrder:
    """The greedy left-deep chain anchored at ``start``."""
    chosen = [start]
    joined = {start}
    steps = [OrderStep(start, query.aliases[start], bounds[start],
                       bounds[start], "base")]
    current = bounds[start]
    remaining = [alias for alias in order if alias != start]

    while remaining:
        best = None
        for candidate in remaining:
            bound, reason = _candidate_bound(
                candidate, joined, current, bounds, edges, estimator,
                query.aliases,
            )
            key = (0 if reason != "cross" else 1, bound,
                   bounds[candidate], positions[candidate])
            if best is None or key < best[0]:
                best = (key, candidate, bound, reason)
        _, candidate, bound, reason = best
        chosen.append(candidate)
        joined.add(candidate)
        remaining.remove(candidate)
        current = bound
        steps.append(OrderStep(candidate, query.aliases[candidate],
                               bounds[candidate], bound, reason))

    return JoinOrder(chosen, steps, reordered=chosen != order)


def _trivial_order(order, query, bounds, conjuncts, estimator) -> JoinOrder:
    """One or two tables: keep the written order (single-join parity)."""
    steps = []
    current = None
    for alias in order:
        if current is None:
            current = bounds[alias]
            steps.append(OrderStep(alias, query.aliases[alias],
                                   bounds[alias], current, "base"))
            continue
        joined = set(order[: len(steps)])
        current, reason = _candidate_bound(
            alias, joined, current, bounds, _join_edges(conjuncts),
            estimator, query.aliases,
        )
        steps.append(OrderStep(alias, query.aliases[alias], bounds[alias],
                               current, reason))
    return JoinOrder(list(order), steps, reordered=False)


def order_cost(query, estimator, aliases: list) -> float:
    """Bound-sum (C_out proxy) of an *explicit* left-deep order.

    Used to compare the greedy choice against alternatives (the naive
    written order, the worst permutation) in tests and
    ``benchmarks/bench_optimizer.py`` — the same math the enumerator
    minimizes, applied to someone else's order.
    """
    conjuncts = conjuncts_of(query.where)
    edges = _join_edges(conjuncts)
    bounds = {
        alias: estimator.base_bound(alias, query.aliases[alias], conjuncts)
        for alias in aliases
    }
    current = bounds[aliases[0]]
    joined = {aliases[0]}
    total = 0.0
    for alias in aliases[1:]:
        current, _ = _candidate_bound(alias, joined, current, bounds,
                                      edges, estimator, query.aliases)
        joined.add(alias)
        total += current
    return total


def _join_edges(conjuncts: list) -> list:
    """Two-sided conjuncts as ``(aliases, conjunct, is_equi)`` edges."""
    edges = []
    for conjunct in conjuncts:
        aliases = _expr_aliases(conjunct)
        if len(aliases) < 2:
            continue
        is_equi = (isinstance(conjunct, Comparison) and conjunct.op == "="
                   and len(aliases) == 2
                   and len(_expr_aliases(conjunct.left)) == 1
                   and len(_expr_aliases(conjunct.right)) == 1)
        edges.append((aliases, conjunct, is_equi))
    return edges


def _candidate_bound(candidate, joined, current, bounds, edges, estimator,
                     aliases):
    """Bound of ``joined ⋈ candidate`` and the edge kind used."""
    cand_bound = bounds[candidate]
    cartesian = current * cand_bound
    best = math.inf
    reason = "cross"
    for edge_aliases, conjunct, is_equi in edges:
        if candidate not in edge_aliases:
            continue
        others = edge_aliases - {candidate}
        if not others or not others <= joined:
            continue
        if is_equi:
            key = (conjunct.left
                   if _expr_aliases(conjunct.left) == {candidate}
                   else conjunct.right)
            bound = current * estimator.key_max_freq(key, aliases)
            kind = f"equi {conjunct}"
        else:
            bound = cartesian
            kind = f"theta {conjunct}"
        if bound < best or (bound == best and reason == "cross"):
            best = bound
            reason = kind
    if reason == "cross":
        return cartesian, "cross"
    return min(best, cartesian), reason


def _expr_aliases(expr: Expr) -> set:
    return {name.split(".", 1)[0] for name in expr.referenced_fields()}
