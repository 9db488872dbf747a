"""Trajectory proximity FUDJ: trajectories that pass within ``eps``.

The paper's related work surveys a dozen trajectory-join systems; this
library shows the FUDJ model covering that domain too.  Partitioning is
PBSM-shaped: SUMMARIZE computes each side's MBR, DIVIDE grids the joint
extent, and ASSIGN maps each trajectory to every tile its MBR — expanded
by ``eps`` on the *left* side only — overlaps.  One-sided expansion keeps
the completeness proof simple: if two trajectories ever come within
``eps``, the right one's MBR intersects the left one's eps-expanded MBR,
so they share a (clamped) tile.  VERIFY computes the exact minimum
point-pair distance.
"""

from __future__ import annotations

from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.geometry import UniformGrid, distance, mbr_of
from repro.joins.spatial import SpatialPPlan
from repro.trajectory import min_distance


class TrajectoryProximityJoin(FlexibleJoin):
    """Join trajectory pairs with minimum distance <= ``eps``.

    Parameters:
        eps: the proximity threshold (a query parameter).
        n: grid size (a tuning knob, usually a registration default).
    """

    name = "trajectory-proximity"

    def __init__(self, eps: float = 1.0, n: int = 32) -> None:
        super().__init__(eps, n)
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        self.eps = float(eps)
        self.n = int(n)

    def local_aggregate(self, trajectory, summary, side: JoinSide):
        box = mbr_of(trajectory)
        return box if summary is None else summary.union(box)

    def global_aggregate(self, summary1, summary2, side: JoinSide):
        if summary1 is None:
            return summary2
        if summary2 is None:
            return summary1
        return summary1.union(summary2)

    def divide(self, summary1, summary2) -> SpatialPPlan:
        if summary1 is None or summary2 is None:
            return SpatialPPlan(None)
        # Unlike PBSM's intersection, proximity needs an eps margin: pairs
        # can match across the boundary of the overlap region.
        extent = summary1.union(summary2)
        return SpatialPPlan(UniformGrid(extent, self.n))

    def assign(self, trajectory, pplan: SpatialPPlan, side: JoinSide):
        if pplan.grid is None:
            return []
        box = mbr_of(trajectory)
        if side is JoinSide.LEFT:
            box = box.expand(self.eps)
        return pplan.grid.overlapping_tile_ids(box)

    def verify(self, trajectory1, trajectory2, pplan) -> bool:
        # MBR-gap short circuit before the exact all-pairs minimum.
        if distance(trajectory1, trajectory2) > self.eps:
            return False
        return min_distance(trajectory1, trajectory2) <= self.eps
