"""Spatial FUDJ, based on the PBSM algorithm (paper §V-A).

SUMMARIZE computes each side's MBR; DIVIDE intersects the two MBRs and
lays an ``n x n`` grid over the overlap; ASSIGN maps every geometry to all
overlapping tiles (multi-assign); the default equality MATCH makes this a
single-join; VERIFY tests the actual geometries.
"""

from __future__ import annotations

from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.geometry import UniformGrid, contains, intersects, mbr_of


class SpatialPPlan:
    """Partitioning plan: the grid over the joint MBR (None when the two
    sides' MBRs are disjoint and the join result is provably empty)."""

    __slots__ = ("grid",)

    def __init__(self, grid) -> None:
        self.grid = grid


class SpatialJoin(FlexibleJoin):
    """PBSM-style spatial intersection join.

    The single constructor parameter is the grid size ``n`` (the paper
    sweeps it in Fig 11a; 1200 is the paper's choice at cluster scale).
    """

    name = "spatial"

    def __init__(self, n: int = 64) -> None:
        super().__init__(n)
        self.n = int(n)

    def local_aggregate(self, geometry, summary, side: JoinSide):
        return mbr_of(geometry) if summary is None else summary.cover(geometry)

    def global_aggregate(self, summary1, summary2, side: JoinSide):
        if summary1 is None:
            return summary2
        if summary2 is None:
            return summary1
        return summary1.union(summary2)

    def divide(self, summary1, summary2) -> SpatialPPlan:
        if summary1 is None or summary2 is None:
            return SpatialPPlan(None)
        overlap = summary1.intersection(summary2)
        if overlap is None:
            return SpatialPPlan(None)
        return SpatialPPlan(UniformGrid(overlap, self.n))

    def assign(self, geometry, pplan: SpatialPPlan, side: JoinSide):
        if pplan.grid is None:
            return []
        return pplan.grid.tile_ids_of(geometry)

    def verify(self, geometry1, geometry2, pplan) -> bool:
        return intersects(geometry1, geometry2)


class SpatialContainsJoin(SpatialJoin):
    """Spatial join verifying ``ST_Contains(left, right)``.

    Partitioning is identical to :class:`SpatialJoin` (containment implies
    MBR overlap, so PBSM's grid is a valid filter); only the verification
    predicate differs.
    """

    name = "spatial-contains"

    def verify(self, geometry1, geometry2, pplan) -> bool:
        return contains(geometry1, geometry2)



class ReferencePointSpatialJoin(SpatialJoin):
    """Spatial FUDJ with the *reference point* duplicate-avoidance method
    (Patel & DeWitt, compared against the FUDJ default in Fig 12b).

    A pair is emitted only from the tile containing the lower-left corner
    of the intersection of the two MBRs — a custom ``dedup`` override,
    demonstrating that developers can swap duplicate-handling logic.
    """

    name = "spatial-refpoint"

    def dedup(self, bucket_id1, geometry1, bucket_id2, geometry2, pplan) -> bool:
        mbr1 = mbr_of(geometry1)
        mbr2 = mbr_of(geometry2)
        if mbr1.intersection(mbr2) is None:
            return False
        return pplan.grid.reference_tile_id(mbr1, mbr2) == bucket_id1

