"""Writing a brand-new FUDJ: a distance (epsilon) join in ~40 lines.

The paper's pitch is that a developer can add a new distributed join
algorithm without touching engine internals.  This example does exactly
that for a join type the paper does NOT ship: an epsilon-distance join
over points (``dist(a, b) <= eps``), partitioned with a grid whose cells
are eps-sized so only neighbouring cells can match — a multi-join.

Workflow, as §VI-D2 recommends:

1. implement the FlexibleJoin,
2. check it against the FUDJ contract (nested-loop ground truth, on the
   StandaloneRunner and on the engine) and debug it standalone,
3. register it and run SQL.

Run:  python examples/custom_join.py
"""

import math
import random

from repro import Database, FlexibleJoin, StandaloneRunner
from repro.core.contract import check_library
from repro.geometry import Point, Rectangle


class EpsilonDistanceJoin(FlexibleJoin):
    """Join point pairs within ``eps`` of each other.

    Buckets are cells of a grid with cell size ``eps``; a pair within eps
    must fall in the same or adjacent cells, so ``match`` accepts
    neighbouring cell ids (multi-join) and each point is assigned once
    (single-assign, no dedup needed).
    """

    name = "epsilon-distance"

    def __init__(self, eps: float = 1.0) -> None:
        super().__init__(eps)
        self.eps = float(eps)

    def local_aggregate(self, point, summary, side):
        return point.mbr() if summary is None else summary.cover(point)

    def global_aggregate(self, s1, s2, side):
        if s1 is None or s2 is None:
            return s1 or s2
        return s1.union(s2)

    def divide(self, s1, s2):
        extent = s1.union(s2) if s1 and s2 else (s1 or s2)
        columns = max(1, int(math.ceil(extent.width / self.eps)) + 1)
        # match() receives only bucket ids, so remember the grid width on
        # the instance (one FlexibleJoin instance serves one query).
        self._columns = columns
        return (extent, columns)

    def assign(self, point, pplan, side):
        extent, columns = pplan
        col = int((point.x - extent.x1) / self.eps)
        row = int((point.y - extent.y1) / self.eps)
        return row * columns + col

    def match(self, bucket_id1, bucket_id2):
        # Neighbouring cells (including diagonals) can hold pairs <= eps.
        extent_columns = self._columns
        row1, col1 = divmod(bucket_id1, extent_columns)
        row2, col2 = divmod(bucket_id2, extent_columns)
        return abs(row1 - row2) <= 1 and abs(col1 - col2) <= 1

    def verify(self, point1, point2, pplan):
        return point1.distance_to(point2) <= self.eps

    def uses_dedup(self):
        return False  # single-assign

    _columns = 1  # set by divide; see note there


# -- 1. check the contract, debug standalone (the paper's prototype) -------------------
rng = random.Random(12)
left = [Point(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(150)]
right = [Point(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(150)]

pairs = check_library(EpsilonDistanceJoin(2.0), left, right)  # raises if broken
runner = StandaloneRunner(EpsilonDistanceJoin(2.0), trace=True)
runner.run(left, right)
print(f"Contract check passed: {len(pairs)} pairs within eps=2.0 "
      f"({runner.stats['verify_calls']} of {150 * 150} pairs verified)")

# -- 2. register and use from SQL -----------------------------------------------------
db = Database(num_partitions=8)
db.execute("CREATE TYPE StationType { id: int, location: point }")
db.execute("CREATE DATASET Stations(StationType) PRIMARY KEY id")
db.execute("CREATE TYPE SensorType { id: int, location: point }")
db.execute("CREATE DATASET Sensors(SensorType) PRIMARY KEY id")
db.load("Stations", ({"id": i, "location": p} for i, p in enumerate(left)))
db.load("Sensors", ({"id": i, "location": p} for i, p in enumerate(right)))
db.create_join("within_distance", EpsilonDistanceJoin, defaults=(2.0,))

sql = ("SELECT COUNT(1) AS pairs FROM Stations s, Sensors n "
       "WHERE within_distance(s.location, n.location)")
print("\nPlan:")
print(db.explain(sql))
result = db.execute(sql)
print(f"\nSQL result: {result.rows[0]['pairs']} station/sensor pairs "
      f"within 2.0 units")
assert result.rows[0]["pairs"] == len(pairs)
print("Distributed execution matches the standalone prototype.")
