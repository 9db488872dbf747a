"""FUDJ extension joins realizing the paper's §VIII future work.

Every future direction the paper closes with is implemented here, each
as an ordinary FlexibleJoin subclass — demonstrating that the extension
hooks (``local_join``, ``partition_buckets``, richer summaries) fit the
programming model without engine changes:

- :class:`PlaneSweepSpatialJoin` — "local join optimizations, such as
  plane-sweep" via the ``local_join`` hook.
- :class:`SortMergeIntervalJoin` — "support for sort-merge-based
  distributed joins": an FS forward scan as the local algorithm.
- :class:`AutoTuneSpatialJoin` — "automate the process of finding the
  optimum number of buckets by gathering more dataset statistics during
  the SUMMARIZE phase".
- :class:`PartitionedIntervalJoin` — "a Theta Join Operator to enhance
  processing for non-equality-based bucket matching" via
  ``partition_buckets``.
- :class:`LengthFilteredTextJoin` — the length filter from the
  set-similarity literature the paper builds on (its refs [30], [31]),
  as a ``local_join`` candidate filter.
"""

from __future__ import annotations

from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.geometry import UniformGrid, mbr_of, plane_sweep_pairs
from repro.joins.interval import _GRANULE_BITS, _GRANULE_MASK, IntervalJoin, IntervalPPlan
from repro.joins.spatial import SpatialContainsJoin, SpatialPPlan
from repro.joins.text_similarity import TextSimilarityJoin


class PlaneSweepSpatialJoin(SpatialContainsJoin):
    """Spatial FUDJ with a custom *local join* (paper §VIII future work).

    Overrides :meth:`local_join` to sweep the MBRs of each matched tile
    pair instead of testing all pairs — the same optimization the
    hand-written advanced operator of §VII-F uses, but expressed inside
    the FUDJ programming model.  Every candidate it yields still goes
    through ``verify`` and dedup, so results are unchanged.
    """

    name = "spatial-plane-sweep"

    def local_join(self, keys1, keys2, pplan):
        left = [(mbr_of(geometry), i) for i, geometry in enumerate(keys1)]
        right = [(mbr_of(geometry), j) for j, geometry in enumerate(keys2)]
        return plane_sweep_pairs(left, right)


class AutoTuneSpatialJoin(SpatialContainsJoin):
    """Spatial FUDJ that picks its own grid size (paper §VIII).

    The summary carries the record count alongside the MBR, and
    ``divide`` sizes the grid so each tile holds ``target_per_tile``
    records on average (bounded to keep tile metadata cheap).
    """

    name = "spatial-autotune"

    def __init__(self, target_per_tile: float = 3.0, max_n: int = 512) -> None:
        FlexibleJoin.__init__(self, target_per_tile, max_n)
        if target_per_tile <= 0:
            raise ValueError(f"target per tile must be > 0: {target_per_tile}")
        self.target_per_tile = target_per_tile
        self.max_n = max_n
        self.n = None  # chosen by divide

    def local_aggregate(self, geometry, summary, side: JoinSide):
        box = mbr_of(geometry)
        if summary is None:
            return (box, 1)
        return (summary[0].union(box), summary[1] + 1)

    def global_aggregate(self, summary1, summary2, side: JoinSide):
        if summary1 is None:
            return summary2
        if summary2 is None:
            return summary1
        return (summary1[0].union(summary2[0]), summary1[1] + summary2[1])

    def divide(self, summary1, summary2) -> SpatialPPlan:
        if summary1 is None or summary2 is None:
            return SpatialPPlan(None)
        total = summary1[1] + summary2[1]
        self.n = max(1, min(self.max_n,
                            int((total / self.target_per_tile) ** 0.5)))
        overlap = summary1[0].intersection(summary2[0])
        if overlap is None:
            return SpatialPPlan(None)
        return SpatialPPlan(UniformGrid(overlap, self.n))


class PartitionedIntervalJoin(IntervalJoin):
    """Interval join with *partitioned* theta matching (paper §VIII).

    The stock :class:`IntervalJoin` is a multi-join, so the engine falls
    back to the broadcast theta plan that §VII-C identifies as the
    scalability wall.  This extension realizes the paper's planned Theta
    Join Operator: the granule axis is cut into one contiguous range per
    worker, and a bucket spanning granules ``[s, e]`` is routed to every
    range it overlaps.  Two buckets can only match when their granule
    ranges overlap, so matching buckets always share a range — both sides
    co-partition, nothing is broadcast, and the join scales again.
    """

    name = "interval-partitioned"

    def partition_buckets(self, bucket_id: int, num_partitions: int,
                          pplan: IntervalPPlan) -> list:
        start = bucket_id >> _GRANULE_BITS
        end = bucket_id & _GRANULE_MASK
        span = max(1, -(-pplan.num_buckets // num_partitions))  # ceil
        first = min(start // span, num_partitions - 1)
        last = min(end // span, num_partitions - 1)
        return list(range(first, last + 1))


class SortMergeIntervalJoin(PartitionedIntervalJoin):
    """Interval join with a sort-merge local algorithm (paper §VIII).

    Realizes the remaining future-work direction — "support for
    sort-merge-based distributed joins" — on top of the partitioned theta
    plan: within each match partition, both sides are sorted by interval
    start and forward-scanned (the FS plane-sweep of Bouros & Mamoulis,
    the paper's reference [4]), so candidate enumeration drops from the
    all-pairs NLJ to ``O(n log n + matches)``.
    """

    name = "interval-sort-merge"

    def local_join(self, keys1, keys2, pplan):
        order1 = sorted(range(len(keys1)), key=lambda i: keys1[i].start)
        order2 = sorted(range(len(keys2)), key=lambda j: keys2[j].start)
        a = b = 0
        while a < len(order1) and b < len(order2):
            i = order1[a]
            j = order2[b]
            if keys1[i].start <= keys2[j].start:
                # Forward-scan the right side while it can still overlap.
                k = b
                while k < len(order2) and keys2[order2[k]].start < keys1[i].end:
                    yield i, order2[k]
                    k += 1
                a += 1
            else:
                k = a
                while k < len(order1) and keys1[order1[k]].start < keys2[j].end:
                    yield order1[k], j
                    k += 1
                b += 1


class LengthFilteredTextJoin(TextSimilarityJoin):
    """Text-similarity FUDJ with the classic *length filter* added.

    The prefix-filter literature the paper builds on (PPJoin, PEL — its
    refs [30], [31]) prunes candidate pairs whose token-set sizes are
    incompatible before computing any overlap: Jaccard >= t requires
    ``t * |b| <= |a| <= |b| / t``.  Expressed here through the
    ``local_join`` hook: within each prefix bucket, texts are sorted by
    token count and only size-compatible pairs are emitted as candidates.
    Results are unchanged; verification count drops at low thresholds,
    where the prefix filter alone degrades (Fig 11c).
    """

    name = "text-length-filtered"

    def local_join(self, keys1, keys2, pplan):
        sizes1 = [len(tokens) for tokens in keys1]
        sizes2 = [len(tokens) for tokens in keys2]
        order2 = sorted(range(len(keys2)), key=sizes2.__getitem__)
        threshold = pplan.threshold
        for i, size1 in enumerate(sizes1):
            if size1 == 0:
                # Empty texts: only the reserved bucket reaches here; all
                # pairs are candidates (Jaccard(empty, empty) = 1).
                for j in order2:
                    yield i, j
                continue
            low = threshold * size1
            high = size1 / threshold
            for j in order2:
                size2 = sizes2[j]
                if size2 < low:
                    continue
                if size2 > high:
                    break  # sorted by size: nothing later can qualify
                yield i, j
