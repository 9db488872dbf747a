"""The single-machine standalone FUDJ runner (paper §VI-D2).

Debugging a join algorithm inside a distributed DBMS is painful, so the
paper ships a standalone program that runs any FUDJ implementation over
two plain collections.  This is that program: it executes all three phases
faithfully — including bucket formation, matching, verification, and
duplicate handling — but in one process with no engine involved, so logic
bugs surface immediately.  An implementation debugged here runs unchanged
on the distributed engine.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.dedup import DedupStrategy, strategy_for
from repro.core.flexible_join import FlexibleJoin, JoinSide


class StandaloneRunner:
    """Runs a FlexibleJoin over two in-memory key collections.

    Args:
        join: the FlexibleJoin instance under test.
        dedup: optional strategy override (defaults to the join's own
            choice, i.e. duplicate avoidance or none).
        trace: when True, phase-by-phase counters are kept in
            :attr:`stats` for inspection.
    """

    def __init__(self, join: FlexibleJoin, dedup: DedupStrategy = None,
                 trace: bool = False) -> None:
        self.join = join
        self.dedup = strategy_for(join, dedup)
        self.trace = trace
        self.stats = {}

    # -- phases, exposed individually for debugging -----------------------------
    #
    # The public phases take and return the keys as given; inside, a key
    # travels as ``(key, prepared)`` so the callbacks get what the
    # library's ``prepare`` made of it, as on the engine.

    def _prepared(self, keys, side: JoinSide) -> list:
        if not self.join.prepares():
            keys = list(keys)
            return list(zip(keys, keys))
        return [(key, self.join.prepare(key, side)) for key in keys]

    def summarize(self, keys, side: JoinSide):
        """Run SUMMARIZE over one side and return the global summary."""
        return self._summarize(self._prepared(keys, side), side)

    def _summarize(self, pairs: list, side: JoinSide):
        summary = None
        for _, prepared in pairs:
            summary = self.join.local_aggregate(prepared, summary, side)
        return summary

    def partition(self, keys, pplan, side: JoinSide) -> dict:
        """Run PARTITION: bucket_id -> list of keys."""
        buckets = self._partition(self._prepared(keys, side), pplan, side)
        return {bucket_id: [key for key, _ in pairs]
                for bucket_id, pairs in buckets.items()}

    def _partition(self, pairs: list, pplan, side: JoinSide) -> dict:
        buckets = defaultdict(list)
        for pair in pairs:
            for bucket_id in self.join.assign_list(pair[1], pplan, side):
                buckets[bucket_id].append(pair)
        return buckets

    def combine(self, buckets1: dict, buckets2: dict, pplan):
        """Run COMBINE: match buckets, verify pairs, deduplicate."""
        return self._combine(
            {bucket_id: self._prepared(keys, JoinSide.LEFT)
             for bucket_id, keys in buckets1.items()},
            {bucket_id: self._prepared(keys, JoinSide.RIGHT)
             for bucket_id, keys in buckets2.items()},
            pplan)

    def _combine(self, buckets1: dict, buckets2: dict, pplan) -> list:
        results = []
        if self.join.uses_default_match():
            # Single-join: only equal bucket ids can match.
            pairs = (
                (bid, bid) for bid in buckets1.keys() & buckets2.keys()
            )
        else:
            pairs = (
                (b1, b2)
                for b1 in buckets1
                for b2 in buckets2
                if self.join.match(b1, b2)
            )
        verified = 0
        for b1, b2 in pairs:
            for key1, prepared1 in buckets1[b1]:
                for key2, prepared2 in buckets2[b2]:
                    verified += 1
                    if not self.join.verify(prepared1, prepared2, pplan):
                        continue
                    if not self.dedup.keep_local(
                            self.join, b1, prepared1, b2, prepared2, pplan):
                        continue
                    results.append((key1, key2))
        if self.dedup.requires_shuffle:
            results = _distinct_pairs(results)
        if self.trace:
            self.stats["verify_calls"] = verified
        return results

    # -- the whole pipeline ------------------------------------------------------

    def _plan(self, left: list, right: list):
        summary1 = self._summarize(left, JoinSide.LEFT)
        summary2 = self._summarize(right, JoinSide.RIGHT)
        return self.join.divide(summary1, summary2)

    def run(self, left_keys, right_keys) -> list:
        """Execute the full FUDJ pipeline and return result key pairs."""
        left = self._prepared(left_keys, JoinSide.LEFT)
        right = self._prepared(right_keys, JoinSide.RIGHT)
        pplan = self._plan(left, right)
        buckets1 = self._partition(left, pplan, JoinSide.LEFT)
        buckets2 = self._partition(right, pplan, JoinSide.RIGHT)
        if self.trace:
            self.stats.update(
                left_keys=len(left),
                right_keys=len(right),
                left_buckets=len(buckets1),
                right_buckets=len(buckets2),
                left_assignments=sum(len(v) for v in buckets1.values()),
                right_assignments=sum(len(v) for v in buckets2.values()),
            )
        return self._combine(buckets1, buckets2, pplan)

    def bucket_histogram(self, keys, side: JoinSide, bins: int = 8) -> str:
        """A debugging view of how ``assign`` spreads ``keys``.

        Runs SUMMARIZE + DIVIDE on the given keys (both sides summarized
        from the same input — this is a diagnostic, not a join) and
        renders bucket-size statistics plus a text histogram.  Skewed or
        degenerate partitioning — the paper's §III-A failure modes —
        shows up immediately.
        """
        keys = self._prepared(keys, side)
        summary = self._summarize(keys, side)
        pplan = self.join.divide(summary, summary)
        buckets = self._partition(keys, pplan, side)
        if not buckets:
            return "(no buckets: empty input)"
        sizes = sorted((len(v) for v in buckets.values()), reverse=True)
        total = sum(sizes)
        lines = [
            f"{len(keys)} keys -> {len(buckets)} buckets, "
            f"{total} assignments (x{total / max(1, len(keys)):.2f} "
            f"replication)",
            f"bucket sizes: max={sizes[0]} "
            f"median={sizes[len(sizes) // 2]} min={sizes[-1]}",
        ]
        top = sizes[: bins]
        scale = max(top)
        for rank, size in enumerate(top):
            bar = "#" * max(1, int(size / scale * 40))
            lines.append(f"  #{rank + 1:<3} {bar} {size}")
        if len(sizes) > bins:
            lines.append(f"  ... {len(sizes) - bins} smaller buckets")
        return "\n".join(lines)

    def run_nested_loop(self, left_keys, right_keys) -> list:
        """Ground-truth nested loop using only ``verify`` (with a PPlan
        built the normal way).  Used by tests to check FUDJ correctness."""
        left = self._prepared(left_keys, JoinSide.LEFT)
        right = self._prepared(right_keys, JoinSide.RIGHT)
        pplan = self._plan(left, right)
        return [
            (key1, key2)
            for key1, prepared1 in left
            for key2, prepared2 in right
            if self.join.verify(prepared1, prepared2, pplan)
        ]


def _distinct_pairs(pairs: list) -> list:
    """Order-preserving distinct over possibly-unhashable key pairs."""
    seen = set()
    out = []
    for pair in pairs:
        try:
            token = pair
            if token in seen:
                continue
            seen.add(token)
        except TypeError:
            token = repr(pair)
            if token in seen:
                continue
            seen.add(token)
        out.append(pair)
    return out
