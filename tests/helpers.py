"""Shared test fixtures: toy FUDJ implementations over integer keys.

These tiny joins exercise the framework without domain complexity:

- :class:`ModEquiJoin` — single-assign, default match (single-join):
  a key is assigned to bucket ``key % num_buckets`` and verified with
  exact equality.
- :class:`BandJoin` — multi-assign band join: a key joins every key
  within ``band`` of it; each key is assigned to all buckets its band
  window overlaps, so duplicates can occur (exercises dedup).
- :class:`ThetaBandJoin` — the band join with neighbouring buckets
  matching too: a multi-join, so the engine takes the theta plan.
"""

from __future__ import annotations

from repro.core import FlexibleJoin, JoinSide


class ModEquiJoin(FlexibleJoin):
    """Single-assign equality join over integers (hash-join shaped)."""

    name = "mod-equi"

    def __init__(self, num_buckets: int = 8) -> None:
        super().__init__(num_buckets)
        self.num_buckets = num_buckets

    def local_aggregate(self, key, summary, side: JoinSide):
        return (summary or 0) + 1  # summary = count, unused by divide

    def global_aggregate(self, s1, s2, side: JoinSide):
        return (s1 or 0) + (s2 or 0)

    def divide(self, s1, s2):
        return self.num_buckets

    def assign(self, key, pplan, side: JoinSide) -> int:
        return key % pplan

    def verify(self, key1, key2, pplan) -> bool:
        return key1 == key2

    def uses_dedup(self) -> bool:
        return False


class BandJoin(FlexibleJoin):
    """Multi-assign band join: |k1 - k2| <= band.

    The domain [min, max] is split into ``num_buckets`` ranges; each key
    is assigned to every bucket its ``[k - band, k + band]`` window
    overlaps.  Same-bucket candidates are verified exactly.  Multi-assign,
    so the default duplicate avoidance is exercised.
    """

    name = "band"

    def __init__(self, band: float = 1.0, num_buckets: int = 8) -> None:
        super().__init__(band, num_buckets)
        self.band = band
        self.num_buckets = num_buckets

    def local_aggregate(self, key, summary, side: JoinSide):
        if summary is None:
            return (key, key)
        return (min(summary[0], key), max(summary[1], key))

    def global_aggregate(self, s1, s2, side: JoinSide):
        if s1 is None:
            return s2
        if s2 is None:
            return s1
        return (min(s1[0], s2[0]), max(s1[1], s2[1]))

    def divide(self, s1, s2):
        if s1 is None or s2 is None:
            s1 = s2 = s1 or s2 or (0.0, 1.0)
        lo = min(s1[0], s2[0])
        hi = max(s1[1], s2[1])
        width = (hi - lo) / self.num_buckets if hi > lo else 1.0
        return (lo, width, self.num_buckets)

    def assign(self, key, pplan, side: JoinSide) -> list:
        lo, width, buckets = pplan
        first = int((key - self.band - lo) / width)
        last = int((key + self.band - lo) / width)
        first = max(0, min(buckets - 1, first))
        last = max(first, min(buckets - 1, last))
        return list(range(first, last + 1))

    def verify(self, key1, key2, pplan) -> bool:
        return abs(key1 - key2) <= self.band


class ThetaBandJoin(BandJoin):
    """:class:`BandJoin` whose neighbouring buckets also match."""

    name = "theta-band"

    def match(self, b1, b2):
        return abs(b1 - b2) <= 1
