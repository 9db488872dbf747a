"""The :class:`FlexibleJoin` interface — the FUDJ programming model.

The model has three phases (paper §IV):

SUMMARIZE
    ``local_aggregate(key, summary)`` folds one key into a per-worker
    summary; ``global_aggregate(s1, s2)`` merges partial summaries;
    ``divide(summary1, summary2, *params)`` combines the two global
    summaries (plus query parameters) into the partitioning plan (PPlan).

PARTITION
    ``assign(key, pplan)`` maps a key to one bucket id (single-assign) or
    a list of bucket ids (multi-assign).

COMBINE
    ``match(bucket_id1, bucket_id2)`` decides whether two buckets join
    (default: equality — a *single-join*, which lets the engine use its
    hash-join machinery); ``verify(key1, key2, pplan)`` is the exact join
    predicate on a candidate pair; ``dedup(bucket_id1, key1, bucket_id2,
    key2, pplan)`` suppresses duplicate results of multi-assign
    partitioning (default: duplicate avoidance via ``assign``).

Keys are plain Python values — the engine's translation layer (Figure 7)
unboxes its internal typed values before they reach a callback, so
implementing a join requires no engine knowledge at all.  A library whose
callbacks all start by deriving the same thing from the key (a token set
from a text) overrides ``prepare(key, side)``: it runs once per record
per query, and its result is what every callback receives as the key.
"""

from __future__ import annotations

import enum


class JoinSide(enum.Enum):
    """Which side of the join a callback is being invoked for.

    Joins whose two inputs need different summarization or assignment
    logic (e.g. a point dataset against a polygon dataset) receive the
    side as context; symmetric joins can ignore it.
    """

    LEFT = "left"
    RIGHT = "right"


class FlexibleJoin:
    """Base class for user-defined distributed joins.

    Subclasses must override :meth:`local_aggregate`,
    :meth:`global_aggregate`, :meth:`divide`, :meth:`assign`, and
    :meth:`verify`.  :meth:`match` and :meth:`dedup` have engine defaults:
    equality matching (single-join) and assignment-based duplicate
    avoidance.

    ``parameters`` holds the extra arguments of the join call site (for
    example the similarity threshold of Query 4); the engine passes them
    to :meth:`divide`.
    """

    #: Human-readable name used in plans and error messages.
    name = "flexible-join"

    def __init__(self, *parameters) -> None:
        self.parameters = parameters

    # -- once per record, before SUMMARIZE ---------------------------------------

    def prepare(self, key, side: JoinSide):
        """Optional: derive from ``key`` the value the callbacks work on.

        Runs once per input record per query (and once more for an entry
        the serial backend replays from a spill file); what it returns
        is what :meth:`local_aggregate`, :meth:`assign`, :meth:`verify`,
        :meth:`dedup` and :meth:`local_join` receive in place of the
        key.  It must be a pure function of ``(key, side)`` and its
        result picklable (the process backend ships it to the workers).
        The default is the key itself, and is never called.
        """
        return key

    def prepares(self) -> bool:
        """True when :meth:`prepare` is overridden."""
        return type(self).prepare is not FlexibleJoin.prepare

    # -- SUMMARIZE -------------------------------------------------------------

    def local_aggregate(self, key, summary, side: JoinSide):
        """Fold one ``key`` into ``summary`` (which is ``None`` for the
        first key on a worker) and return the updated summary."""
        raise NotImplementedError

    def global_aggregate(self, summary1, summary2, side: JoinSide):
        """Merge two partial summaries into one.  Either argument may be
        ``None`` when a worker saw no records."""
        raise NotImplementedError

    def divide(self, summary1, summary2):
        """Combine the global summaries of both sides into the PPlan.

        Query parameters are available as ``self.parameters``.
        """
        raise NotImplementedError

    # -- PARTITION -------------------------------------------------------------

    def assign(self, key, pplan, side: JoinSide):
        """Bucket id(s) for ``key``: an int (single-assign) or a list of
        ints (multi-assign)."""
        raise NotImplementedError

    # -- COMBINE ---------------------------------------------------------------

    def match(self, bucket_id1: int, bucket_id2: int) -> bool:
        """Whether two buckets should be joined.

        The default is equality, which marks the join a *single-join*; the
        optimizer then uses hash partitioning and the hash-join operator.
        Overriding this makes the join a *multi-join* (theta join on
        bucket ids) and forces a broadcast-based bucket matching plan.

        It must be a pure function of ``(bucket_id1, bucket_id2)``: the
        engine may call it once per distinct pair, in any order, and
        reuse the answer for every record pair those buckets hold.
        """
        return bucket_id1 == bucket_id2

    def verify(self, key1, key2, pplan) -> bool:
        """The exact join predicate on a candidate pair."""
        raise NotImplementedError

    def dedup(self, bucket_id1: int, key1, bucket_id2: int, key2, pplan) -> bool:
        """Return True if the pair should be *emitted* from these buckets.

        The framework default implements duplicate avoidance: it recomputes
        both assignment lists and emits the pair only from the first
        matching bucket pair (paper §IV-C).  Override for a custom scheme
        (e.g. the reference-point method) or disable dedup entirely via
        :meth:`uses_dedup` when the partitioning is single-assign.
        """
        first = self.first_matching_buckets(key1, key2, pplan)
        return first == (bucket_id1, bucket_id2)

    # -- capability probes (used by the optimizer, paper §VI-C) ----------------

    def uses_default_match(self) -> bool:
        """True when :meth:`match` is not overridden (single-join);
        enables the hash-join physical plan."""
        return type(self).match is FlexibleJoin.match

    def uses_dedup(self) -> bool:
        """Whether the combine phase must run duplicate handling.

        Defaults to True whenever dedup could matter; single-assign joins
        should override this to return False so the engine can skip the
        dedup work entirely (the paper's "can be disabled" knob).
        """
        return True

    def symmetric_summaries(self) -> bool:
        """True when both sides share one summarize/assign implementation,
        enabling the self-join summarize-once optimization (§VI-C)."""
        return True

    # -- optional extensions (the paper's §VIII future work) ---------------------

    def partition_buckets(self, bucket_id: int, num_partitions: int, pplan):
        """Optional: worker partitions a bucket belongs to, for the
        *partitioned theta join* extension.

        Multi-joins normally force a broadcast plan (§VII-C).  A join whose
        ``match`` has range structure can instead override this to map each
        bucket id onto one or more of ``num_partitions`` logical match
        partitions such that **any two buckets with ``match(b1, b2) ==
        True`` share at least one partition**.  The engine then
        co-partitions both sides and joins locally — no broadcast.  Return
        ``None`` (the default) to keep the broadcast plan.
        """
        return None

    def supports_partitioned_matching(self) -> bool:
        """True when :meth:`partition_buckets` is overridden."""
        return (
            type(self).partition_buckets is not FlexibleJoin.partition_buckets
        )

    def local_join(self, keys1: list, keys2: list, pplan):
        """Optional: a custom local algorithm for joining two matched
        buckets (the paper's planned *local join optimization* hook).

        Receives the keys of the two matched buckets and must yield
        ``(i, j)`` index pairs of *candidate* matches — pairs it does not
        yield are pruned without verification, so the implementation must
        never drop a pair that :meth:`verify` would accept.  ``verify``
        and duplicate handling still run on every yielded pair.  Return
        ``None`` (the default) for the engine's all-pairs loop.
        """
        return None

    def has_local_join(self) -> bool:
        """True when :meth:`local_join` is overridden."""
        return type(self).local_join is not FlexibleJoin.local_join

    # -- helpers ----------------------------------------------------------------

    def assign_list(self, key, pplan, side: JoinSide) -> list:
        """Normalized assignment: always a list of bucket ids."""
        bucket_ids = self.assign(key, pplan, side)
        if isinstance(bucket_ids, int):
            return [bucket_ids]
        return list(bucket_ids)

    def first_matching_buckets(self, key1, key2, pplan):
        """The lexicographically first ``(b1, b2)`` with ``match(b1, b2)``.

        This is the engine's duplicate-avoidance anchor: every worker
        computes the same deterministic pair, so exactly one copy of each
        result survives.  Returns ``None`` when no bucket pair matches
        (the pair then never got co-located and must not be emitted).
        """
        ids1 = sorted(self.assign_list(key1, pplan, JoinSide.LEFT))
        ids2 = sorted(self.assign_list(key2, pplan, JoinSide.RIGHT))
        for b1 in ids1:
            for b2 in ids2:
                if self.match(b1, b2):
                    return (b1, b2)
        return None

    def __repr__(self) -> str:
        params = ", ".join(repr(p) for p in self.parameters)
        return f"{type(self).__name__}({params})"
