"""The COMBINE kernels — one copy, run against a *site*.

COMBINE is where the user's ``match`` / ``verify`` / ``dedup`` run.  A
kernel is the body of one per-partition task: it takes the two routed
entry lists (``(bucket_id, key, record, assignment, raw_key)`` tuples, as
PARTITION made them — ``key`` is what the callbacks receive, ``raw_key``
the key before the library's ``prepare``, which a quarantine report
renders) and returns the joined rows.  Everything a task
does to shared state — charging the stage, recording a callback,
attributing trace units, quarantining a record, reserving memory — goes
through the site it is handed:

- :class:`LocalSite` applies each effect to the real
  :class:`~repro.engine.context.ExecutionContext` as it happens (the
  serial loop in :class:`~repro.engine.operators.fudj_join.FudjJoin`);
- ``workers._WorkerSite`` only *logs* them, in order, inside a worker
  process; the coordinator replays that ledger against the real objects.

Both sites run the same kernel text, so rows, charges and the
float-summation order of every charge are identical on either backend by
construction.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.core.dedup import DuplicateAvoidance
from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.engine.resources import EntrySpillCodec

__all__ = ["KERNELS", "CombineSite", "LocalSite"]


class CombineSite:
    """What a kernel sees of the query it runs in.

    Subclasses supply the effects — ``charge(units)``,
    ``attribute(name, units, calls=0)``, ``note_call(name, wall, ok=True)``,
    ``add_comparisons(n)``, ``add_quarantined(n)``,
    ``_admit(items, side, price)``,
    ``guard_record(join_name, phase, fn, *args, detail=None)`` and
    ``guard_batch(join_name, phase, calls, fn, *args)`` (the signatures of
    :meth:`ExecutionContext.guard_record` and
    :meth:`ExecutionContext.guard_batch`).
    """

    def __init__(self, op, ctx, pplan, out_schema, v_cost: float,
                 worker: int) -> None:
        self.join = op.join
        self.dedup = op.dedup
        #: Duplicate avoidance is the framework's own — the strategy is
        #: :class:`DuplicateAvoidance` and the library overrides none of
        #: the methods its default goes through — so :meth:`keeps` can
        #: answer it from the assignments PARTITION carried.
        self.carried = type(op.dedup) is DuplicateAvoidance and all(
            getattr(getattr(op.join, name), "__func__", None)
            is getattr(FlexibleJoin, name)
            for name in ("dedup", "first_matching_buckets", "assign_list")
        )
        self.pplan = pplan
        self.out_schema = out_schema
        #: Work units per ``verify`` call.
        self.v_cost = v_cost
        #: Emit ``(pair_id, row)`` for the duplicate-elimination shuffle.
        self.tag = op.dedup.requires_shuffle
        self.traced = ctx.tracer.enabled
        self.num = ctx.num_partitions
        self.enforce = ctx.resources.enforce
        self.model = ctx.cost_model
        self.worker = worker

    def admit(self, items: list, side: JoinSide, price: bool = True) -> list:
        """Route one side's resident entries through the memory
        accountant.  A spilled entry comes back as the codec's
        ``(bucket_id, key, record)`` in its original's position and takes
        its original's carried assignment and raw key back."""
        admitted = self._admit(items, side, price)
        if admitted is items:
            return items
        return [new if new is old else new + old[3:]
                for old, new in zip(items, admitted)]

    def keeps(self, bucket1: int, assignment1, bucket2: int,
              assignment2) -> bool:
        """Default duplicate avoidance, from the carried assignments:
        emit the pair only from the first ``(b1, b2)``, in sorted order,
        with ``match(b1, b2)`` — what
        :meth:`FlexibleJoin.first_matching_buckets` finds by calling
        ``assign`` on both keys again."""
        match = self.join.match
        buckets2 = assignment2 or (bucket2,)
        for b1 in assignment1 or (bucket1,):
            for b2 in buckets2:
                if match(b1, b2):
                    return b1 == bucket1 and b2 == bucket2
        return False

    def safe_verify(self, key1, key2, raw1, raw2) -> bool:
        """``verify`` under the error policy: a raising pair is treated
        as a non-match (and quarantined, by its raw keys) instead of
        aborting."""
        # Fetched, then called: on the local site ``guard_record`` is an
        # instance attribute, which CPython's cached method-call path
        # misses on every call — 2 % of a theta query, measured.
        guard = self.guard_record
        ok, matched = guard(
            self.join.name, "verify", self.join.verify, key1, key2,
            self.pplan, detail=(raw1, raw2),
        )
        return bool(matched) if ok else False

    def safe_match(self, bucket1, bucket2):
        """``match`` on one bucket pair under the error policy; ``None``
        (a non-match) when the call raised and the policy dropped it."""
        ok, matched = self.guard_record(
            self.join.name, "match", self.join.match, bucket1, bucket2,
            detail=(bucket1, bucket2),
        )
        return bool(matched) if ok else None

    def local_join_pairs(self, keys1, keys2):
        """Enumerate the developer's ``local_join`` candidates; with
        tracing on the hook is materialized under a timer so its wall
        time lands in the ``local_join`` callback span."""
        if not self.traced:
            return self.join.local_join(keys1, keys2, self.pplan)
        started = time.perf_counter()
        pairs = list(self.join.local_join(keys1, keys2, self.pplan))
        self.note_call("local_join", time.perf_counter() - started)
        return pairs


class LocalSite(CombineSite):
    """The in-process site: every effect lands on the real context."""

    def __init__(self, op, ctx, stage, worker: int, pplan, out_schema,
                 v_cost: float) -> None:
        super().__init__(op, ctx, pplan, out_schema, v_cost, worker)
        self._op = op
        self._ctx = ctx
        self._stage = stage
        # Bound methods, not wrappers: COMBINE makes one guarded
        # ``verify`` call per candidate record pair, so an extra frame per
        # call is a measurable slowdown of the whole query.
        self.guard_record = ctx.guard_record
        self.guard_batch = ctx.guard_batch
        self.attribute = ctx.tracer.attribute
        self.note_call = ctx.tracer.record_call

    def charge(self, units: float) -> None:
        self._stage.charge(self.worker, units)

    def add_comparisons(self, count: int) -> None:
        self._ctx.metrics.comparisons += count

    def add_quarantined(self, count: int) -> None:
        self._ctx.metrics.records_quarantined += count

    def _admit(self, items: list, side: JoinSide, price: bool) -> list:
        # Resident COMBINE state goes through the accountant: it prices
        # the spill and, under a memory budget, spills/replays the
        # overflow for real — making each replayed entry's key again.
        op, ctx = self._op, self._ctx
        return ctx.admit(
            self._stage, self.worker, items,
            EntrySpillCodec(lambda r: op._key_column([r], side, ctx)[0][0]),
            price=price,
        )


def _verify_pair(site: CombineSite, rows: list, entry1, entry2) -> float:
    """Take one candidate pair of entries through dedup, ``verify`` and
    emit; returns the verify units to charge for it.

    Both verify and dedup are pure predicates, so the cheap duplicate
    check runs first and the expensive verification is paid only for
    pairs this worker owns.  With a duplicate-elimination shuffle to
    follow, the row is tagged with its pair identity: elimination must
    distinguish *the same input pair emitted from two buckets* (a
    duplicate) from *two different pairs with equal field values* (two
    legitimate results) — the original set-similarity study dedups on
    record ids for the same reason.  PARTITION numbered both sides'
    records for this (``fudj_join._number_records``); exchanges move
    references, and spills and worker transport replay clones that keep
    their ``rid``.
    """
    bucket1, key1, record1, assignment1, raw1 = entry1
    bucket2, key2, record2, assignment2, raw2 = entry2
    if site.carried:
        keep = site.keeps(bucket1, assignment1, bucket2, assignment2)
    else:
        keep = site.dedup.keep_local(
            site.join, bucket1, key1, bucket2, key2, site.pplan
        )
    if not keep:
        return 0.0
    matched = site.safe_verify(key1, key2, raw1, raw2)
    if matched:
        joined = record1.concat(record2, site.out_schema)
        if site.tag:
            joined = ((record1.rid, record2.rid), joined)
        rows.append(joined)
    return site.model.predicate_units(site.v_cost, matched)


def _close(site: CombineSite, probe_units: float, verify_units: float,
           dedup_checks: int, probe_name: str = None,
           dropped: int = 0) -> None:
    """A kernel's closing charge: the probe side (hash probes, or the
    ``match`` calls when ``probe_name`` says so), verification, and the
    duplicate checks.  ``dropped`` is :attr:`_BucketPairs.dropped`."""
    dedup_units = dedup_checks * site.model.comparison
    site.charge(probe_units + verify_units + dedup_units)
    site.add_comparisons(dedup_checks)
    if dropped:
        site.add_quarantined(dropped)
    if site.traced:
        if probe_name is not None:
            site.attribute(probe_name, probe_units)
        site.attribute("verify", verify_units)
        site.attribute("dedup", dedup_units, calls=dedup_checks)


def single_task(site: CombineSite, left_entries: list,
                right_entries: list) -> list:
    """Single-join (default ``match``): both sides arrive hash-partitioned
    on bucket id; build a table on the left, probe with the right."""
    model = site.model
    build = site.admit(left_entries, JoinSide.LEFT)
    table = defaultdict(list)
    for entry in build:
        table[entry[0]].append(entry)
    site.charge(len(build) * model.hash_op)
    rows = []
    verify_units = 0.0
    dedup_checks = 0
    if site.join.has_local_join():
        dedup_checks, verify_units = _probe_with_local_join(
            site, rows, table, right_entries
        )
    else:
        for entry2 in right_entries:
            for entry1 in table.get(entry2[0], ()):
                dedup_checks += 1
                verify_units += _verify_pair(site, rows, entry1, entry2)
    _close(site, len(right_entries) * model.hash_op, verify_units,
           dedup_checks)
    return rows


def _probe_with_local_join(site: CombineSite, rows: list, left_table,
                           right_entries: list):
    """Single-join combine through the developer's ``local_join`` hook.

    Buckets are paired as usual (equal bucket ids); within each bucket
    pair the hook enumerates candidate index pairs, replacing the
    all-pairs loop.  The hook's own work is charged per input key
    (sort/setup) plus per emitted candidate.
    """
    model = site.model
    right_table = defaultdict(list)
    for entry in right_entries:
        right_table[entry[0]].append(entry)
    candidates = 0
    verify_units = 0.0
    setup_keys = 0
    for bucket_id, right_bucket in right_table.items():
        left_bucket = left_table.get(bucket_id)
        if not left_bucket:
            continue
        keys1 = [entry[1] for entry in left_bucket]
        keys2 = [entry[1] for entry in right_bucket]
        setup_keys += len(keys1) + len(keys2)
        for i, j in site.local_join_pairs(keys1, keys2):
            candidates += 1
            verify_units += _verify_pair(
                site, rows, left_bucket[i], right_bucket[j]
            )
    verify_units += setup_keys * model.comparison
    return candidates, verify_units


_UNASKED = object()


def _matching(match, bucket1, buckets2: list) -> set:
    """One left bucket's row of ``match`` answers, unguarded."""
    return {bucket2 for bucket2 in buckets2 if match(bucket1, bucket2)}


class _BucketPairs:
    """``match`` — and, on the partitioned plan, who owns the pair —
    decided once per distinct bucket pair of one task.

    ``match`` is a pure function of two bucket ids, so a task asks it per
    *bucket* pair and runs its record-pair loop only over the right
    entries whose bucket matched; the stage is still *charged* the
    record-pair nested loop the cost model prices.  One left bucket's
    whole row of answers is taken under one policy frame
    (:meth:`ExecutionContext.guard_batch`); only a row in which some
    ``match`` raised is asked again pair by pair through ``safe_match``,
    which applies ``on_error`` to exactly the pairs that raise.  A
    raising bucket pair is reported once and drops every record pair it
    covers.

    ``owns(b1, b2)``, when given, is asked first and ``match`` only of
    the pairs this task owns.
    """

    def __init__(self, site: CombineSite, left_entries: list,
                 right_entries: list, owns=None) -> None:
        self.site = site
        self.left = left_entries
        self.right = right_entries
        self.owns = owns
        #: Distinct right bucket ids, in order of first appearance.
        self.buckets2 = list(dict.fromkeys(
            [entry[0] for entry in right_entries]))
        self._candidates = {}
        self._answers = {}
        #: Record pairs dropped with a raising bucket pair, beyond the
        #: one that each raising call has counted itself.
        self.dropped = 0

    def candidates(self, bucket1) -> list:
        """The right entries a left entry of ``bucket1`` pairs with, in
        arrival order."""
        found = self._candidates.get(bucket1)
        if found is None:
            found = self._candidates[bucket1] = self._row(bucket1)
        return found

    def _row(self, bucket1) -> list:
        site = self.site
        owns = self.owns
        buckets2 = self.buckets2
        if owns is not None:
            buckets2 = [b2 for b2 in buckets2 if owns(bucket1, b2)]
        ok, row = site.guard_batch(
            site.join.name, "match", len(buckets2),
            _matching, site.join.match, bucket1, buckets2,
        )
        if not ok:
            safe_match = site.safe_match
            answers = [(b2, safe_match(bucket1, b2)) for b2 in buckets2]
            row = {b2 for b2, matched in answers if matched}
            raised = {b2 for b2, matched in answers if matched is None}
            if raised:
                covered = (
                    sum(1 for entry in self.left if entry[0] == bucket1)
                    * sum(1 for entry in self.right if entry[0] in raised))
                self.dropped += covered - len(raised)
        return [entry for entry in self.right if entry[0] in row]

    def matches(self, bucket1, bucket2) -> bool:
        """One pair's answer, for a task whose candidates are sparse (a
        ``local_join``).  Call once per candidate record pair."""
        pair = (bucket1, bucket2)
        matched = self._answers.get(pair, _UNASKED)
        if matched is _UNASKED:
            owns = self.owns
            matched = self._answers[pair] = (
                (owns is None or owns(bucket1, bucket2))
                and self.site.safe_match(bucket1, bucket2))
        elif matched is None:
            self.dropped += 1
        return matched


def theta_task(site: CombineSite, left_entries: list,
               broadcast: list) -> list:
    """Theta bucket matching: spread left, broadcast right, pair every
    left record with every broadcast record whose bucket ``match``es its
    own (the paper's §VII-C fallback).

    The engine has no partitioned theta-join operator (AsterixDB does
    not either — the paper lists one as future work), so the bucket
    matching degenerates to a nested loop over ``(bucket_id, record)``
    tuples: every worker receives the whole broadcast side, tables it,
    and is charged one ``match`` per record pair.  The per-node
    broadcast processing does not shrink as the cluster grows (and
    spills when it exceeds the worker's memory budget), which is exactly
    why Fig 10b's interval join scales poorly.  What is *executed* is
    one ``match`` per distinct bucket pair (:class:`_BucketPairs`).
    """
    model = site.model
    broadcast = site.admit(broadcast, JoinSide.RIGHT)
    site.charge((len(left_entries) + len(broadcast)) * model.hash_op)
    rows = []
    verify_units = 0.0
    dedup_checks = 0
    pairs = _BucketPairs(site, left_entries, broadcast)
    candidates_of = pairs.candidates
    # Kept as an explicit nested loop: with ``match`` out of it this is
    # one ``_verify_pair`` per candidate, still the hottest loop in the
    # engine, and feeding it from a candidate generator shared with
    # ``partitioned_task`` measured 8-11 % slower end to end.
    for entry1 in left_entries:
        candidates = candidates_of(entry1[0])
        dedup_checks += len(candidates)
        for entry2 in candidates:
            verify_units += _verify_pair(site, rows, entry1, entry2)
    match_checks = len(left_entries) * len(broadcast)
    _close(site, match_checks * model.match_op, verify_units, dedup_checks,
           "match", pairs.dropped)
    return rows


def partitioned_task(site: CombineSite, local_left: list,
                     local_right: list) -> list:
    """The partitioned theta join the paper lists as future work.

    ``partition_buckets`` maps every bucket onto match partitions such
    that matching buckets share one, so both sides co-partition and join
    locally — no broadcast, and the per-node work shrinks with the
    cluster.  A pair may meet in several partitions; only the smallest
    shared one owns it — asks ``match`` of it and joins it.
    """
    model = site.model
    join = site.join
    worker = site.worker
    num = site.num
    pplan = site.pplan
    if site.enforce:
        # Both routed sides are resident; this plan never priced spills
        # (it co-partitions instead of broadcasting), so admission is
        # enforcement-only.
        local_left = site.admit(local_left, JoinSide.LEFT, price=False)
        local_right = site.admit(local_right, JoinSide.RIGHT, price=False)
    site.charge((len(local_left) + len(local_right)) * model.hash_op)
    rows = []
    verify_units = 0.0
    dedup_checks = 0
    part_cache = {}

    def parts_of(bucket_id):
        found = part_cache.get(bucket_id)
        if found is None:
            found = set(join.partition_buckets(bucket_id, num, pplan))
            part_cache[bucket_id] = found
        return found

    def owns(b1, b2):
        return min(parts_of(b1) & parts_of(b2)) == worker

    pairs = _BucketPairs(site, local_left, local_right, owns)
    if join.has_local_join():
        # A custom local algorithm (e.g. a sort-merge forward scan)
        # enumerates candidates instead of the NLJ; ownership, ``match``
        # and verify still decide each candidate.
        keys1 = [entry[1] for entry in local_left]
        keys2 = [entry[1] for entry in local_right]
        match_checks = len(keys1) + len(keys2)  # sort/setup charge
        matches = pairs.matches
        for i, j in site.local_join_pairs(keys1, keys2):
            entry1 = local_left[i]
            entry2 = local_right[j]
            if not matches(entry1[0], entry2[0]):
                continue
            dedup_checks += 1
            verify_units += _verify_pair(site, rows, entry1, entry2)
    else:
        match_checks = len(local_left) * len(local_right)
        candidates_of = pairs.candidates
        for entry1 in local_left:
            candidates = candidates_of(entry1[0])
            dedup_checks += len(candidates)
            for entry2 in candidates:
                verify_units += _verify_pair(site, rows, entry1, entry2)
    _close(site, match_checks * model.match_op, verify_units, dedup_checks,
           "match", pairs.dropped)
    return rows


#: Kernel per combine plan: ``single`` for default-``match`` joins,
#: ``partitioned`` for custom ``match`` with ``partition_buckets``,
#: ``theta`` (broadcast) for every other custom ``match``.
KERNELS = {
    "single": single_task,
    "theta": theta_task,
    "partitioned": partitioned_task,
}
