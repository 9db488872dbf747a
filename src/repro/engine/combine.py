"""The COMBINE kernels — one copy, run against a *site*.

COMBINE is where the user's ``match`` / ``verify`` / ``dedup`` run.  A
kernel is the body of one per-partition task: it takes the two routed
entry lists (``(bucket_id, key, row, size, rid, assignment, raw_key)``
tuples, as PARTITION made them — ``key`` is what the callbacks receive,
``row`` the input's value tuple, ``size`` the entry's wire size, ``rid``
the row's id, ``raw_key`` the key before the library's ``prepare``,
which a quarantine report renders) and returns the joined rows, one
:class:`~repro.engine.record.Record` each.  Everything a task
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
construction.  On the theta and partitioned plans ``match`` is not a
task's to ask: :func:`match_relation` decides every bucket pair of the
query on the coordinator before the stage runs, and the site carries
that relation to the task as a plain dict — on the theta plan with the
broadcast's bucket -> positions map (:func:`bucket_positions`), made
once per query too.
"""

from __future__ import annotations

import time
from collections import defaultdict
from itertools import repeat

from repro.core.dedup import DuplicateAvoidance, DuplicateElimination, NoDedup
from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.engine.record import Record
from repro.engine.resources import EntrySpillCodec, restore_tails

__all__ = ["KERNELS", "CombineSite", "LocalSite", "bucket_positions",
           "match_relation"]

#: Candidate pairs a task holds before it verifies them: the pending
#: list is bounded whatever the two sides' sizes.
_BLOCK = 1024


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

    #: The query's cancellation check, polled between the calls of a
    #: ``verify`` batch; None when nothing can cancel (a worker process).
    poll = None

    def __init__(self, op, ctx, pplan, out_schema, v_cost: float,
                 worker: int, relation: dict = None,
                 positions: dict = None) -> None:
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
        #: The strategy keeps every pair, so COMBINE makes no keep step.
        self.keeps_all = type(op.dedup) in (NoDedup, DuplicateElimination)
        #: ``match`` is equality, so :meth:`keeps` needs no ``match`` call.
        self.default_match = op.join.uses_default_match()
        self.pplan = pplan
        self.out_schema = out_schema
        #: Work units of a ``verify`` call that matched, and of one that
        #: did not.
        self.verify_hit = ctx.cost_model.predicate_units(v_cost, True)
        self.verify_miss = ctx.cost_model.predicate_units(v_cost, False)
        #: Emit ``(pair_id, row)`` for the duplicate-elimination shuffle.
        self.tag = op.dedup.requires_shuffle
        self.traced = ctx.tracer.enabled
        self.num = ctx.num_partitions
        self.enforce = ctx.resources.enforce
        self.model = ctx.cost_model
        self.worker = worker
        #: The query's ``match`` relation (:func:`match_relation`), or
        #: None on a plan that asks no bucket pair up front.
        self.relation = relation
        #: The theta broadcast's bucket -> positions map
        #: (:func:`bucket_positions`); None on the other plans, where
        #: each task's right side is its own.
        self.positions = positions

    def admit(self, items: list, side: JoinSide, price: bool = True) -> list:
        """Route one side's resident entries through the memory
        accountant.  A spilled entry comes back as the codec's
        ``(bucket_id, key, row)`` in its original's position and takes
        the rest of its original back (size, rid, carried assignment and
        raw key)."""
        return restore_tails(items, self._admit(items, side, price))

    def keeps(self, bucket1: int, assignment1, bucket2: int,
              assignment2) -> bool:
        """Default duplicate avoidance, from the carried assignments:
        emit the pair only from the first ``(b1, b2)``, in sorted order,
        with ``match(b1, b2)`` — what
        :meth:`FlexibleJoin.first_matching_buckets` finds by calling
        ``assign`` on both keys again.  With the default ``match`` that
        pair is the first ``b1`` the other assignment holds, paired with
        itself."""
        buckets2 = assignment2 or (bucket2,)
        if self.default_match:
            for b1 in assignment1 or (bucket1,):
                if b1 in buckets2:
                    return b1 == bucket1 and b1 == bucket2
            return False
        match = self.join.match
        for b1 in assignment1 or (bucket1,):
            for b2 in buckets2:
                if match(b1, b2):
                    return b1 == bucket1 and b2 == bucket2
        return False

    def safe_verify(self, key1, key2, raw1, raw2) -> bool:
        """``verify`` on one pair under the error policy: a raising pair
        is treated as a non-match (and quarantined, by its raw keys)
        instead of aborting."""
        ok, matched = self.guard_record(
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

    def __init__(self, op, ctx, stage, worker: int, pplan, schemas: tuple,
                 out_schema, v_cost: float, relation, positions) -> None:
        super().__init__(op, ctx, pplan, out_schema, v_cost, worker,
                         relation, positions)
        self._op = op
        self._ctx = ctx
        self._schemas = schemas
        self._stage = stage
        if ctx.cancel is not None:
            self.poll = ctx.cancel.check
        # Bound methods, not wrappers: one frame less per guarded call.
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
        schema = self._schemas[side is JoinSide.RIGHT]
        return ctx.admit(
            self._stage, self.worker, items,
            EntrySpillCodec(
                lambda row: op._key_column([row], schema, side, ctx)[0][0]),
            price=price,
        )


def _verify_all(verify, pairs: list, pplan, poll) -> list:
    """One batch's ``verify`` answers, in order.  ``poll`` is the query's
    cancellation check, or None."""
    if poll is None:
        return [verify(entry1[1], entry2[1], pplan)
                for entry1, entry2 in pairs]
    answers = []
    for entry1, entry2 in pairs:
        poll()
        answers.append(verify(entry1[1], entry2[1], pplan))
    return answers


class _Verifier:
    """A task's candidate record pairs, taken through dedup, ``verify``
    and emit in the order the kernel found them.

    A kernel adds ``(entry1, entry2)`` pairs to :attr:`pending` and calls
    :meth:`flush` when it holds :data:`_BLOCK` of them and at the end of
    the task (a ``local_join`` task also before each ``match`` it asks,
    :meth:`_BucketPairs.matches`).  A flush keeps the pairs the dedup
    strategy keeps, calls ``verify`` on all of them under one policy frame
    (:meth:`ExecutionContext.guard_batch`), emits the matches and adds
    each pair's verify units to :attr:`units`, in order — the sum a
    pair-at-a-time loop makes.  Only a batch in which some ``verify``
    raised is made again pair by pair through ``safe_verify``, so
    ``on_error`` acts on exactly the pairs that raise.

    Both verify and dedup are pure predicates, so the cheap duplicate
    check runs first and the expensive verification is paid only for
    pairs this worker owns.  With a duplicate-elimination shuffle to
    follow, the row is tagged with its pair identity: elimination must
    distinguish *the same input pair emitted from two buckets* (a
    duplicate) from *two different pairs with equal field values* (two
    legitimate results) — the original set-similarity study dedups on
    record ids for the same reason.  The pair id is the two entries'
    ``rid``s, which PARTITION numbered
    (:func:`~repro.engine.record.row_ids`); spills and worker transport
    give a replayed entry its original's ``rid`` back.
    """

    def __init__(self, site: CombineSite, rows: list) -> None:
        self.site = site
        self.rows = rows
        self.pending = []
        self.units = 0.0

    def flush(self) -> None:
        site = self.site
        pending = self.pending
        pairs = pending[:] if site.keeps_all else _kept(site, pending)
        del pending[:]
        if not pairs:
            return
        join = site.join
        ok, answers = site.guard_batch(
            join.name, "verify", len(pairs),
            _verify_all, join.verify, pairs, site.pplan, site.poll,
        )
        if not ok:
            safe_verify = site.safe_verify
            answers = [safe_verify(entry1[1], entry2[1], entry1[6], entry2[6])
                       for entry1, entry2 in pairs]
        rows = self.rows
        out_schema = site.out_schema
        tag = site.tag
        hit = site.verify_hit
        miss = site.verify_miss
        units = self.units
        for (entry1, entry2), matched in zip(pairs, answers):
            if matched:
                joined = Record(out_schema, entry1[2] + entry2[2])
                if tag:
                    joined = ((entry1[4], entry2[4]), joined)
                rows.append(joined)
                units += hit
            else:
                units += miss
        self.units = units


def _kept(site: CombineSite, pairs: list) -> list:
    """The candidate pairs the dedup strategy emits from here, in order.

    With the default ``match`` a pair with a single-assigned side is kept
    without asking :meth:`CombineSite.keeps`: both entries are in one
    bucket, so the first ``b1`` of the one assignment that the other
    holds is that bucket."""
    if site.carried:
        keeps = site.keeps
        if site.default_match:
            return [pair for pair in pairs
                    if pair[0][5] is None or pair[1][5] is None
                    or keeps(pair[0][0], pair[0][5], pair[1][0], pair[1][5])]
        return [pair for pair in pairs
                if keeps(pair[0][0], pair[0][5], pair[1][0], pair[1][5])]
    keep_local = site.dedup.keep_local
    join = site.join
    pplan = site.pplan
    return [pair for pair in pairs
            if keep_local(join, pair[0][0], pair[0][1], pair[1][0],
                          pair[1][1], pplan)]


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
    verifier = _Verifier(site, rows)
    if site.join.has_local_join():
        dedup_checks, verify_units = _probe_with_local_join(
            site, verifier, table, right_entries
        )
    else:
        dedup_checks = 0
        pending = verifier.pending
        lookup = table.get
        for entry2 in right_entries:
            bucket = lookup(entry2[0])
            if bucket:
                dedup_checks += len(bucket)
                pending += zip(bucket, repeat(entry2))
                if len(pending) >= _BLOCK:
                    verifier.flush()
        verifier.flush()
        verify_units = verifier.units
    _close(site, len(right_entries) * model.hash_op, verify_units,
           dedup_checks)
    return rows


def _probe_with_local_join(site: CombineSite, verifier: _Verifier,
                           left_table, right_entries: list):
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
    setup_keys = 0
    pending = verifier.pending
    for bucket_id, right_bucket in right_table.items():
        left_bucket = left_table.get(bucket_id)
        if not left_bucket:
            continue
        keys1 = [entry[1] for entry in left_bucket]
        keys2 = [entry[1] for entry in right_bucket]
        setup_keys += len(keys1) + len(keys2)
        for i, j in site.local_join_pairs(keys1, keys2):
            candidates += 1
            pending.append((left_bucket[i], right_bucket[j]))
            if len(pending) >= _BLOCK:
                verifier.flush()
    verifier.flush()
    return candidates, verifier.units + setup_keys * model.comparison


_UNASKED = object()


def _matching(match, bucket1, buckets2: list) -> set:
    """One left bucket's row of ``match`` answers, unguarded."""
    return {bucket2 for bucket2 in buckets2 if match(bucket1, bucket2)}


def bucket_positions(entries: list) -> dict:
    """Bucket id -> the positions of its entries in ``entries``, in
    order.

    The theta plan's broadcast is one list, copied to every task, so the
    map is made once per query from the first copy.  It holds under a
    memory budget too: a task's ``admit`` replays spilled entries in
    their own positions, with their bucket ids.
    """
    positions = defaultdict(list)
    for position, entry in enumerate(entries):
        positions[entry[0]].append(position)
    return dict(positions)


def _distinct_buckets(parts) -> list:
    """The bucket ids of per-worker entry lists, in (worker, position)
    order of first appearance."""
    return list(dict.fromkeys(entry[0] for entries in parts
                              for entry in entries))


def match_relation(ctx, join, kind: str, left_parts: list,
                   right_parts: list, pplan):
    """The query's ``match`` relation, decided on the coordinator before
    any COMBINE task runs: ``{b1: (matched, raised)}`` for every distinct
    left bucket id, ``matched`` the right buckets ``match(b1, ·)`` said
    yes to and ``raised`` those whose call raised and the error policy
    dropped.  None for a plan that asks nothing up front: the ``single``
    kernel (default ``match``), and a ``local_join``, whose candidates
    are sparse — it asks per task, pair by pair
    (:meth:`_BucketPairs.matches`), only about what the hook yields.

    A row holds every distinct right bucket on the theta plan (each task
    holds the same broadcast) and, on the partitioned plan, the right
    buckets that share a ``partition_buckets`` partition with ``b1`` —
    the pairs some task owns.  A row is asked under one policy frame
    (:meth:`ExecutionContext.guard_batch`, which checks the cancellation
    token before it); only a row in which some call raised is asked again
    pair by pair (:meth:`ExecutionContext.guard_record`), so ``on_error``
    acts on exactly the raising pairs, each reported once per query.
    The tasks that hold a raising pair's record pairs count every one of
    them in ``records_quarantined`` (:class:`_BucketPairs`), so the one
    count each raising call made here is taken back.

    ``match`` is pure and one process hosts every simulated worker, so
    it is executed once per bucket pair of the query; each task is still
    *charged* its record pairs' ``match_op`` (:func:`_close`), as a real
    worker derives its rows from the broadcast it already holds.
    """
    if kind == "single" or (kind == "partitioned" and join.has_local_join()):
        return None
    left_ids = _distinct_buckets(left_parts)
    right_ids = _distinct_buckets(
        right_parts[:1] if kind == "theta" else right_parts)
    if kind == "partitioned":
        num = ctx.num_partitions
        parts = {bucket: join.partition_buckets(bucket, num, pplan)
                 for bucket in dict.fromkeys(left_ids + right_ids)}
        # Partition -> the right ids it holds, so a row costs its own
        # length rather than a pass over every right id.
        rank = {bucket2: i for i, bucket2 in enumerate(right_ids)}
        members = defaultdict(list)
        for bucket2 in right_ids:
            for part in parts[bucket2]:
                members[part].append(bucket2)
    name = join.name
    match = join.match
    relation = {}
    raising = 0
    for bucket1 in left_ids:
        if kind == "theta":
            row = right_ids
        else:
            row = sorted({bucket2 for part in parts[bucket1]
                          for bucket2 in members.get(part, ())},
                         key=rank.__getitem__)
        ok, matched = ctx.guard_batch(name, "match", len(row),
                                      _matching, match, bucket1, row)
        raised = ()
        if not ok:
            answers = [(bucket2, ctx.guard_record(
                name, "match", match, bucket1, bucket2,
                detail=(bucket1, bucket2))) for bucket2 in row]
            matched = {bucket2 for bucket2, (asked, yes) in answers
                       if asked and yes}
            raised = frozenset(bucket2 for bucket2, (asked, _) in answers
                               if not asked)
            raising += len(raised)
        relation[bucket1] = (matched, raised)
    ctx.metrics.records_quarantined -= raising
    return relation


class _BucketPairs:
    """One task's candidates: the right entries each left bucket pairs
    with, looked up in the query's ``match`` relation
    (:func:`match_relation`) — and, on the partitioned plan, filtered to
    the pairs this task owns.

    A task runs its record-pair loop only over the right entries whose
    bucket matched; the stage is still *charged* the record-pair nested
    loop the cost model prices.  A bucket pair whose ``match`` raised
    drops every record pair it covers, and the task that holds them
    counts each (:attr:`dropped`).

    ``owns(b1, b2)``, when given, is asked first.  A ``local_join`` task
    has no relation: :meth:`matches` asks ``match`` lazily, once per
    bucket pair of the task, after ``flush()`` has made the task's
    pending ``verify`` calls, so reports keep the order a pair-at-a-time
    loop gives them.
    """

    def __init__(self, site: CombineSite, left_entries: list,
                 right_entries: list, owns=None, flush=None) -> None:
        self.site = site
        self.left = left_entries
        self.right = right_entries
        self.owns = owns
        self.flush = flush
        #: Right bucket id -> positions of its entries: the query's map
        #: on the theta plan, this task's own on the partitioned plan.
        self.positions = (site.positions if site.positions is not None
                          else bucket_positions(right_entries))
        self._candidates = {}
        self._answers = {}
        #: Record pairs dropped with a raising bucket pair — all of them
        #: here; :meth:`matches` counts beyond the one each raising call
        #: has counted itself.
        self.dropped = 0

    def candidates(self, bucket1) -> list:
        """The right entries a left entry of ``bucket1`` pairs with, in
        arrival order."""
        found = self._candidates.get(bucket1)
        if found is None:
            found = self._candidates[bucket1] = self._row(bucket1)
        return found

    def _row(self, bucket1) -> list:
        matched, raised = self.site.relation[bucket1]
        positions = self.positions
        owns = self.owns
        if owns is not None:
            matched = [b2 for b2 in matched
                       if b2 in positions and owns(bucket1, b2)]
            raised = [b2 for b2 in raised
                      if b2 in positions and owns(bucket1, b2)]
        if raised:
            self.dropped += (
                sum(1 for entry in self.left if entry[0] == bucket1)
                * sum(len(positions.get(b2, ())) for b2 in raised))
        right = self.right
        return [right[position] for position in
                sorted([p for b2 in matched for p in positions.get(b2, ())])]

    def matches(self, bucket1, bucket2) -> bool:
        """One pair's answer, for a task whose candidates are sparse (a
        ``local_join``).  Call once per candidate record pair."""
        pair = (bucket1, bucket2)
        matched = self._answers.get(pair, _UNASKED)
        if matched is _UNASKED:
            self.flush()
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
    one ``match`` per distinct bucket pair of the query, before any task
    runs (:func:`match_relation`); a task only looks its candidates up
    (:class:`_BucketPairs`).
    """
    model = site.model
    broadcast = site.admit(broadcast, JoinSide.RIGHT)
    site.charge((len(left_entries) + len(broadcast)) * model.hash_op)
    rows = []
    verifier = _Verifier(site, rows)
    pairs = _BucketPairs(site, left_entries, broadcast)
    dedup_checks = _pair_up(verifier, left_entries, pairs.candidates)
    match_checks = len(left_entries) * len(broadcast)
    _close(site, match_checks * model.match_op, verifier.units,
           dedup_checks, "match", pairs.dropped)
    return rows


def _pair_up(verifier: _Verifier, left_entries: list, candidates_of) -> int:
    """Every left entry paired with the right entries its bucket
    matches, through ``verifier``; returns the candidate count."""
    pending = verifier.pending
    dedup_checks = 0
    for entry1 in left_entries:
        candidates = candidates_of(entry1[0])
        if candidates:
            dedup_checks += len(candidates)
            pending += [(entry1, entry2) for entry2 in candidates]
            if len(pending) >= _BLOCK:
                verifier.flush()
    verifier.flush()
    return dedup_checks


def partitioned_task(site: CombineSite, local_left: list,
                     local_right: list) -> list:
    """The partitioned theta join the paper lists as future work.

    ``partition_buckets`` maps every bucket onto match partitions such
    that matching buckets share one, so both sides co-partition and join
    locally — no broadcast, and the per-node work shrinks with the
    cluster.  A pair may meet in several partitions; only the smallest
    shared one owns it and joins it.  ``match`` was asked once per
    bucket pair that shares a partition, before any task ran
    (:func:`match_relation`); a ``local_join`` task asks its owner's
    pairs itself, lazily.
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
    verifier = _Verifier(site, rows)
    part_cache = {}

    def parts_of(bucket_id):
        found = part_cache.get(bucket_id)
        if found is None:
            found = set(join.partition_buckets(bucket_id, num, pplan))
            part_cache[bucket_id] = found
        return found

    def owns(b1, b2):
        return min(parts_of(b1) & parts_of(b2)) == worker

    pairs = _BucketPairs(site, local_left, local_right, owns,
                         verifier.flush)
    if join.has_local_join():
        # A custom local algorithm (e.g. a sort-merge forward scan)
        # enumerates candidates instead of the NLJ; ownership, ``match``
        # and verify still decide each candidate.
        keys1 = [entry[1] for entry in local_left]
        keys2 = [entry[1] for entry in local_right]
        match_checks = len(keys1) + len(keys2)  # sort/setup charge
        matches = pairs.matches
        pending = verifier.pending
        dedup_checks = 0
        for i, j in site.local_join_pairs(keys1, keys2):
            entry1 = local_left[i]
            entry2 = local_right[j]
            if not matches(entry1[0], entry2[0]):
                continue
            dedup_checks += 1
            pending.append((entry1, entry2))
            if len(pending) >= _BLOCK:
                verifier.flush()
        verifier.flush()
    else:
        match_checks = len(local_left) * len(local_right)
        dedup_checks = _pair_up(verifier, local_left, pairs.candidates)
    _close(site, match_checks * model.match_op, verifier.units,
           dedup_checks, "match", pairs.dropped)
    return rows


#: Kernel per combine plan: ``single`` for default-``match`` joins,
#: ``partitioned`` for custom ``match`` with ``partition_buckets``,
#: ``theta`` (broadcast) for every other custom ``match``.
KERNELS = {
    "single": single_task,
    "theta": theta_task,
    "partitioned": partitioned_task,
}
