"""Built-in text-similarity join operator (hand-written baseline).

The prefix-filtered set-similarity join as a dedicated operator, the way
the AsterixDB similarity work implemented it: global token-frequency
summary, rank-ordered prefix replication, bucket-id hash exchange, exact
Jaccard verification, and first-common-prefix-token duplicate avoidance.
It tokenizes each record once and carries the token set alongside it;
the FUDJ version does the same through ``FlexibleJoin.prepare``, so what
separates the two is the framework's callbacks and the translation
layer, not repeated tokenization.  Moving entries, task recovery and
memory are the engine's, as for any operator.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from functools import partial

from repro.engine.context import ExecutionContext
from repro.engine.exchange import by_bucket, entry_size, restore_bytes, route_exchange
from repro.engine.operators.base import OperatorResult, PhysicalOperator
from repro.engine.record import Record, entry_sizes, row_function, row_ids
from repro.engine.resources import EntrySpillCodec
from repro.errors import ExecutionError
from repro.text import tokenize


class BuiltinTextSimilarityJoinOperator(PhysicalOperator):
    """Prefix-filtered Jaccard join as a dedicated operator."""

    label = "builtin-text-join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_key, right_key, threshold: float = 0.9) -> None:
        super().__init__()
        if not 0.0 < threshold <= 1.0:
            raise ExecutionError(f"threshold must be in (0, 1], got {threshold}")
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.threshold = threshold

    def describe(self) -> str:
        return f"BUILTIN TEXT-SIMILARITY JOIN (t={self.threshold})"

    def children(self) -> list:
        return [self.left, self.right]

    # -- phase 1: token frequency summary ------------------------------------------

    def _count_tokens(self, partitions: list, key_fn, counts: Counter,
                      ctx: ExecutionContext, tag: str) -> list:
        """Add the side's token counts to ``counts`` and return the
        per-partition token-set caches so later phases never re-tokenize.
        A task returns its counts, so a replayed task counts once."""
        stage = ctx.metrics.stage(f"{self.stage_name}/count-{tag}")
        model = ctx.cost_model

        def task(worker, partition):
            token_sets = [tokenize(key_fn(row)) for row in partition]
            stage.charge(worker, len(partition) * (model.record_touch + model.hash_op))
            return token_sets, Counter(token for tokens in token_sets
                                       for token in tokens)

        cached = []
        for token_sets, local in ctx.run_tasks(stage, task, partitions):
            counts.update(local)
            cached.append(token_sets)
        stage.network_bytes += 128 * max(0, ctx.num_partitions - 1)
        return cached

    # -- phase 2: prefix replication ---------------------------------------------------

    def _prefix_length(self, size: int) -> int:
        if size <= 0:
            return 0
        p = size - math.ceil(self.threshold * size) + 1
        return max(0, min(size, p))

    def _replicate(self, partitions: list, cached: list, ids: list,
                   ranks: dict, ctx: ExecutionContext, tag: str) -> list:
        """Per worker, emit a ``(rank, tokens, row, size, rid)`` entry per
        prefix token of each row and hash-exchange them on rank."""
        stage = ctx.metrics.stage(f"{self.stage_name}/prefix-{tag}")
        model = ctx.cost_model
        unknown = len(ranks)

        def task(worker, rows, token_sets, rids):
            out = []
            for row, tokens, size, rid in zip(rows, token_sets,
                                              entry_sizes(rows), rids):
                if not tokens:
                    out.append((-1, tokens, row, size, rid))
                    continue
                token_ranks = sorted(ranks.get(t, unknown) for t in tokens)
                for rank in token_ranks[: self._prefix_length(len(token_ranks))]:
                    out.append((rank, tokens, row, size, rid))
            stage.charge(worker, len(rows) * model.record_touch
                         + len(out) * model.hash_op)
            return out

        assigned = ctx.run_tasks(stage, task, partitions, cached, ids)
        stage.records_in += sum(map(len, partitions))
        stage.records_out += sum(map(len, assigned))
        # Hash-exchange on prefix-token rank.
        return route_exchange(assigned, ctx, f"{self.stage_name}/x-{tag}",
                              by_bucket(ctx.num_partitions), model.hash_op,
                              entry_size)

    # -- phase 3: verification with avoidance ---------------------------------------------

    def _keep_pair(self, rank: int, ranks1: list, ranks2: list) -> bool:
        """Duplicate avoidance: emit only from the smallest shared prefix
        rank of the pair (the canonical bucket)."""
        p1 = set(ranks1[: self._prefix_length(len(ranks1))])
        p2 = set(ranks2[: self._prefix_length(len(ranks2))])
        shared = p1 & p2
        return bool(shared) and rank == min(shared)

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        left_schema, left = self.left.rows(ctx)
        right_schema, right = self.right.rows(ctx)
        out_schema = left_schema.concat(right_schema)

        counts = Counter()
        # Keys are read off the value tuples, as FUDJ's key column is.
        left_key = row_function(self.left_key, left_schema)
        right_key = row_function(self.right_key, right_schema)
        left_cached = self._count_tokens(left, left_key, counts, ctx, "left")
        right_cached = self._count_tokens(right, right_key, counts, ctx, "right")
        ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
        ranks = {token: rank for rank, (token, _) in enumerate(ordered)}

        left_ids, right_ids = row_ids(left, right)
        left_parts = self._replicate(left, left_cached, left_ids, ranks, ctx,
                                     "left")
        right_parts = self._replicate(right, right_cached, right_ids, ranks,
                                      ctx, "right")

        stage = ctx.metrics.stage(f"{self.stage_name}/join")
        model = ctx.cost_model
        unknown = len(ranks)

        def task(worker, left_entries, right_entries):
            # The left side is resident: the accountant prices it and,
            # under a memory budget, spills and replays what does not fit.
            build = ctx.admit(stage, worker, left_entries, EntrySpillCodec(
                lambda row: tokenize(left_key(row))))
            buckets = defaultdict(list)
            for entry in build:
                buckets[entry[0]].append((entry[1], entry[2]))
            rows = []
            verified = 0
            verify_units = 0.0
            for entry in right_entries:
                rank, tokens2, row2 = entry[0], entry[1], entry[2]
                for tokens1, row1 in buckets.get(rank, ()):
                    verified += 1
                    inter = len(tokens1 & tokens2)
                    union = len(tokens1) + len(tokens2) - inter
                    similarity = 1.0 if union == 0 else inter / union
                    matched = similarity >= self.threshold
                    verify_units += model.predicate_units(
                        model.expensive_predicate, matched
                    )
                    if not matched:
                        continue
                    if rank != -1:
                        ranks1 = sorted(ranks.get(t, unknown) for t in tokens1)
                        ranks2 = sorted(ranks.get(t, unknown) for t in tokens2)
                        if not self._keep_pair(rank, ranks1, ranks2):
                            continue
                    rows.append(Record(out_schema, row1 + row2))
            stage.charge(worker, verify_units)
            ctx.metrics.comparisons += verified
            return rows

        out = ctx.run_tasks(stage, task, left_parts, right_parts,
                            input_bytes=partial(restore_bytes, ctx))
        stage.records_out += sum(map(len, out))
        result = OperatorResult(out, out_schema)
        ctx.metrics.output_records = len(result)
        return result
