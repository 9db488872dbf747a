"""Built-in text-similarity join operator (hand-written baseline).

The prefix-filtered set-similarity join as a dedicated operator, the way
the AsterixDB similarity work implemented it: global token-frequency
summary, rank-ordered prefix replication, bucket-id hash exchange, exact
Jaccard verification, and first-common-prefix-token duplicate avoidance.
It tokenizes each record once and carries the token set alongside it;
the FUDJ version does the same through ``FlexibleJoin.prepare``, so what
separates the two is the framework's callbacks and the translation
layer, not repeated tokenization.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.engine.context import ExecutionContext
from repro.engine.operators.base import OperatorResult, PhysicalOperator
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

    def _count_tokens(self, result: OperatorResult, key_fn, counts: dict,
                      ctx: ExecutionContext, tag: str) -> list:
        """Count tokens into ``counts`` and return per-partition token-set
        caches so later phases never re-tokenize."""
        stage = ctx.metrics.stage(f"{self.stage_name}/count-{tag}")
        model = ctx.cost_model
        cached = []
        for worker, partition in enumerate(result.partitions):
            rows = []
            for record in partition:
                tokens = tokenize(key_fn(record))
                for token in tokens:
                    counts[token] = counts.get(token, 0) + 1
                rows.append((tokens, record))
            stage.charge(worker, len(partition) * (model.record_touch + model.hash_op))
            cached.append(rows)
        stage.network_bytes += 128 * max(0, ctx.num_partitions - 1)
        return cached

    # -- phase 2: prefix replication ---------------------------------------------------

    def _prefix_length(self, size: int) -> int:
        if size <= 0:
            return 0
        p = size - math.ceil(self.threshold * size) + 1
        return max(0, min(size, p))

    def _replicate(self, cached: list, ranks: dict, ctx: ExecutionContext,
                   tag: str) -> list:
        stage = ctx.metrics.stage(f"{self.stage_name}/prefix-{tag}")
        model = ctx.cost_model
        unknown = len(ranks)
        assigned = []
        for worker, rows in enumerate(cached):
            out = []
            replicas = 0
            for tokens, record in rows:
                if not tokens:
                    out.append((-1, tokens, record))
                    replicas += 1
                    continue
                token_ranks = sorted(ranks.get(token, unknown) for token in tokens)
                prefix = token_ranks[: self._prefix_length(len(token_ranks))]
                replicas += len(prefix)
                for rank in prefix:
                    out.append((rank, tokens, record))
            stage.charge(
                worker,
                len(rows) * model.record_touch + replicas * model.hash_op,
            )
            stage.records_in += len(rows)
            stage.records_out += len(out)
            assigned.append(out)
        # Hash-exchange on prefix-token rank.
        xstage = ctx.metrics.stage(f"{self.stage_name}/x-{tag}")
        parts = [[] for _ in range(ctx.num_partitions)]
        for worker, entries in enumerate(assigned):
            moved_bytes = 0
            for entry in entries:
                target = hash(entry[0]) % ctx.num_partitions
                parts[target].append(entry)
                if target != worker:
                    moved_bytes += 9 + entry[2].serialized_size()
                xstage.charge(worker, model.hash_op)
            xstage.network_bytes += moved_bytes
            xstage.charge(worker, moved_bytes * model.serde_byte)
        return parts

    # -- phase 3: verification with avoidance ---------------------------------------------

    def _keep_pair(self, rank: int, ranks1: list, ranks2: list) -> bool:
        """Duplicate avoidance: emit only from the smallest shared prefix
        rank of the pair (the canonical bucket)."""
        p1 = set(ranks1[: self._prefix_length(len(ranks1))])
        p2 = set(ranks2[: self._prefix_length(len(ranks2))])
        shared = p1 & p2
        return bool(shared) and rank == min(shared)

    def run(self, ctx: ExecutionContext) -> OperatorResult:
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        out_schema = left.schema.concat(right.schema)

        counts = {}
        left_cached = self._count_tokens(left, self.left_key, counts, ctx, "left")
        right_cached = self._count_tokens(right, self.right_key, counts, ctx, "right")
        ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
        ranks = {token: rank for rank, (token, _) in enumerate(ordered)}

        left_parts = self._replicate(left_cached, ranks, ctx, "left")
        right_parts = self._replicate(right_cached, ranks, ctx, "right")

        stage = ctx.metrics.stage(f"{self.stage_name}/join")
        model = ctx.cost_model
        unknown = len(ranks)
        out = []
        for worker in range(ctx.num_partitions):
            buckets = defaultdict(list)
            for rank, tokens, record in left_parts[worker]:
                buckets[rank].append((tokens, record))
            rows = []
            verified = 0
            verify_units = 0.0
            for rank, tokens2, record2 in right_parts[worker]:
                for tokens1, record1 in buckets.get(rank, ()):
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
                    rows.append(record1.concat(record2, out_schema))
            stage.charge(worker, verify_units)
            ctx.metrics.comparisons += verified
            stage.records_out += len(rows)
            out.append(rows)
        result = OperatorResult(out, out_schema)
        ctx.metrics.output_records = len(result)
        return result
