"""Text-Similarity FUDJ with prefix filtering (paper §V-B).

``prepare`` tokenizes each text once, so every other callback receives
the token set.  SUMMARIZE counts token occurrences per side; DIVIDE merges
the counts and ranks tokens from rarest to most common; ASSIGN maps a
record's tokens to global ranks and emits the first ``p`` ranks of the
sorted list, where ``p = l - ceil(t*l) + 1`` is the prefix-filter length —
two texts with Jaccard >= t are guaranteed to share a bucket.  The default
equality MATCH applies (single-join), and VERIFY computes exact Jaccard
similarity against the threshold.
"""

from __future__ import annotations

from repro.core.flexible_join import FlexibleJoin, JoinSide
from repro.text import jaccard_similarity, prefix_length, tokenize

#: Bucket for empty token sets; real token ranks are >= 0, so -1 is free.
#: Without it, two empty texts (Jaccard 1.0) would never meet.
_EMPTY_BUCKET = -1


class TextPPlan:
    """Global token ranking plus the similarity threshold."""

    __slots__ = ("token_ranks", "threshold")

    def __init__(self, token_ranks: dict, threshold: float) -> None:
        self.token_ranks = token_ranks
        self.threshold = threshold


class TextSimilarityJoin(FlexibleJoin):
    """Prefix-filtered Jaccard set-similarity join over texts.

    The constructor parameter is the similarity threshold ``t`` (Fig 11c
    sweeps it; the paper's headline experiments use 0.9).
    """

    name = "text-similarity"

    def __init__(self, threshold: float = 0.9) -> None:
        super().__init__(threshold)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = float(threshold)

    def prepare(self, text, side: JoinSide) -> frozenset:
        return tokenize(text)

    def local_aggregate(self, tokens, summary, side: JoinSide) -> dict:
        if summary is None:
            summary = {}
        for token in tokens:
            summary[token] = summary.get(token, 0) + 1
        return summary

    def global_aggregate(self, summary1, summary2, side: JoinSide) -> dict:
        if summary1 is None:
            return summary2
        if summary2 is None:
            return summary1
        for token, count in summary2.items():
            summary1[token] = summary1.get(token, 0) + count
        return summary1

    def divide(self, summary1, summary2) -> TextPPlan:
        counts = dict(summary1 or {})
        for token, count in (summary2 or {}).items():
            if summary2 is not summary1:
                counts[token] = counts.get(token, 0) + count
        # Rarest token gets rank 0; ties break on the token itself so the
        # ranking is deterministic across runs and workers.
        ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
        token_ranks = {token: rank for rank, (token, _) in enumerate(ordered)}
        return TextPPlan(token_ranks, self.threshold)

    def assign(self, tokens, pplan: TextPPlan, side: JoinSide) -> list:
        if not tokens:
            return [_EMPTY_BUCKET]
        # Tokens always appear in the summary when summarize ran over the
        # same input; the fallback keeps assign total if it did not.
        unknown = len(pplan.token_ranks)
        ranks = sorted(pplan.token_ranks.get(token, unknown) for token in tokens)
        p = prefix_length(len(ranks), pplan.threshold)
        return ranks[:p]

    def verify(self, tokens1, tokens2, pplan) -> bool:
        return jaccard_similarity(tokens1, tokens2) >= pplan.threshold
