"""Tests for the Text-Similarity FUDJ library (prefix filter, paper §V-B)."""

import random

import pytest

from repro.core import DuplicateElimination, JoinSide, StandaloneRunner
from repro.joins import TextSimilarityJoin
from repro.text import jaccard_similarity, tokenize

VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
         "theta", "iota", "kappa", "lam", "mu"]


def random_texts(rng, count, min_len=2, max_len=6):
    return [
        " ".join(rng.sample(VOCAB, rng.randint(min_len, max_len)))
        for _ in range(count)
    ]


class TestPhases:
    """The callbacks take what ``prepare`` returns: the token set."""

    def test_prepare_tokenizes(self):
        join = TextSimilarityJoin(0.8)
        assert join.prepares()
        assert join.prepare("b a B", JoinSide.LEFT) == tokenize("a b")

    def test_summarize_counts_tokens(self):
        join = TextSimilarityJoin(0.8)
        summary = join.local_aggregate(tokenize("a b"), None, JoinSide.LEFT)
        summary = join.local_aggregate(tokenize("b c"), summary,
                                       JoinSide.LEFT)
        assert summary == {"a": 1, "b": 2, "c": 1}

    def test_global_aggregate_merges(self):
        join = TextSimilarityJoin(0.8)
        merged = join.global_aggregate({"a": 1}, {"a": 2, "b": 1}, JoinSide.LEFT)
        assert merged == {"a": 3, "b": 1}

    def test_divide_ranks_rarest_first(self):
        join = TextSimilarityJoin(0.8)
        pplan = join.divide({"common": 10, "rare": 1, "mid": 5}, {})
        assert pplan.token_ranks["rare"] == 0
        assert pplan.token_ranks["mid"] == 1
        assert pplan.token_ranks["common"] == 2

    def test_divide_deterministic_tie_break(self):
        join = TextSimilarityJoin(0.8)
        a = join.divide({"x": 2, "y": 2}, {})
        b = join.divide({"y": 2, "x": 2}, {})
        assert a.token_ranks == b.token_ranks

    def test_assign_emits_prefix_buckets(self):
        join = TextSimilarityJoin(0.9)
        counts = {f"t{i}": i + 1 for i in range(10)}
        pplan = join.divide(counts, {})
        text = " ".join(f"t{i}" for i in range(10))
        ids = join.assign(tokenize(text), pplan, JoinSide.LEFT)
        # l=10, t=0.9 -> p=2 buckets, the two rarest tokens.
        assert ids == [0, 1]

    def test_empty_text_gets_reserved_bucket(self):
        join = TextSimilarityJoin(0.9)
        pplan = join.divide({"a": 1}, {})
        assert join.assign(tokenize(""), pplan, JoinSide.LEFT) == [-1]

    def test_verify_threshold(self):
        join = TextSimilarityJoin(0.5)
        pplan = join.divide({"a": 1, "b": 1, "c": 1}, {})
        assert join.verify(tokenize("a b"), tokenize("a b"), pplan)
        assert not join.verify(tokenize("a b"), tokenize("c"), pplan)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            TextSimilarityJoin(0.0)
        with pytest.raises(ValueError):
            TextSimilarityJoin(1.5)


class TestAgainstGroundTruth:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_matches_nested_loop(self, threshold):
        rng = random.Random(int(threshold * 100))
        left = random_texts(rng, 50)
        right = random_texts(rng, 50)
        runner = StandaloneRunner(TextSimilarityJoin(threshold))
        got = sorted(runner.run(left, right))
        expected = sorted(runner.run_nested_loop(left, right))
        assert got == expected

    def test_empty_texts_join_each_other(self):
        runner = StandaloneRunner(TextSimilarityJoin(0.9))
        assert runner.run([""], ["", "alpha"]) == [("", "")]

    def test_identical_texts_always_join(self):
        runner = StandaloneRunner(TextSimilarityJoin(1.0))
        assert runner.run(["alpha beta"], ["beta alpha"]) == [
            ("alpha beta", "beta alpha")
        ]

    def test_elimination_same_result(self):
        rng = random.Random(31)
        left = random_texts(rng, 40)
        right = random_texts(rng, 40)
        avoid = StandaloneRunner(TextSimilarityJoin(0.5))
        elim = StandaloneRunner(TextSimilarityJoin(0.5),
                                dedup=DuplicateElimination())
        assert sorted(avoid.run(left, right)) == sorted(elim.run(left, right))

    def test_prefix_filter_prunes(self):
        # At t=0.9 most pairs should be pruned before verification.
        rng = random.Random(17)
        left = random_texts(rng, 60, 4, 6)
        right = random_texts(rng, 60, 4, 6)
        runner = StandaloneRunner(TextSimilarityJoin(0.9), trace=True)
        runner.run(left, right)
        assert runner.stats["verify_calls"] < 60 * 60 / 2
