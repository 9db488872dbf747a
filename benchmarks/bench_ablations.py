"""Ablation studies for the design choices DESIGN.md calls out.

Beyond the paper's own figures, these benches isolate individual design
decisions:

- **Theta plan**: broadcast bucket matching (the paper's §VII-C status
  quo) vs the partitioned theta join it plans as future work.
- **Local join hook**: all-pairs per-tile verification vs the
  ``local_join`` plane-sweep override — does the FUDJ hook close the
  Fig 12c gap to the hand-written advanced operator?
- **Auto bucket tuning**: the SUMMARIZE-statistics grid chooser vs the
  full Fig 11a sweep.
- **Self-join summarize-once** (§VI-C): one summary pass vs two.
- **Hash-join selection** (§VI-C): the default-``match`` fast path vs
  the same join forced onto the theta plan.
"""

import pytest

from repro.bench import (
    INTERVAL_SQL,
    SPATIAL_SQL,
    format_table,
    interval_database,
    spatial_database,
    text_database,
)
from repro.bench.harness import run_query
from repro.joins import (
    AutoTuneSpatialJoin,
    IntervalJoin,
    PartitionedIntervalJoin,
    PlaneSweepSpatialJoin,
    SortMergeIntervalJoin,
    TextSimilarityJoin,
)

CORES = 12


class TestThetaPlanAblation:
    CORE_COUNTS = (12, 48, 96, 144)

    def test_partitioned_theta_restores_scaling(self, report, benchmark):
        rows = []
        curves = {}
        network = {}
        for join_class, label in ((IntervalJoin, "broadcast"),
                                  (PartitionedIntervalJoin, "partitioned"),
                                  (SortMergeIntervalJoin, "sort-merge")):
            curves[label] = {}
            network[label] = {}
            for cores in self.CORE_COUNTS:
                db = interval_database(3000, partitions=cores,
                                       num_buckets=200, seed=1)
                db.drop_join("overlapping_interval")
                db.create_join("overlapping_interval", join_class,
                               defaults=(200,))
                row = run_query(db, INTERVAL_SQL, "fudj", cores=(cores,))
                curves[label][cores] = row[f"sim_{cores}c"]
                network[label][cores] = row["network_bytes"]
                rows.append([label, cores, row[f"sim_{cores}c"],
                             int(row["network_bytes"])])
        report("ablation_theta_plan", format_table(
            ["plan", "cores", "sim s", "network bytes"],
            rows,
            title="Ablation: broadcast theta plan vs partitioned theta join "
                  "(interval, SVIII future work)",
        ))
        # The operator's durable advantage at laptop scale is *traffic*:
        # broadcast replication grows linearly with the cluster while the
        # partitioned plan's routing stays near-constant.  (At the paper's
        # data sizes — an 86M-record broadcast side — that traffic gap is
        # also the time gap; here the broadcast is small enough that range
        # skew in the partitioned plan eats most of the CPU win.)
        assert network["partitioned"][144] < network["broadcast"][144] / 10
        assert (network["partitioned"][144]
                < 2 * network["partitioned"][12])  # near-constant
        assert (network["broadcast"][144]
                > 8 * network["broadcast"][12])  # grows with the cluster
        # CPU-wise it stays competitive at every scale (range partitioning
        # inherits the data's temporal skew — rush-hour granules are hot —
        # so the win is in traffic and scaling trend, not a flat speedup).
        for cores in self.CORE_COUNTS:
            assert curves["partitioned"][cores] <= 1.6 * curves["broadcast"][cores]
        # Sort-merge adds the local-algorithm win on top of partitioning.
        for cores in self.CORE_COUNTS:
            assert curves["sort-merge"][cores] <= curves["partitioned"][cores]
        benchmark(lambda: None)


class TestLocalJoinAblation:
    def test_plane_sweep_hook_closes_the_gap(self, report, benchmark):
        size = 6000
        default_db = spatial_database(size // 10, size, partitions=8,
                                      grid_n=32, seed=2)
        sweep_db = spatial_database(size // 10, size, partitions=8,
                                    grid_n=32, seed=2)
        sweep_db.drop_join("st_contains")
        sweep_db.create_join("st_contains", PlaneSweepSpatialJoin,
                             defaults=(32,))
        advanced_db = spatial_database(size // 10, size, partitions=8,
                                       grid_n=32, seed=2, plane_sweep=True)

        default = run_query(default_db, SPATIAL_SQL, "fudj", cores=(CORES,))
        hooked = run_query(sweep_db, SPATIAL_SQL, "fudj", cores=(CORES,))
        advanced = run_query(advanced_db, SPATIAL_SQL, "builtin",
                             cores=(CORES,))
        assert sorted(map(repr, default["result"].rows)) == sorted(
            map(repr, hooked["result"].rows)
        )
        rows = [
            ["FUDJ default", default[f"sim_{CORES}c"], default["comparisons"]],
            ["FUDJ + local_join sweep", hooked[f"sim_{CORES}c"],
             hooked["comparisons"]],
            ["advanced built-in", advanced[f"sim_{CORES}c"],
             advanced["comparisons"]],
        ]
        report("ablation_local_join", format_table(
            ["implementation", "sim s", "pair tests"],
            rows,
            title="Ablation: the local_join hook vs the hand-written "
                  "plane-sweep operator (spatial)",
        ))
        # The hook must beat the default and land near the advanced
        # operator (closing most of the Fig 12c gap).
        assert hooked[f"sim_{CORES}c"] < default[f"sim_{CORES}c"]
        assert hooked[f"sim_{CORES}c"] < 1.5 * advanced[f"sim_{CORES}c"]
        benchmark(lambda: None)


class TestAutoTuneAblation:
    def test_autotune_near_best_swept_grid(self, report, benchmark):
        times = {}
        rows = []
        for n in (4, 12, 32, 64, 128):
            db = spatial_database(400, 5000, partitions=8, grid_n=n, seed=3)
            row = run_query(db, SPATIAL_SQL, "fudj", cores=(CORES,))
            times[n] = row[f"sim_{CORES}c"]
            rows.append([f"n={n}", row[f"sim_{CORES}c"]])
        auto_db = spatial_database(400, 5000, partitions=8, seed=3)
        auto_db.drop_join("st_contains")
        auto_db.create_join("st_contains", AutoTuneSpatialJoin)
        auto = run_query(auto_db, SPATIAL_SQL, "fudj", cores=(CORES,))
        rows.append(["auto-tuned", auto[f"sim_{CORES}c"]])
        report("ablation_autotune", format_table(
            ["grid", "sim s"],
            rows,
            title="Ablation: SUMMARIZE-statistics grid tuning vs the "
                  "Fig 11a sweep (spatial)",
        ))
        best = min(times.values())
        assert auto[f"sim_{CORES}c"] < 2 * best
        benchmark(lambda: None)


class TestSelfJoinAblation:
    def test_summarize_once_halves_summary_work(self, report, benchmark):
        # A bare self-join triggers summarize-once; loading the same rows
        # into a second dataset defeats the detection, so both sides are
        # summarized.  Compare the summarize-stage work.
        from repro.database import Database
        from repro.datagen import generate_reviews

        rows_data = generate_reviews(1500, seed=4)
        db = Database(num_partitions=8)
        db.create_type("ReviewType", [("id", "int"), ("overall", "int"),
                                      ("review", "text")])
        db.create_dataset("AmazonReview", "ReviewType", "id")
        db.load("AmazonReview", rows_data)
        db.create_dataset("ReviewClone", "ReviewType", "id")
        db.load("ReviewClone", rows_data)
        db.create_join("similarity_jaccard", TextSimilarityJoin)

        self_sql = ("SELECT COUNT(1) AS c FROM AmazonReview r1, AmazonReview r2 "
                    "WHERE similarity_jaccard(r1.review, r2.review) >= 0.9")
        two_sql = ("SELECT COUNT(1) AS c FROM AmazonReview r1, ReviewClone r2 "
                   "WHERE similarity_jaccard(r1.review, r2.review) >= 0.9")
        self_run = db.execute(self_sql, mode="fudj")
        two_run = db.execute(two_sql, mode="fudj")
        assert self_run.rows == two_run.rows

        def summarize_units(metrics):
            return sum(s.total_units() for s in metrics.stages
                       if "summarize" in s.name)

        once = summarize_units(self_run.metrics)
        twice = summarize_units(two_run.metrics)
        report("ablation_self_join", format_table(
            ["plan", "summarize work units"],
            [["summarize once (self-join)", once],
             ["summarize both sides", twice]],
            title="Ablation: the SVI-C self-join summarize-once optimization "
                  "(text self-join, 1500 reviews)",
        ))
        assert once < 0.7 * twice
        benchmark(lambda: None)


class ForcedThetaTextJoin(TextSimilarityJoin):
    """Identical semantics, but ``match`` is *overridden* (even though it
    is still equality) — the optimizer can no longer prove single-join,
    so the broadcast theta plan runs.  This isolates the value of the
    hash-join selection rule in SVI-C."""

    name = "text-forced-theta"

    def match(self, bucket_id1, bucket_id2):
        return bucket_id1 == bucket_id2


class TestHashJoinSelectionAblation:
    def test_default_match_enables_hash_plan(self, report, benchmark):
        sql = ("SELECT COUNT(1) AS c FROM AmazonReview r1, AmazonReview r2 "
               "WHERE r1.overall = 5 AND r2.overall = 4 AND "
               "similarity_jaccard(r1.review, r2.review) >= 0.9")
        hash_db = text_database(2000, partitions=8, seed=5)
        theta_db = text_database(2000, partitions=8, seed=5)
        theta_db.drop_join("similarity_jaccard")
        theta_db.create_join("similarity_jaccard", ForcedThetaTextJoin)

        hash_run = run_query(hash_db, sql, "fudj", cores=(CORES,))
        theta_run = run_query(theta_db, sql, "fudj", cores=(CORES,))
        assert hash_run["result"].rows == theta_run["result"].rows
        report("ablation_hash_selection", format_table(
            ["plan", "sim s", "network bytes"],
            [["hash join (default match)", hash_run[f"sim_{CORES}c"],
              int(hash_run["network_bytes"])],
             ["theta fallback (match overridden)", theta_run[f"sim_{CORES}c"],
              int(theta_run["network_bytes"])]],
            title="Ablation: SVI-C hash-join selection for default-match "
                  "FUDJs (text, t=0.9)",
        ))
        assert hash_run[f"sim_{CORES}c"] < theta_run[f"sim_{CORES}c"] / 2
        benchmark(lambda: None)


class TestSampledSummarizeAblation:
    def test_sampling_cuts_summarize_cost_not_results(self, report, benchmark):
        db = spatial_database(600, 6000, partitions=8, grid_n=32, seed=6)
        rows = []
        baseline_rows = None
        baseline_units = None
        for fraction in (1.0, 0.5, 0.1, 0.02):
            result = db.execute(SPATIAL_SQL, mode="fudj",
                                summarize_sample=fraction)
            units = sum(stage.total_units() for stage in result.metrics.stages
                        if "summarize" in stage.name)
            if baseline_rows is None:
                baseline_rows = sorted(map(repr, result.rows))
                baseline_units = units
            else:
                assert sorted(map(repr, result.rows)) == baseline_rows
            rows.append([fraction, units,
                         result.metrics.simulated_seconds(CORES)])
        report("ablation_sampled_summarize", format_table(
            ["sample fraction", "summarize units", "total sim s"],
            rows,
            title="Ablation: sampled SUMMARIZE (statistics cost knob) - "
                  "identical answers, proportionally cheaper summaries",
        ))
        sampled_units = rows[-1][1]
        assert sampled_units < 0.1 * baseline_units
        benchmark(lambda: None)
