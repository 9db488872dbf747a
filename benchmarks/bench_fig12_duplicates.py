"""Figure 12 reproduction: duplicate handling and local join optimization.

- Fig 12a: Duplicate Avoidance vs Duplicate Elimination on the text join,
  sweeping data size.  Avoidance wins (paper: ~1.15x) because elimination
  adds a post-join shuffle.
- Fig 12b: FUDJ's default avoidance vs the developer-supplied
  Reference-Point method on the spatial join, sweeping bucket count.
  They are comparable ("not any notable difference").
- Fig 12c: Spatial FUDJ vs the advanced built-in operator with local
  plane-sweep (paper: ~1.38x for the operator).
"""

import pytest

from repro.bench import (
    SPATIAL_SQL,
    TEXT_SQL,
    format_table,
    spatial_database,
    text_database,
)
from repro.bench.harness import run_query

CORES = 12


class TestFig12aAvoidanceVsElimination:
    SIZES = (500, 1000, 2000, 4000)

    def test_strategy_sweep(self, report, benchmark):
        sql = TEXT_SQL.format(threshold=0.9)
        rows = []
        ratios = []
        for size in self.SIZES:
            db = text_database(size, partitions=8, seed=size)
            avoid = run_query(db, sql, "fudj", dedup="avoidance",
                              cores=(CORES,))
            elim = run_query(db, sql, "fudj", dedup="elimination",
                             cores=(CORES,))
            assert avoid["result"].rows == elim["result"].rows
            ratio = elim[f"sim_{CORES}c"] / avoid[f"sim_{CORES}c"]
            ratios.append(ratio)
            rows.append([
                size, avoid[f"sim_{CORES}c"], elim[f"sim_{CORES}c"],
                f"{ratio:.2f}x",
                int(elim["network_bytes"] - avoid["network_bytes"]),
            ])
        report("fig12a_dedup_strategies", format_table(
            ["records", "avoidance s", "elimination s", "elim/avoid",
             "extra shuffle bytes"],
            rows,
            title="Figure 12a (reproduced): duplicate avoidance vs elimination "
                  "(text-similarity, t=0.9)",
        ))
        average = sum(ratios) / len(ratios)
        # Paper: avoidance ~1.15x faster on average; require >= 1.02x and
        # never slower.
        assert average > 1.02
        assert all(r >= 0.99 for r in ratios)
        benchmark(lambda: None)


class TestFig12bReferencePoint:
    #: The paper sweeps roughly 1000-2000 buckets; grid sizes 32-90 give
    #: 1024-8100 buckets.  (At very coarse grids the two methods genuinely
    #: diverge: the reference-point dedup embeds an MBR-intersection test,
    #: so it skips disjoint co-bucketed pairs that the default avoidance
    #: still verifies.)
    GRID_SIZES = (32, 45, 64, 90)

    def test_reference_point_vs_default(self, report, benchmark):
        rows = []
        for n in self.GRID_SIZES:
            default_db = spatial_database(300, 3000, partitions=8, grid_n=n,
                                          seed=14)
            refpoint_db = spatial_database(300, 3000, partitions=8, grid_n=n,
                                           seed=14, reference_point=True)
            default = run_query(default_db, SPATIAL_SQL, "fudj", cores=(CORES,))
            refpoint = run_query(refpoint_db, SPATIAL_SQL, "fudj",
                                 cores=(CORES,))
            assert sorted(map(repr, default["result"].rows)) == sorted(
                map(repr, refpoint["result"].rows)
            )
            rows.append([
                n * n, default[f"sim_{CORES}c"], refpoint[f"sim_{CORES}c"],
                f"{default[f'sim_{CORES}c'] / refpoint[f'sim_{CORES}c']:.2f}x",
            ])
        report("fig12b_reference_point", format_table(
            ["buckets", "FUDJ default s", "reference point s", "default/refpoint"],
            rows,
            title="Figure 12b (reproduced): FUDJ default avoidance vs the "
                  "reference-point method (spatial)",
        ))
        # Paper: "not any notable difference" — within 1.5x either way at
        # every bucket count in the paper's range.
        for _, default_s, refpoint_s, _ in rows:
            assert 2 / 3 < default_s / refpoint_s < 1.5
        benchmark(lambda: None)


class TestFig12cLocalOptimization:
    def test_plane_sweep_operator(self, report, benchmark):
        rows = []
        speedups = []
        for size in (2000, 4000, 8000):
            fudj_db = spatial_database(size // 10, size, partitions=8,
                                       grid_n=32, seed=15)
            sweep_db = spatial_database(size // 10, size, partitions=8,
                                        grid_n=32, seed=15, plane_sweep=True)
            fudj = run_query(fudj_db, SPATIAL_SQL, "fudj", cores=(CORES,))
            advanced = run_query(sweep_db, SPATIAL_SQL, "builtin",
                                 cores=(CORES,))
            assert sorted(map(repr, fudj["result"].rows)) == sorted(
                map(repr, advanced["result"].rows)
            )
            speedup = fudj[f"sim_{CORES}c"] / advanced[f"sim_{CORES}c"]
            speedups.append(speedup)
            rows.append([
                size, fudj[f"sim_{CORES}c"], advanced[f"sim_{CORES}c"],
                f"{speedup:.2f}x",
                fudj["comparisons"], advanced["comparisons"],
            ])
        report("fig12c_plane_sweep", format_table(
            ["records", "Spatial FUDJ s", "Adv. operator s", "speed-up",
             "FUDJ pair tests", "sweep pair tests"],
            rows,
            title="Figure 12c (reproduced): Spatial FUDJ vs advanced "
                  "plane-sweep operator",
        ))
        average = sum(speedups) / len(speedups)
        # Paper: ~1.38x average advantage for the locally-optimized
        # operator; require a clear (>= 1.1x) advantage here.
        assert average > 1.1
        benchmark(lambda: None)
