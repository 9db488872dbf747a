"""Text-similarity analysis: how similar are 5-star and 4-star reviews?

The paper's text-similarity experiment query (Query 5) over the synthetic
Amazon-like reviews, swept across similarity thresholds — showing how the
prefix filter loses its bite as the threshold drops (paper Fig 11c), and
comparing the two duplicate-handling strategies (paper Fig 12a).

Run:  python examples/similar_reviews.py
"""

from repro.bench import TEXT_SQL, format_table, text_database
from repro.bench.harness import run_query

db = text_database(num_reviews=1200, partitions=8)

print("Similar review pairs across ratings (5-star vs 4-star)\n")

rows = []
for threshold in (0.99, 0.9, 0.8, 0.7, 0.6, 0.5):
    sql = TEXT_SQL.format(threshold=threshold)
    row = run_query(db, sql, "fudj", cores=(12,))
    rows.append([
        threshold,
        row["result"].rows[0]["c"],
        row["comparisons"],
        row["sim_12c"],
    ])

print(format_table(
    ["threshold", "similar pairs", "verifications", "simulated s"],
    rows,
    title="Threshold sweep (FUDJ plan) — lower thresholds verify far more pairs",
))

print("\nDuplicate handling at t=0.8 (paper Fig 12a):")
sql = TEXT_SQL.format(threshold=0.8)
strategy_rows = []
for dedup in ("avoidance", "elimination"):
    row = run_query(db, sql, "fudj", dedup=dedup, cores=(12,))
    strategy_rows.append([
        dedup, row["sim_12c"], row["network_bytes"], row["result"].rows[0]["c"],
    ])
print(format_table(
    ["strategy", "simulated s", "bytes shuffled", "pairs"],
    strategy_rows,
))
print("\nAvoidance needs no post-join shuffle, which is why the paper "
      "makes it the default.")
