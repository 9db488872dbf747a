"""Hand-written built-in join operators (the paper's comparison baseline).

These implement the same three algorithms as :mod:`repro.joins`, but the
way a DBMS developer would: as dedicated physical operators wired straight
into the engine, reading engine values natively (no FUDJ translation
layer) and fusing the summarize/assign/combine phases.  They are the
"Built-in" series of Figures 9/10/12 and the right-hand column of
Table II.  What they share with FUDJ is the engine, as every operator
does: its exchanges, its task loop with fault recovery and its memory
accountant, so the two are compared like with like.  What they do not
share is the FUDJ framework — its callbacks, translator and generic plan
— since the paper's productivity claim is precisely that each of these
takes ~10x more code than its FUDJ twin.

``install_builtin_joins(db)`` registers the operator factories with a
:class:`~repro.database.Database` so that ``mode="builtin"`` queries use
them.
"""

from repro.builtin.spatial_operator import (
    AdvancedSpatialJoinOperator,
    BuiltinSpatialJoinOperator,
)
from repro.builtin.interval_operator import BuiltinIntervalJoinOperator
from repro.builtin.text_operator import BuiltinTextSimilarityJoinOperator


def install_builtin_joins(db, spatial_n: int = 64, interval_buckets: int = 100,
                          plane_sweep: bool = False) -> None:
    """Register built-in operator factories for the paper's three joins.

    Factories match the names the FUDJ experiments register
    (``st_contains``, ``st_intersects``, ``overlapping_interval``,
    ``similarity_jaccard``), so the same SQL runs in all three modes.

    Args:
        db: the Database to install into.
        spatial_n: grid size for the spatial operators.
        interval_buckets: timeline granule count for the interval operator.
        plane_sweep: use the advanced plane-sweep spatial operator
            (paper §VII-F) instead of the per-tile nested verification.
    """
    spatial_cls = (
        AdvancedSpatialJoinOperator if plane_sweep else BuiltinSpatialJoinOperator
    )

    def spatial_contains(left, right, lkey, rkey, params):
        n = int(params[0]) if params else spatial_n
        return spatial_cls(left, right, lkey, rkey, n=n, predicate="contains")

    def spatial_intersects(left, right, lkey, rkey, params):
        n = int(params[0]) if params else spatial_n
        return spatial_cls(left, right, lkey, rkey, n=n, predicate="intersects")

    def interval(left, right, lkey, rkey, params):
        n = int(params[0]) if params else interval_buckets
        return BuiltinIntervalJoinOperator(left, right, lkey, rkey, num_buckets=n)

    def text(left, right, lkey, rkey, params):
        threshold = float(params[0]) if params else 0.9
        return BuiltinTextSimilarityJoinOperator(
            left, right, lkey, rkey, threshold=threshold
        )

    db.register_builtin_join("st_contains", spatial_contains)
    db.register_builtin_join("st_intersects", spatial_intersects)
    db.register_builtin_join("overlapping_interval", interval)
    db.register_builtin_join("interval_overlapping", interval)
    db.register_builtin_join("similarity_jaccard", text)
    db.register_builtin_join("jaccard_similarity", text)


__all__ = [
    "BuiltinSpatialJoinOperator",
    "AdvancedSpatialJoinOperator",
    "BuiltinIntervalJoinOperator",
    "BuiltinTextSimilarityJoinOperator",
    "install_builtin_joins",
]
