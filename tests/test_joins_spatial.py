"""Tests for the Spatial FUDJ library (PBSM, paper §V-A)."""

import random

import pytest

from repro.core import JoinSide
from repro.core.contract import check_library
from repro.geometry import Point, Polygon, Rectangle, contains, intersects
from repro.joins import ReferencePointSpatialJoin, SpatialContainsJoin, SpatialJoin


def random_rect(rng, extent=100.0, max_size=10.0):
    x = rng.uniform(0, extent)
    y = rng.uniform(0, extent)
    return Rectangle(x, y, x + rng.uniform(0, max_size), y + rng.uniform(0, max_size))


def random_point(rng, extent=100.0):
    return Point(rng.uniform(0, extent), rng.uniform(0, extent))


class TestPhases:
    def test_summarize_unions_mbrs(self):
        join = SpatialJoin(4)
        summary = None
        for geom in (Rectangle(0, 0, 1, 1), Rectangle(5, 5, 6, 6)):
            summary = join.local_aggregate(geom, summary, JoinSide.LEFT)
        assert summary == Rectangle(0, 0, 6, 6)

    def test_global_aggregate_handles_none(self):
        join = SpatialJoin(4)
        r = Rectangle(0, 0, 1, 1)
        assert join.global_aggregate(None, r, JoinSide.LEFT) == r
        assert join.global_aggregate(r, None, JoinSide.LEFT) == r

    def test_divide_uses_intersection(self):
        join = SpatialJoin(4)
        pplan = join.divide(Rectangle(0, 0, 10, 10), Rectangle(5, 5, 20, 20))
        assert pplan.grid.extent == Rectangle(5, 5, 10, 10)
        assert pplan.grid.n == 4

    def test_divide_disjoint_mbrs_gives_empty_plan(self):
        join = SpatialJoin(4)
        pplan = join.divide(Rectangle(0, 0, 1, 1), Rectangle(5, 5, 6, 6))
        assert pplan.grid is None
        assert join.assign(Rectangle(0, 0, 1, 1), pplan, JoinSide.LEFT) == []

    def test_assign_multi_assigns_spanning_geometry(self):
        join = SpatialJoin(4)
        pplan = join.divide(Rectangle(0, 0, 8, 8), Rectangle(0, 0, 8, 8))
        ids = join.assign(Rectangle(1, 1, 7, 7), pplan, JoinSide.LEFT)
        assert len(ids) > 1

    def test_default_match_single_join(self):
        assert SpatialJoin(4).uses_default_match()

    def test_verify_variants(self):
        square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        inner = Point(2, 2)
        assert SpatialJoin(4).verify(square, inner, None) == intersects(square, inner)
        assert SpatialContainsJoin(4).verify(square, inner, None) == contains(
            square, inner
        )


class TestAgainstGroundTruth:
    """Seeded cases of the library contract (tests/test_library_contract.py)."""

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_rect_rect_intersection(self, n):
        rng = random.Random(100 + n)
        left = [random_rect(rng) for _ in range(50)]
        right = [random_rect(rng) for _ in range(50)]
        check_library(SpatialJoin(n), left, right)

    def test_polygon_point_contains(self):
        rng = random.Random(7)
        polygons = [
            Polygon.regular(random_point(rng), rng.uniform(2, 10), rng.randint(3, 8))
            for _ in range(30)
        ]
        points = [random_point(rng) for _ in range(200)]
        check_library(SpatialContainsJoin(8), polygons, points)

    def test_no_results_when_far_apart(self):
        left = [Rectangle(0, 0, 1, 1)]
        right = [Rectangle(100, 100, 101, 101)]
        assert check_library(SpatialJoin(4), left, right) == []

    def test_identical_rectangles(self):
        rect = Rectangle(5, 5, 6, 6)
        assert check_library(SpatialJoin(4), [rect], [rect]) == [(rect, rect)]


class TestReferencePointDedup:
    def test_same_result_as_default(self):
        # Its own dedup against the nested loop and against elimination.
        rng = random.Random(55)
        left = [random_rect(rng, max_size=20) for _ in range(40)]
        right = [random_rect(rng, max_size=20) for _ in range(40)]
        check_library(ReferencePointSpatialJoin(8), left, right)

    def test_emits_from_exactly_one_tile(self):
        join = ReferencePointSpatialJoin(8)
        pplan = join.divide(Rectangle(0, 0, 8, 8), Rectangle(0, 0, 8, 8))
        a = Rectangle(1, 1, 5, 5)
        b = Rectangle(3, 3, 7, 7)
        keep = [
            tile
            for tile in set(join.assign(a, pplan, JoinSide.LEFT))
            & set(join.assign(b, pplan, JoinSide.RIGHT))
            if join.dedup(tile, a, tile, b, pplan)
        ]
        assert len(keep) == 1

    def test_disjoint_pair_never_kept(self):
        join = ReferencePointSpatialJoin(8)
        pplan = join.divide(Rectangle(0, 0, 8, 8), Rectangle(0, 0, 8, 8))
        assert not join.dedup(0, Rectangle(0, 0, 1, 1), 0,
                              Rectangle(6, 6, 7, 7), pplan)


class TestParameters:
    def test_grid_size_stored(self):
        assert SpatialJoin(1200).n == 1200
        assert SpatialJoin(1200).parameters == (1200,)

    def test_uses_dedup(self):
        assert SpatialJoin(4).uses_dedup()
