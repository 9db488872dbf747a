"""Unit tests for repro.geometry.rectangle."""

import struct

import pytest
from hypothesis import given, settings

from repro.geometry import Point, Polygon, Rectangle, mbr_of
from repro.trajectory import Trajectory
from tests.test_geometry_grid import boxes, shapes


class TestConstruction:
    def test_valid(self):
        r = Rectangle(0.0, 0.0, 2.0, 3.0)
        assert r.width == 2.0
        assert r.height == 3.0
        assert r.area == 6.0

    def test_degenerate_allowed(self):
        r = Rectangle(1.0, 1.0, 1.0, 1.0)
        assert r.area == 0.0

    def test_inverted_x_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(2.0, 0.0, 1.0, 1.0)

    def test_inverted_y_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(0.0, 2.0, 1.0, 1.0)

    def test_center(self):
        assert Rectangle(0.0, 0.0, 4.0, 2.0).center() == Point(2.0, 1.0)

    def test_mbr_is_self(self):
        r = Rectangle(0, 0, 1, 1)
        assert r.mbr() is r


class TestPredicates:
    def test_intersects_overlapping(self):
        a = Rectangle(0, 0, 2, 2)
        b = Rectangle(1, 1, 3, 3)
        assert a.intersects(b)
        assert b.intersects(a)

    def test_intersects_touching_edge(self):
        # Closed rectangles: sharing an edge counts as intersecting.
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(1, 0, 2, 1)
        assert a.intersects(b)

    def test_disjoint(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(2, 2, 3, 3)
        assert not a.intersects(b)
        assert not b.intersects(a)

    def test_disjoint_in_y_only(self):
        a = Rectangle(0, 0, 10, 1)
        b = Rectangle(0, 2, 10, 3)
        assert not a.intersects(b)

    def test_contains_point(self):
        r = Rectangle(0, 0, 2, 2)
        assert r.contains_point(Point(1, 1))
        assert r.contains_point(Point(0, 0))  # boundary inclusive
        assert r.contains_point(Point(2, 2))
        assert not r.contains_point(Point(2.01, 1))

    def test_contains_rectangle(self):
        outer = Rectangle(0, 0, 10, 10)
        assert outer.contains_rectangle(Rectangle(1, 1, 9, 9))
        assert outer.contains_rectangle(outer)
        assert not outer.contains_rectangle(Rectangle(5, 5, 11, 11))


class TestConstructive:
    def test_union(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(2, 2, 3, 3)
        assert a.union(b) == Rectangle(0, 0, 3, 3)

    def test_union_commutative(self):
        a = Rectangle(0, 0, 1, 5)
        b = Rectangle(-1, 2, 3, 3)
        assert a.union(b) == b.union(a)

    def test_intersection(self):
        a = Rectangle(0, 0, 2, 2)
        b = Rectangle(1, 1, 3, 3)
        assert a.intersection(b) == Rectangle(1, 1, 2, 2)

    def test_intersection_disjoint_is_none(self):
        assert Rectangle(0, 0, 1, 1).intersection(Rectangle(5, 5, 6, 6)) is None

    def test_intersection_touching_is_degenerate(self):
        inter = Rectangle(0, 0, 1, 1).intersection(Rectangle(1, 0, 2, 1))
        assert inter == Rectangle(1, 0, 1, 1)
        assert inter.area == 0.0

    def test_expand(self):
        assert Rectangle(1, 1, 2, 2).expand(1.0) == Rectangle(0, 0, 3, 3)

    def test_from_points(self):
        mbr = Rectangle.from_points([Point(1, 5), Point(-2, 3), Point(4, 4)])
        assert mbr == Rectangle(-2, 3, 4, 5)

    def test_from_points_single(self):
        assert Rectangle.from_points([Point(1, 1)]) == Rectangle(1, 1, 1, 1)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Rectangle.from_points([])


# -- cover: union with a key's MBR, building only what grows ----------------------


def bits(rectangle: Rectangle) -> bytes:
    """The exact bounds, so nan and -0.0 compare as what they are."""
    return struct.pack(">4d", *rectangle.as_tuple())


class TestCover:
    @settings(max_examples=400, deadline=None)
    @given(summary=boxes(), key=shapes())
    def test_equals_the_union_with_the_mbr(self, summary, key):
        assert bits(summary.cover(key)) == bits(summary.union(mbr_of(key)))

    @settings(max_examples=200, deadline=None)
    @given(summary=boxes(), key=shapes())
    def test_returns_itself_when_it_already_covers(self, summary, key):
        if summary.contains_rectangle(mbr_of(key)):
            assert summary.cover(key) is summary

    def test_grows_to_a_point_outside(self):
        r = Rectangle(0.0, 0.0, 2.0, 2.0)
        assert r.cover(Point(3.0, -1.0)) == Rectangle(0.0, -1.0, 3.0, 2.0)
        assert r.cover(Point(1.0, 1.0)) is r

    def test_folds_a_side_like_union(self):
        keys = [Point(1.0, 1.0), Polygon([(0, 0), (4, 0), (2, 3)]),
                Rectangle(-1.0, 2.0, 0.5, 5.0), Trajectory([(9, 9), (8, 1)])]
        covered = united = mbr_of(keys[0])
        for key in keys[1:]:
            covered = covered.cover(key)
            united = united.union(mbr_of(key))
        assert covered == united == Rectangle(-1.0, 0.0, 9.0, 9.0)

    def test_a_non_geometry_raises_as_mbr_of_does(self):
        with pytest.raises(TypeError, match="not a geometry"):
            Rectangle(0.0, 0.0, 1.0, 1.0).cover("POINT(1 2)")
