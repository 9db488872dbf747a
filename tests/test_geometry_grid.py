"""Unit tests for the PBSM uniform grid."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon, Rectangle, UniformGrid, mbr_of
from repro.trajectory import Trajectory

EXTENT = Rectangle(0.0, 0.0, 10.0, 10.0)


class TestGridBasics:
    def test_tile_count(self):
        assert UniformGrid(EXTENT, 5).tile_count == 25

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            UniformGrid(EXTENT, 0)

    def test_tile_dimensions(self):
        grid = UniformGrid(EXTENT, 4)
        assert grid.tile_width == 2.5
        assert grid.tile_height == 2.5

    def test_column_and_row(self):
        grid = UniformGrid(EXTENT, 10)
        assert grid.column_of(0.5) == 0
        assert grid.column_of(9.9) == 9
        assert grid.row_of(5.0) == 5

    def test_clamping_outside_extent(self):
        grid = UniformGrid(EXTENT, 10)
        assert grid.column_of(-5.0) == 0
        assert grid.column_of(50.0) == 9
        assert grid.row_of(-1.0) == 0
        assert grid.row_of(11.0) == 9

    def test_tile_id_row_major(self):
        grid = UniformGrid(EXTENT, 4)
        assert grid.tile_id(0, 0) == 0
        assert grid.tile_id(3, 0) == 3
        assert grid.tile_id(0, 1) == 4
        assert grid.tile_id(3, 3) == 15

    def test_tile_extent_roundtrip(self):
        grid = UniformGrid(EXTENT, 5)
        for tile_id in range(grid.tile_count):
            extent = grid.tile_extent(tile_id)
            center = extent.center()
            assert grid.tile_id(grid.column_of(center.x), grid.row_of(center.y)) == tile_id

    def test_tile_extent_out_of_range(self):
        grid = UniformGrid(EXTENT, 2)
        with pytest.raises(ValueError):
            grid.tile_extent(4)
        with pytest.raises(ValueError):
            grid.tile_extent(-1)


class TestOverlappingTiles:
    def test_point_in_one_tile(self):
        grid = UniformGrid(EXTENT, 10)
        assert grid.overlapping_tile_ids(Point(2.5, 3.5).mbr()) == [32]

    def test_rectangle_spanning_tiles(self):
        grid = UniformGrid(EXTENT, 10)
        ids = grid.overlapping_tile_ids(Rectangle(0.5, 0.5, 2.5, 1.5))
        # Columns 0-2, rows 0-1.
        assert sorted(ids) == [0, 1, 2, 10, 11, 12]

    def test_rectangle_outside_extent_clamps_to_border(self):
        grid = UniformGrid(EXTENT, 10)
        ids = grid.overlapping_tile_ids(Rectangle(-5, -5, -4, -4))
        assert ids == [0]

    def test_full_extent_covers_everything(self):
        grid = UniformGrid(EXTENT, 4)
        ids = grid.overlapping_tile_ids(EXTENT)
        assert sorted(ids) == list(range(16))

    def test_overlapping_rectangles_share_a_tile(self):
        # The completeness invariant PBSM relies on: intersecting MBRs
        # always share at least one (clamped) tile.
        grid = UniformGrid(EXTENT, 7)
        a = Rectangle(1.1, 2.2, 3.3, 4.4)
        b = Rectangle(3.0, 4.0, 8.0, 9.0)
        assert a.intersects(b)
        assert set(grid.overlapping_tile_ids(a)) & set(grid.overlapping_tile_ids(b))

    def test_degenerate_extent(self):
        grid = UniformGrid(Rectangle(5, 5, 5, 5), 3)
        assert grid.overlapping_tile_ids(Point(5, 5).mbr()) == [0]
        assert grid.overlapping_tile_ids(Point(99, 99).mbr()) == [0]


class TestReferencePoint:
    def test_reference_tile_is_shared(self):
        grid = UniformGrid(EXTENT, 10)
        a = Rectangle(1, 1, 4, 4)
        b = Rectangle(3, 3, 6, 6)
        ref = grid.reference_tile_id(a, b)
        shared = set(grid.overlapping_tile_ids(a)) & set(grid.overlapping_tile_ids(b))
        assert ref in shared

    def test_reference_tile_symmetric(self):
        grid = UniformGrid(EXTENT, 8)
        a = Rectangle(0.5, 0.5, 5, 5)
        b = Rectangle(2, 3, 9, 9)
        assert grid.reference_tile_id(a, b) == grid.reference_tile_id(b, a)

    def test_disjoint_raises(self):
        grid = UniformGrid(EXTENT, 4)
        with pytest.raises(ValueError):
            grid.reference_tile_id(Rectangle(0, 0, 1, 1), Rectangle(5, 5, 6, 6))


# -- the lookup against its first formulation ---------------------------------
#
# ``assign`` runs the lookup for every record, so tile sizes are derived
# once and the clamps are two comparisons.  The reference below is the
# formulation that was replaced, kept here verbatim: the ids must be the
# same for every float, not only the ones a dataset happens to hold.


def _reference_index(grid, offset, extent_size):
    tile_size = extent_size / grid.n if extent_size else 0.0
    if tile_size == 0.0:
        return 0
    quotient = offset / tile_size
    if quotient != quotient:  # nan
        return 0
    if quotient in (float("inf"), float("-inf")):
        return 0 if quotient < 0 else grid.n - 1
    return max(0, min(grid.n - 1, int(quotient)))


def reference_column(grid, x):
    return _reference_index(grid, x - grid.extent.x1, grid.extent.width)


def reference_row(grid, y):
    return _reference_index(grid, y - grid.extent.y1, grid.extent.height)


def reference_tile_ids(grid, mbr):
    c1, c2 = reference_column(grid, mbr.x1), reference_column(grid, mbr.x2)
    r1, r2 = reference_row(grid, mbr.y1), reference_row(grid, mbr.y2)
    return [row * grid.n + col
            for row in range(r1, r2 + 1) for col in range(c1, c2 + 1)]


SUBNORMAL = 5e-324
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: Offsets as hostile as a float gets: nan, both infinities, subnormals,
#: the largest finite values, and ordinary ones near a small extent.
coordinates = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.floats(min_value=-20.0, max_value=20.0),
    st.sampled_from([0.0, -0.0, SUBNORMAL, -SUBNORMAL, 1.7976931348623157e308,
                     -1.7976931348623157e308, float("inf"), float("-inf"),
                     float("nan")]),
)
#: Extent sides: zero-width, subnormal (tile size underflows, the
#: division overflows to inf), ordinary and huge.
sides = st.one_of(
    st.sampled_from([0.0, SUBNORMAL, 3 * SUBNORMAL, 2.2250738585072014e-308,
                     1.0, 10.0, 1e300]),
    st.floats(min_value=0.0, max_value=1e6),
)
origins = st.one_of(st.sampled_from([0.0, -5.0, 1e-300]),
                    st.floats(min_value=-1e6, max_value=1e6))


@st.composite
def grids(draw):
    x1, y1 = draw(origins), draw(origins)
    extent = Rectangle(x1, y1, x1 + draw(sides), y1 + draw(sides))
    return UniformGrid(extent, draw(st.integers(min_value=1, max_value=64)))


@st.composite
def boxes(draw):
    """MBRs anywhere, inside or outside any extent; nan bounds pass
    Rectangle's ordering check, as they do in the engine."""
    x1, x2, y1, y2 = (draw(coordinates) for _ in range(4))
    if x2 < x1:
        x1, x2 = x2, x1
    if y2 < y1:
        y1, y2 = y2, y1
    return Rectangle(x1, y1, x2, y2)


class TestLookupEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(grid=grids(), value=coordinates)
    def test_column_and_row(self, grid, value):
        assert grid.column_of(value) == reference_column(grid, value)
        assert grid.row_of(value) == reference_row(grid, value)

    @settings(max_examples=400, deadline=None)
    @given(grid=grids(), box=boxes())
    def test_overlapping_tile_ids(self, grid, box):
        assert grid.overlapping_tile_ids(box) == reference_tile_ids(grid, box)

    @settings(max_examples=200, deadline=None)
    @given(grid=grids(), x=coordinates, y=coordinates)
    def test_point_boxes_take_the_one_tile_path(self, grid, x, y):
        box = Rectangle(x, y, x, y)
        assert grid.overlapping_tile_ids(box) == reference_tile_ids(grid, box)

    def test_subnormal_extent_overflows_to_the_last_tile(self):
        # tile_width underflows to the smallest subnormal; an ordinary
        # offset divided by it is inf, which must clamp, not raise.
        grid = UniformGrid(Rectangle(0.0, 0.0, SUBNORMAL, SUBNORMAL), 7)
        assert grid.tile_width == 0.0 or grid.tile_width == SUBNORMAL
        assert grid.column_of(1.0) == reference_column(grid, 1.0)
        assert grid.row_of(-1.0) == reference_row(grid, -1.0) == 0

    def test_tile_sizes_are_not_fields(self):
        a = UniformGrid(EXTENT, 4)
        assert a == UniformGrid(EXTENT, 4) and hash(a) == hash(
            UniformGrid(EXTENT, 4))
        assert "tile_width" not in repr(a)


# -- tile_ids_of: the tiles of a key, with no MBR built for a point ---------------


points = st.builds(Point, coordinates, coordinates)


@st.composite
def shapes(draw):
    """A key of any spatial type, its coordinates as hostile as boxes'."""
    kind = draw(st.sampled_from(["point", "rectangle", "polygon",
                                 "trajectory"]))
    if kind == "point":
        return draw(points)
    if kind == "rectangle":
        return draw(boxes())
    if kind == "polygon":
        return Polygon(draw(st.lists(points, min_size=3, max_size=6)))
    return Trajectory(draw(st.lists(points, min_size=1, max_size=6)))


class TestTileIdsOf:
    @settings(max_examples=400, deadline=None)
    @given(grid=grids(), key=shapes())
    def test_equals_the_tiles_of_the_mbr(self, grid, key):
        assert grid.tile_ids_of(key) == grid.overlapping_tile_ids(mbr_of(key))

    @settings(max_examples=200, deadline=None)
    @given(grid=grids(), data=st.data())
    def test_points_on_tile_borders(self, grid, data):
        col = data.draw(st.integers(0, grid.n))
        row = data.draw(st.integers(0, grid.n))
        point = Point(grid.extent.x1 + col * grid.tile_width,
                      grid.extent.y1 + row * grid.tile_height)
        assert grid.tile_ids_of(point) == grid.overlapping_tile_ids(
            point.mbr())

    @pytest.mark.parametrize("point", [
        Point(-1.0, 11.0), Point(25.0, 5.0), Point(5.0, 5.0),
        Point(10.0, 10.0), Point(0.0, 0.0), Point(float("nan"), 2.0),
        Point(float("inf"), float("-inf")),
    ])
    @pytest.mark.parametrize("extent", [EXTENT, Rectangle(3.0, 0.0, 3.0, 10.0)])
    def test_points_inside_outside_and_on_a_zero_width_extent(self, point,
                                                              extent):
        grid = UniformGrid(extent, 5)
        assert grid.tile_ids_of(point) == grid.overlapping_tile_ids(
            point.mbr())

    def test_a_non_geometry_raises_as_mbr_of_does(self):
        with pytest.raises(TypeError, match="not a geometry"):
            UniformGrid(EXTENT, 4).tile_ids_of((1.0, 2.0))
