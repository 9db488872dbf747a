"""Property-based tests of substrate invariants (serde, grid, text,
plane-sweep, dedup)."""

from hypothesis import given, settings, strategies as st

from repro.core import JoinSide
from repro.geometry import Point, Polygon, Rectangle, UniformGrid, plane_sweep_pairs
from repro.interval import Interval
from repro.joins import TextSimilarityJoin
from repro.serde import box, deserialize_value, serialize_value
from repro.text import jaccard_similarity, prefix_length

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
small = st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def rectangles(draw):
    x = draw(finite)
    y = draw(finite)
    return Rectangle(x, y, x + draw(small), y + draw(small))


@st.composite
def geometries(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Point(draw(finite), draw(finite))
    if kind == 1:
        return draw(rectangles())
    n = draw(st.integers(3, 8))
    points = [Point(draw(finite), draw(finite)) for _ in range(n)]
    return Polygon(points)


scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    finite,
    st.text(max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(value=scalar_values)
def test_serde_scalar_roundtrip(value):
    buf = bytearray()
    serialize_value(box(value), buf)
    decoded, offset = deserialize_value(bytes(buf))
    assert offset == len(buf)
    assert decoded.to_python() == value


@settings(max_examples=80, deadline=None)
@given(geom=geometries())
def test_serde_geometry_roundtrip(geom):
    buf = bytearray()
    serialize_value(box(geom), buf)
    decoded, _ = deserialize_value(bytes(buf))
    assert decoded.to_python() == geom


@settings(max_examples=80, deadline=None)
@given(start=finite, length=small)
def test_serde_interval_roundtrip(start, length):
    interval = Interval(start, start + length)
    buf = bytearray()
    serialize_value(box(interval), buf)
    decoded, _ = deserialize_value(bytes(buf))
    assert decoded.to_python() == interval


@settings(max_examples=80, deadline=None)
@given(a=rectangles(), b=rectangles(), n=st.integers(1, 40))
def test_grid_completeness(a, b, n):
    # If two MBRs intersect, they share a grid tile — for ANY grid extent.
    grid = UniformGrid(a.union(b), n)
    if a.intersects(b):
        assert set(grid.overlapping_tile_ids(a)) & set(grid.overlapping_tile_ids(b))


@settings(max_examples=80, deadline=None)
@given(a=rectangles(), b=rectangles(), n=st.integers(1, 40))
def test_reference_point_in_shared_tiles(a, b, n):
    grid = UniformGrid(a.union(b), n)
    if a.intersects(b):
        ref = grid.reference_tile_id(a, b)
        shared = set(grid.overlapping_tile_ids(a)) & set(
            grid.overlapping_tile_ids(b)
        )
        assert ref in shared


@settings(max_examples=50, deadline=None)
@given(
    left=st.lists(rectangles(), max_size=30),
    right=st.lists(rectangles(), max_size=30),
)
def test_plane_sweep_equals_nested_loop(left, right):
    left_entries = [(rect, i) for i, rect in enumerate(left)]
    right_entries = [(rect, i) for i, rect in enumerate(right)]
    swept = set(plane_sweep_pairs(left_entries, right_entries))
    expected = {
        (i, j)
        for (ra, i) in left_entries
        for (rb, j) in right_entries
        if ra.intersects(rb)
    }
    assert swept == expected


@settings(max_examples=100, deadline=None)
@given(
    a=st.text(max_size=60),
    b=st.text(max_size=60),
    threshold=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
def test_prefix_filter_never_loses_similar_pairs(a, b, threshold):
    # The prefix-filter completeness theorem, via the FUDJ assign function:
    # any pair with Jaccard >= t must share an assigned bucket.
    join = TextSimilarityJoin(threshold)
    a = join.prepare(a, JoinSide.LEFT)
    b = join.prepare(b, JoinSide.RIGHT)
    summary = join.local_aggregate(a, None, JoinSide.LEFT)
    summary = join.local_aggregate(b, summary, JoinSide.LEFT)
    pplan = join.divide(summary, {})
    if jaccard_similarity(a, b) >= threshold:
        ids_a = set(join.assign(a, pplan, JoinSide.LEFT))
        ids_b = set(join.assign(b, pplan, JoinSide.RIGHT))
        assert ids_a & ids_b


@settings(max_examples=100, deadline=None)
@given(size=st.integers(0, 200),
       threshold=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_prefix_length_bounds(size, threshold):
    p = prefix_length(size, threshold)
    assert 0 <= p <= size
    if size > 0:
        assert p >= 1


@settings(max_examples=60, deadline=None)
@given(a=st.lists(st.integers(0, 30), max_size=20).map(set),
       b=st.lists(st.integers(0, 30), max_size=20).map(set))
def test_jaccard_bounds_and_symmetry(a, b):
    sim = jaccard_similarity(a, b)
    assert 0.0 <= sim <= 1.0
    assert sim == jaccard_similarity(b, a)
    if a == b:
        assert sim == 1.0
