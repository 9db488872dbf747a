"""Uniform grid tiling of space, as used by PBSM partitioning.

The grid logically divides a bounding rectangle into ``n x n`` equal tiles
numbered row-major from 0.  The Spatial FUDJ ``assign`` function maps each
record's MBR to the ids of all overlapping tiles (multi-assign);
:meth:`UniformGrid.tile_ids_of` does that for a geometry without building
a point's MBR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle, mbr_of


@dataclass(frozen=True)
class UniformGrid:
    """An ``n x n`` uniform grid over ``extent``.

    Tile ``(col, row)`` has id ``row * n + col``.  Records whose MBR falls
    outside the extent are clamped to the border tiles, so every geometry
    always maps to at least one tile — important because summaries are
    computed on the *sampled or full* input and outliers must not be lost.
    """

    extent: Rectangle
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"grid size must be >= 1, got {self.n}")
        # Tile sizes never change (the grid is frozen) and ``assign``
        # reads them four times per record, so they are plain attributes
        # (not dataclass fields: equality, hash and repr stay extent + n).
        extent = self.extent
        object.__setattr__(
            self, "tile_width",
            extent.width / self.n if extent.width else 0.0)
        object.__setattr__(
            self, "tile_height",
            extent.height / self.n if extent.height else 0.0)

    @property
    def tile_count(self) -> int:
        return self.n * self.n

    def _index_of(self, offset: float, tile_size: float) -> int:
        # A subnormal extent makes tile_size tiny enough that the
        # division overflows to inf (or nan for pathological inputs), so
        # the clamps come before int() can choke on it.  int() truncates
        # toward zero, which the two comparisons reproduce at the edges.
        quotient = offset / tile_size
        if quotient != quotient:  # nan
            return 0
        last = self.n - 1
        if quotient >= last:  # +inf included
            return last
        if quotient <= 0.0:  # -inf included
            return 0
        return int(quotient)

    def column_of(self, x: float) -> int:
        """Grid column containing ``x`` (clamped to the extent)."""
        tile_width = self.tile_width
        if tile_width == 0.0:
            return 0
        return self._index_of(x - self.extent.x1, tile_width)

    def row_of(self, y: float) -> int:
        """Grid row containing ``y`` (clamped to the extent)."""
        tile_height = self.tile_height
        if tile_height == 0.0:
            return 0
        return self._index_of(y - self.extent.y1, tile_height)

    def tile_id(self, col: int, row: int) -> int:
        """Row-major id of tile ``(col, row)``."""
        return row * self.n + col

    def tile_extent(self, tile_id: int) -> Rectangle:
        """Bounding rectangle of a tile."""
        if not 0 <= tile_id < self.tile_count:
            raise ValueError(f"tile id out of range: {tile_id}")
        row, col = divmod(tile_id, self.n)
        x1 = self.extent.x1 + col * self.tile_width
        y1 = self.extent.y1 + row * self.tile_height
        return Rectangle(x1, y1, x1 + self.tile_width, y1 + self.tile_height)

    def overlapping_tile_ids(self, mbr: Rectangle) -> list:
        """Ids of all tiles whose extent overlaps ``mbr`` (paper's
        ``getOverlappingTileIds``)."""
        c1 = self.column_of(mbr.x1)
        c2 = c1 if mbr.x2 == mbr.x1 else self.column_of(mbr.x2)
        r1 = self.row_of(mbr.y1)
        r2 = r1 if mbr.y2 == mbr.y1 else self.row_of(mbr.y2)
        if c1 == c2 and r1 == r2:  # a point, or a box inside one tile
            return [r1 * self.n + c1]
        return [
            row * self.n + col
            for row in range(r1, r2 + 1)
            for col in range(c1, c2 + 1)
        ]

    def tile_ids_of(self, geometry) -> list:
        """``overlapping_tile_ids(mbr_of(geometry))``; a :class:`Point`'s
        one tile is read off its coordinates, with no MBR built and no
        helper called: :meth:`column_of` and :meth:`row_of`, inline."""
        if type(geometry) is not Point:
            return self.overlapping_tile_ids(mbr_of(geometry))
        last = self.n - 1
        col = row = 0
        if self.tile_width != 0.0:
            # ``_index_of``: NaN and -inf go to 0, +inf to the last tile.
            quotient = (geometry.x - self.extent.x1) / self.tile_width
            col = (last if quotient >= last
                   else int(quotient) if quotient > 0.0 else 0)
        if self.tile_height != 0.0:
            quotient = (geometry.y - self.extent.y1) / self.tile_height
            row = (last if quotient >= last
                   else int(quotient) if quotient > 0.0 else 0)
        return [row * self.n + col]

    def reference_tile_id(self, mbr1: Rectangle, mbr2: Rectangle) -> int:
        """Tile containing the *reference point* of an MBR pair.

        The reference point method (Patel & DeWitt, used in paper §VII-E)
        reports a pair only from the tile that contains the top-left
        (min-x, min-y) corner of the intersection of the two MBRs, which
        guarantees each pair is produced exactly once.  That corner is
        ``(max x1, max y1)`` of the two boxes; no intersection is built.
        """
        if not mbr1.intersects(mbr2):
            raise ValueError("reference point of disjoint MBRs is undefined")
        return self.tile_id(self.column_of(max(mbr1.x1, mbr2.x1)),
                            self.row_of(max(mbr1.y1, mbr2.y1)))
