"""2D mesh topology: tile coordinates, XY routes, and directed links.

Tiles are numbered row-major on an R x C grid (squarest factoring of
the tile count, as in tiled many-cores).  Links are directed edges
between adjacent tiles, identified by ``(src_tile, dst_tile)``; XY
routing traverses the X dimension first, then Y — the routing policy
NOCSTAR's link arbiters assume (§III-B2, Fig 7d).
"""

from __future__ import annotations

import math
from typing import List, Tuple

Link = Tuple[int, int]


class MeshTopology:
    """Geometry and routing for an R x C tile grid."""

    def __init__(self, num_tiles: int) -> None:
        if num_tiles <= 0:
            raise ValueError("need at least one tile")
        rows = int(math.sqrt(num_tiles))
        while num_tiles % rows:
            rows -= 1
        self.num_tiles = num_tiles
        self.rows = rows
        self.cols = num_tiles // rows

    def coords(self, tile: int) -> Tuple[int, int]:
        """(x, y) of a tile: x is the column, y the row."""
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} out of range")
        return tile % self.cols, tile // self.cols

    def tile_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.cols and 0 <= y < self.rows):
            raise ValueError(f"({x}, {y}) outside the {self.cols}x{self.rows} mesh")
        return y * self.cols + x

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def xy_path(self, src: int, dst: int) -> List[Link]:
        """Directed links of the XY route from ``src`` to ``dst``."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        turn = sy * self.cols + dx  # where the route leaves the X leg
        return self._legs(src, turn, dst, 1 if dx > sx else -1,
                          self.cols if dy > sy else -self.cols)

    def yx_path(self, src: int, dst: int) -> List[Link]:
        """Directed links of the YX route (Y dimension first, then X).

        The escape route for fault-aware routing: XY and YX share no
        intermediate links, so a single failed link never blocks both.
        """
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        turn = dy * self.cols + sx  # where the route leaves the Y leg
        return self._legs(src, turn, dst, self.cols if dy > sy else -self.cols,
                          1 if dx > sx else -1)

    @staticmethod
    def _legs(src: int, turn: int, dst: int, first: int, second: int) -> List[Link]:
        """Links of a two-leg route: ``src -> turn`` in tile-number
        steps of ``first``, then ``turn -> dst`` in steps of ``second``."""
        links = [(t, t + first) for t in range(src, turn, first)]
        links += [(t, t + second) for t in range(turn, dst, second)]
        return links

    @property
    def edge_tile(self) -> int:
        """Bottom-centre tile — where the paper's monolithic TLB sits
        ("placed at one end of the chip", §II-C)."""
        return self.tile_at(self.cols // 2, self.rows - 1)

    @property
    def diameter(self) -> int:
        """Longest XY route in the mesh."""
        return (self.cols - 1) + (self.rows - 1)

    def all_links(self) -> List[Link]:
        """Every directed link of the mesh."""
        links = []
        for tile in range(self.num_tiles):
            x, y = self.coords(tile)
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if 0 <= nx < self.cols and 0 <= ny < self.rows:
                    links.append((tile, self.tile_at(nx, ny)))
        return links
