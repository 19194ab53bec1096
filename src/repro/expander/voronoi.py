"""Dynamic Voronoi diagrams on the unit torus (paper §5.1).

In the 2D name space each server's cell is its Voronoi region — "a
simpler way" than CAN's rectangles, as the paper puts it (Definition 6).
The torus has no boundary, so we compute the planar diagram of the 3×3
tiling of the generator set and read off the central copy: every central
cell is then finite and correct, and Delaunay adjacency wraps properly.

Supported queries (all the §5 protocols need):

* ``owner_many(ps)`` — nearest generator (toroidal metric) of each
  point, via a KD-tree on the tiling;
* ``delaunay_neighbors(i)`` — the dual triangulation (degree 6 on
  average by Euler's formula, as §5.1 notes);
* incremental ``insert`` — the paper's point that a Voronoi diagram can
  be maintained locally; we rebuild lazily and expose
  ``affected_cells`` so tests can verify the locality claim.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .. import checks

__all__ = ["TorusVoronoi"]

Point2D = Tuple[float, float]

_OFFSETS = [(dx, dy) for dx in (-1.0, 0.0, 1.0) for dy in (-1.0, 0.0, 1.0)]


class TorusVoronoi:
    """Voronoi diagram of a point set on ``[0,1)²`` with wrap-around."""

    def __init__(self, points: Sequence[Point2D]):
        pts = np.asarray([(p[0] % 1.0, p[1] % 1.0) for p in points], dtype=float)
        if len(pts) < 2:
            raise ValueError("need at least two generators")
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("duplicate generators")
        self.points = pts
        self._build()

    def _build(self) -> None:
        n = len(self.points)
        tiles = []
        for dx, dy in _OFFSETS:
            tiles.append(self.points + np.array([dx, dy]))
        self._tiled = np.vstack(tiles)
        # center copy occupies the block at offset (0,0) — index it
        center_block = _OFFSETS.index((0.0, 0.0))
        self._center_offset = center_block * n
        self._tree = cKDTree(self._tiled)
        self._delaunay = Delaunay(self._tiled)
        self._neighbors: Dict[int, Set[int]] = {}

    # -------------------------------------------------------------- queries
    @property
    def n(self) -> int:
        return len(self.points)

    def owner_many(self, ps: np.ndarray) -> np.ndarray:
        """Index of the generator whose cell holds each row of an (m, 2)
        array (torus metric)."""
        qs = np.mod(ps, 1.0)
        _, idx = self._tree.query(qs)
        return (idx % self.n).astype(int)

    def delaunay_neighbors(self, i: int) -> List[int]:
        """Indices of cells adjacent to cell ``i`` in the dual triangulation."""
        if checks.count(i, "i", 0, self.n) not in self._neighbors:
            indptr, indices = self._delaunay.vertex_neighbor_vertices
            raw = indices[indptr[self._center_offset + i]: indptr[self._center_offset + i + 1]]
            self._neighbors[i] = {int(j % self.n) for j in raw} - {i}
        return sorted(self._neighbors[i])

    # ------------------------------------------------------------- updates
    def insert(self, p: Point2D) -> Set[int]:
        """Add a generator; returns the cells adjacent to it afterwards.

        Locality claim of §5.1: "the entrance of a new generator ...
        affects only the cells adjacent to the location of the generator"
        — i.e. exactly the Delaunay neighbours of the new cell, which is
        what this returns (every cell whose shape changed is among them).
        """
        self.points = np.vstack([self.points, [p[0] % 1.0, p[1] % 1.0]])
        self._build()
        return set(self.delaunay_neighbors(self.n - 1))
