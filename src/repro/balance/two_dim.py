"""Two-dimensional id balancing (paper §5.3) and Definition 7 smoothness.

In the 2D name space ``I = [0,1) × [0,1)`` the Multiple Choice idea
becomes grid-based: a joining server samples ``t·log n`` candidate
points, preferring one whose *fine* cell (grid of ~2n cells, ``r(z)``) is
empty and whose *coarse* cell (grid of ~n/2 cells, ``R(z)``) is also
empty; failing that, any empty fine cell.  Lemma 5.3: after ``n`` joins
the set is 2-smooth w.h.p. — every fine cell holds ≤ 1 point and every
coarse cell ≥ 1 point — which by Definition 7 is exactly what the
Gabber–Galil expander discretization (§5.2) needs.

Reproduction notes:

* The paper's algorithm divides I "to 2n rectangles" where ``n`` is the
  *final* population ("we assume for convenience that the estimation of n
  is accurate"), so :class:`TwoDimMultipleChoice` takes the target ``n``
  up front; a grid that grows while points arrive would let two old
  points share a cell of the final grid and void Lemma 5.3.
* Definition 7 as printed swaps its inequalities (ρn cells can not each
  contain "at least one" of n points, nor can n/ρ cells each contain "at
  most one"); we implement the evident intent — ≥ 1 point per *coarse*
  cell and ≤ 1 point per *fine* cell — which matches both the algorithm
  and the Voronoi-cell-area argument of §5.1.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "fine_grid_side",
    "coarse_grid_side",
    "cell_of",
    "TwoDimMultipleChoice",
    "is_smooth_2d",
]

Point2D = Tuple[float, float]


def fine_grid_side(n: int) -> int:
    """Side of the ``r(z)`` grid: ≥ 2n cells of size ~1/√(2n)."""
    return max(1, math.ceil(math.sqrt(2 * max(1, n))))


def coarse_grid_side(n: int) -> int:
    """Side of the ``R(z)`` grid: ≤ n/2 cells of size ~√(2/n)."""
    return max(1, math.floor(math.sqrt(max(1, n) / 2)))


def cell_of(p: Point2D, side: int) -> Tuple[int, int]:
    """Integer grid cell of a point for a ``side × side`` division of I."""
    x, y = p[0] % 1.0, p[1] % 1.0
    return (min(side - 1, int(x * side)), min(side - 1, int(y * side)))


class TwoDimMultipleChoice:
    """The 2D Multiple Choice join algorithm (§5.3) for a target size ``n``.

    Maintains the occupied-cell sets incrementally so each join costs
    ``O(t log n)`` probes (the paper's lookups).  ``failed`` counts joins
    that fell through to step 4's last resort (``x ← z_1``), which
    Lemma 5.3 bounds in probability by ``1/n²`` per join.
    """

    def __init__(self, n_target: int, t: int = 3):
        if t < 1:
            raise ValueError("probe multiplier t must be >= 1")
        if n_target < 1:
            raise ValueError("target population must be >= 1")
        self.t = int(t)
        self.n_target = int(n_target)
        self.fine = fine_grid_side(n_target)
        self.coarse = coarse_grid_side(n_target)
        self.points: List[Point2D] = []
        self._occ_fine: Set[Tuple[int, int]] = set()
        self._occ_coarse: Set[Tuple[int, int]] = set()
        self.failed = 0

    @property
    def n(self) -> int:
        return len(self.points)

    def _samples(self, rng: np.random.Generator) -> List[Point2D]:
        k = self.t * max(1, math.ceil(math.log2(max(2, self.n_target))))
        return [(float(a), float(b)) for a, b in rng.random((k, 2))]

    def _accept(self, z: Point2D) -> Point2D:
        self.points.append(z)
        self._occ_fine.add(cell_of(z, self.fine))
        self._occ_coarse.add(cell_of(z, self.coarse))
        return z

    def join(self, rng: np.random.Generator) -> Point2D:
        """Insert one server; returns its chosen 2D id."""
        samples = self._samples(rng)
        # Step 3: a sample with both r(z) and R(z) empty.
        for z in samples:
            if cell_of(z, self.fine) not in self._occ_fine and (
                cell_of(z, self.coarse) not in self._occ_coarse
            ):
                return self._accept(z)
        # Step 4: any sample with empty r(z); else fail to z1.
        for z in samples:
            if cell_of(z, self.fine) not in self._occ_fine:
                return self._accept(z)
        self.failed += 1
        return self._accept(samples[0])

    def populate(self, count: Optional[int] = None, rng: Optional[np.random.Generator] = None) -> None:
        """Join ``count`` servers (default: up to the target population)."""
        assert rng is not None, "populate requires an rng"
        count = self.n_target if count is None else count
        for _ in range(count):
            self.join(rng)


def is_smooth_2d(points: Sequence[Point2D], rho: float) -> bool:
    """Definition 7 (with the printed inequality swap corrected).

    (1) dividing I into ~n/ρ coarse squares, each contains ≥ 1 point;
    (2) dividing I into ~ρn fine squares, each contains ≤ 1 point.
    Grid sides are rounded conservatively (floor for the "≥1" grid, ceil
    for the "≤1" grid) so a True answer certifies the property at the
    stated ρ.
    """
    n = len(points)
    if n == 0:
        return False
    if rho < 1:
        raise ValueError("rho must be >= 1")
    side_coarse = max(1, math.floor(math.sqrt(n / rho)))
    filled = {cell_of(p, side_coarse) for p in points}
    if len(filled) < side_coarse * side_coarse:
        return False
    side_fine = max(1, math.ceil(math.sqrt(rho * n)))
    counts: dict = {}
    for p in points:
        c = cell_of(p, side_fine)
        counts[c] = counts.get(c, 0) + 1
        if counts[c] > 1:
            return False
    return True

