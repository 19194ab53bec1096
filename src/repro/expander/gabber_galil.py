"""The dynamic Gabber–Galil expander network (paper §5.2).

Continuous graph ``G`` over ``I = [0,1)²`` with the Margulis/
Gabber–Galil transformations::

    f(x, y) = (x + y, y) mod 1        g(x, y) = (x, x + y) mod 1

and their inverses; Theorem 5.1 gives every measurable set boundary
expansion ``(2 − √3)/2``.  Discretizing over a smooth set of cells
(Corollary 5.2) yields a *certified* constant-degree expander: degree
``Θ(ρ)``, expansion ``Ω((2−√3)/ρ)``.

The discrete edge relation — cells ``i, j`` are linked when some point
of cell ``i`` maps into cell ``j`` — is computed by dense stratified
sampling of the torus (a conservative subset of the true relation, so
any expansion we certify on the sampled graph is honest).  Delaunay
edges of the Voronoi tessellation are included as the 2D analogue of the
ring edges (they keep the graph connected exactly like §2.1's ring).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from .. import checks
from ..balance.two_dim import TwoDimMultipleChoice
from .voronoi import TorusVoronoi

__all__ = [
    "gg_f",
    "gg_g",
    "gg_f_inv",
    "gg_g_inv",
    "GG_EXPANSION_CONSTANT",
    "GabberGalilNetwork",
]

#: Theorem 5.1's boundary-expansion constant (2 − √3)/2.
GG_EXPANSION_CONSTANT = (2.0 - math.sqrt(3.0)) / 2.0


def gg_f(p: np.ndarray) -> np.ndarray:
    """``f(x, y) = (x + y, y) mod 1`` (vectorised over (m, 2) arrays)."""
    out = p.copy()
    out[..., 0] = (p[..., 0] + p[..., 1]) % 1.0
    return out


def gg_g(p: np.ndarray) -> np.ndarray:
    """``g(x, y) = (x, x + y) mod 1``."""
    out = p.copy()
    out[..., 1] = (p[..., 0] + p[..., 1]) % 1.0
    return out


def gg_f_inv(p: np.ndarray) -> np.ndarray:
    """``f⁻¹(x, y) = (x − y, y) mod 1``."""
    out = p.copy()
    out[..., 0] = (p[..., 0] - p[..., 1]) % 1.0
    return out


def gg_g_inv(p: np.ndarray) -> np.ndarray:
    """``g⁻¹(x, y) = (x, y − x) mod 1``."""
    out = p.copy()
    out[..., 1] = (p[..., 1] - p[..., 0]) % 1.0
    return out


TRANSFORMS: List[Callable[[np.ndarray], np.ndarray]] = [gg_f, gg_g, gg_f_inv, gg_g_inv]


class GabberGalilNetwork:
    """A P2P network whose topology is a certified constant-degree expander.

    Parameters
    ----------
    points:
        2D server ids.  If omitted, ``n`` servers join via the §5.3
        2D Multiple Choice algorithm so the set is smooth (Lemma 5.3) —
        which is what *certifies* the expansion (Corollary 5.2).
    samples_per_cell:
        Stratified sampling density for the edge relation.

    The edge set also keeps the tessellation's Delaunay edges (the 2D
    "ring").
    """

    def __init__(
        self,
        n: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        points: Optional[Sequence[Tuple[float, float]]] = None,
        samples_per_cell: int = 24,
    ):
        self.samples_per_cell = checks.count(samples_per_cell, "samples_per_cell", 1)
        if points is None:
            if n is None or rng is None:
                raise ValueError("need either explicit points or (n, rng)")
            algo = TwoDimMultipleChoice(n, t=4)
            algo.populate(rng=rng)
            points = algo.points
        self.voronoi = TorusVoronoi(points)
        self._edges: Optional[Set[Tuple[int, int]]] = None

    @property
    def n(self) -> int:
        return self.voronoi.n

    # ------------------------------------------------------------- topology
    def _sample_points(self) -> np.ndarray:
        """Stratified torus samples: a jittered grid with ≥ samples/cell·n points."""
        total = self.samples_per_cell * self.n
        side = int(math.ceil(math.sqrt(total)))
        xs = (np.arange(side) + 0.5) / side
        grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        return grid

    def edges(self) -> Set[Tuple[int, int]]:
        """The discrete edge set (unordered pairs, no self-loops)."""
        if self._edges is not None:
            return self._edges
        pts = self._sample_points()
        owners = self.voronoi.owner_many(pts)
        pairs: Set[Tuple[int, int]] = set()
        for tf in TRANSFORMS:
            img_owners = self.voronoi.owner_many(tf(pts))
            for a, b in zip(owners, img_owners):
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
        for i in range(self.n):
            for j in self.voronoi.delaunay_neighbors(i):
                if i != j:
                    pairs.add((min(i, j), max(i, j)))
        self._edges = pairs
        return pairs

    def max_degree(self) -> int:
        deg: Dict[int, int] = {}
        for a, b in self.edges():
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        return max(deg.values(), default=0)

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges())
        return g

    # ----------------------------------------------------------- continuous
    @staticmethod
    def continuous_boundary_measure(region: Callable[[np.ndarray], np.ndarray],
                                    rng: np.random.Generator,
                                    samples: int = 200_000) -> Tuple[float, float]:
        """Monte-Carlo check of Theorem 5.1 for a measurable region.

        ``region`` maps an (m, 2) array to booleans.  Returns
        ``(µ(A), µ(δA))`` where ``δA`` is the set of points outside ``A``
        with a Gabber–Galil neighbour inside ``A``.
        """
        pts = rng.random((checks.count(samples, "samples", 1), 2))
        inside = region(pts)
        boundary = np.zeros(samples, dtype=bool)
        outside = ~inside
        for tf in TRANSFORMS:
            boundary |= outside & region(tf(pts))
        return float(inside.mean()), float(boundary.mean())
