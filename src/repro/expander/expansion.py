"""Expansion verification: spectral gap, Cheeger bounds, sampled cuts.

"The main advantage of our approach is that in our case the expansion of
the network could be verified" (§5.2) — this module is that verifier.

For a graph ``G``:

* :func:`spectral_gap` — ``λ₂`` of the normalized Laplacian; by Cheeger,
  conductance ``h`` satisfies ``λ₂/2 ≤ h ≤ √(2 λ₂)``, so ``λ₂ > 0``
  bounded away from zero certifies expansion;
* :func:`sampled_vertex_expansion` — direct ``|δS|/|S|`` minimisation
  over random subsets *and* geometric (axis-aligned box) subsets, the
  natural near-worst cuts for a torus-derived graph;
* :func:`vertex_expansion_of_set` — exact boundary of one cut.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
import scipy.sparse.linalg as spla

from .. import checks

__all__ = [
    "spectral_gap",
    "cheeger_bounds",
    "vertex_expansion_of_set",
    "sampled_vertex_expansion",
]


def spectral_gap(graph: nx.Graph) -> float:
    """``λ₂`` of the normalized Laplacian (0 iff disconnected)."""
    n = graph.number_of_nodes()
    if n < 3:
        raise ValueError("need at least three nodes")
    if not nx.is_connected(graph):
        return 0.0
    L = nx.normalized_laplacian_matrix(graph).astype(float)
    if n <= 600:
        eigvals = np.linalg.eigvalsh(L.toarray())
        return float(np.sort(eigvals)[1])
    vals = spla.eigsh(L.tocsc(), k=2, sigma=-0.01, which="LM",
                      return_eigenvectors=False)
    return float(np.sort(vals)[1])


def cheeger_bounds(lambda2: float) -> Tuple[float, float]:
    """Conductance bounds ``(λ₂/2, √(2 λ₂))`` from the spectral gap."""
    checks.real(lambda2, "lambda2", "[0, 2]")
    return lambda2 / 2.0, math.sqrt(max(0.0, 2.0 * lambda2))


def vertex_expansion_of_set(graph: nx.Graph, subset: Iterable) -> float:
    """``|δS| / |S|`` for one set: neighbours outside over size (§5.2)."""
    s = set(subset)
    if not s:
        raise ValueError("subset must be non-empty")
    boundary = set()
    for v in s:
        for u in graph.neighbors(v):
            if u not in s:
                boundary.add(u)
    return len(boundary) / len(s)


def sampled_vertex_expansion(
    graph: nx.Graph,
    rng: np.random.Generator,
    trials: int = 64,
    positions: Optional[Sequence[Tuple[float, float]]] = None,
) -> float:
    """Minimum observed ``|δS|/|S|`` over random and geometric cuts.

    Random subsets are drawn at several sizes up to ``n/2``.  When node
    ``positions`` on the torus are supplied, axis-aligned boxes are also
    tried — for a geometrically-derived graph these are the natural
    candidates for sparse cuts, so including them makes the certificate
    much stronger than purely random sampling.
    """
    trials = checks.count(trials, "trials", 1)
    nodes = list(graph.nodes())
    n = len(nodes)
    half = n // 2
    best = math.inf
    sizes = sorted({max(1, half // 8), max(1, half // 4), max(1, half // 2), half})
    for size in sizes:
        for _ in range(max(1, trials // len(sizes))):
            idx = rng.choice(n, size=size, replace=False)
            s = [nodes[i] for i in idx]
            best = min(best, vertex_expansion_of_set(graph, s))
    if positions is not None:
        pos = np.asarray(positions, dtype=float)
        for frac in (0.1, 0.25, 0.5):
            for axis in (0, 1):
                for start in (0.0, 0.3, 0.6):
                    lo, hi = start, start + frac
                    coords = pos[:, axis] % 1.0
                    mask = (coords >= lo) & (coords < hi) if hi <= 1.0 else (
                        (coords >= lo) | (coords < hi - 1.0)
                    )
                    chosen = [nodes[i] for i in np.nonzero(mask)[0]]
                    if 0 < len(chosen) <= half:
                        best = min(best, vertex_expansion_of_set(graph, chosen))
    return best
