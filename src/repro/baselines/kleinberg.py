"""Kleinberg's small-world ring (STOC 2000) — Table 1's "Small Worlds" row.

One-dimensional navigable small world: ``n`` nodes on a ring lattice with
local edges to both neighbours and one long-range contact drawn from the
inverse-distance (harmonic) distribution — the unique exponent at which
greedy routing achieves polylogarithmic ``O(log² n)`` delivery time, with
constant linkage.

Construction draws all ``n`` harmonic distances in one
``rng.choice`` call and all signs in one ``rng.random`` call (per-node
scalar draws would dominate build time at n = 2^16).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import checks
from .base import BaselineBatchResult, BaselineBatchRouter, BaselineDHT, _PathRecorder

__all__ = ["KleinbergBatchRouter", "KleinbergRing"]


class KleinbergRing(BaselineDHT):
    """Greedy-routable 1D small world with one harmonic long link per node."""

    name = "small-world"

    def __init__(self, n: int, rng: np.random.Generator):
        n = checks.count(n, "n", 3)
        self.size = n
        # harmonic distribution over ring distance 1..n/2
        dists = np.arange(1, n // 2 + 1, dtype=float)
        probs = 1.0 / dists
        probs /= probs.sum()
        d = rng.choice(dists, size=(n, 1), p=probs).astype(np.int64)
        sign = np.where(rng.random((n, 1)) < 0.5, 1, -1)
        self._long: np.ndarray = (
            np.arange(n, dtype=np.int64)[:, None] + sign * d
        ) % n
        self.long: Dict[int, List[int]] = {
            u: row for u, row in enumerate(self._long.tolist())
        }

    # ------------------------------------------------------------- geometry
    def _ring_dist(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.size - d)

    def _node_of_point(self, y: float) -> int:
        return int((y % 1.0) * self.size) % self.size

    # ------------------------------------------------------------ interface
    @property
    def n(self) -> int:
        return self.size

    def node_ids(self) -> Sequence[int]:
        return range(self.size)

    def _owner(self, target: float) -> int:
        return self._node_of_point(target)

    def degree(self, node: int) -> int:
        node = checks.count(node, "node", 0, self.size)
        return len({(node - 1) % self.size, (node + 1) % self.size, *self.long[node]})

    def batch_router(self) -> "KleinbergBatchRouter":
        return KleinbergBatchRouter(self)

    def _lookup_path(self, source: int, target: float, rng: np.random.Generator
                    ) -> List[int]:
        goal = self._node_of_point(target)
        path = [source]
        current = source
        while current != goal:
            neighbors = [(current - 1) % self.size, (current + 1) % self.size]
            neighbors += self.long[current]
            nxt = min(neighbors, key=lambda v: self._ring_dist(v, goal))
            # greedy always makes progress via the lattice edges
            if self._ring_dist(nxt, goal) >= self._ring_dist(current, goal):
                nxt = (current + 1) % self.size if (
                    self._ring_dist((current + 1) % self.size, goal)
                    < self._ring_dist((current - 1) % self.size, goal)
                ) else (current - 1) % self.size
            path.append(nxt)
            current = nxt
        return path


class KleinbergBatchRouter(BaselineBatchRouter):
    """Whole-batch greedy small-world routing over a candidate matrix.

    Compilation freezes every node's neighbour list — lattice pred,
    lattice succ, then the long links, in exactly the scalar list order —
    as an ``(n, 2 + L)`` index matrix.  Each iteration gathers the
    candidate rows of all pending lookups, takes ``np.argmin`` over ring
    distances (first-occurrence rule == Python ``min`` first-tie), and
    applies the lattice fallback wherever greedy made no progress, so
    hop sequences replay the scalar walk exactly.
    """

    def __init__(self, net: KleinbergRing):
        self.scheme = net.name
        n = net.size
        self.node_keys = np.arange(n, dtype=np.float64)
        ids = np.arange(n, dtype=np.int64)
        self._cand = np.concatenate(
            [((ids - 1) % n)[:, None], ((ids + 1) % n)[:, None], net._long],
            axis=1,
        )

    def route_batch(
        self,
        source_idx: np.ndarray,
        targets: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> BaselineBatchResult:
        n = self.node_keys.size
        src = np.asarray(source_idx, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.float64) % 1.0
        size = src.size
        own = ((tgt * n).astype(np.int64)) % n
        rec = _PathRecorder(size, src)

        def ring_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            d = np.abs(a - b)
            return np.minimum(d, n - d)

        live = np.flatnonzero(src != own)
        cur = src[live]
        goal = own[live]
        for _ in range(n + 1):
            if live.size == 0:
                break
            rows = self._cand[cur]                       # (k, 2 + L)
            dmat = ring_dist(rows, goal[:, None])
            bi = np.argmin(dmat, axis=1)
            ar = np.arange(live.size)
            nxt = rows[ar, bi]
            d_cur = ring_dist(cur, goal)
            stuck = dmat[ar, bi] >= d_cur
            if stuck.any():
                fwd, bwd = rows[stuck, 1], rows[stuck, 0]
                nxt[stuck] = np.where(
                    ring_dist(fwd, goal[stuck]) < ring_dist(bwd, goal[stuck]),
                    fwd, bwd,
                )
            rec.append(live, nxt)
            cur = nxt
            keep = cur != goal
            live, cur, goal = live[keep], cur[keep], goal[keep]
        if live.size:  # pragma: no cover - lattice fallback guarantees progress
            raise RuntimeError("small-world batch lookup failed to converge")

        servers, offsets = rec.to_csr()
        return BaselineBatchResult(
            scheme=self.scheme, points=self.node_keys, source_idx=src,
            owner_idx=own, path_servers=servers, path_offsets=offsets,
        )
