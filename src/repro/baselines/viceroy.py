"""Viceroy (Malkhi, Naor & Ratajczak, PODC 2002) — butterfly emulation.

Table 1 row: path length ``log n``, congestion ``(log n)/n``, linkage
``O(1)``.  Viceroy approximates a butterfly: every node draws a level
``ℓ ∈ {1..log n}`` (here from its predecessor-gap estimate of ``log n``,
the paper's own §6.2 estimator), keeps ring links, same-level ring links,
one *up* link (nearest level-``ℓ−1`` node), and two *down* links (nearest
level-``ℓ+1`` nodes at ``x`` and ``x + 2^{-ℓ}``).  Routing proceeds in
the three canonical phases: climb to level 1, descend the butterfly
halving the distance scale per level, then walk the ring.

This is the faithful-parameter simplification (docs/ARCHITECTURE.md
"Paper-section → module crosswalk", Table 1 row):
it preserves Viceroy's constant degree and Θ(log n) routing, which is
what the Table 1 comparison measures.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import checks
from .base import BaselineBatchResult, BaselineBatchRouter, BaselineDHT, _PathRecorder

__all__ = ["ViceroyBatchRouter", "ViceroyNetwork"]

#: Sentinel level of padded link-matrix slots (beyond any real level).
_PAD_LEVEL = np.int64(1) << 30


class ViceroyNetwork(BaselineDHT):
    """A static simplified Viceroy overlay."""

    name = "viceroy"

    def __init__(self, n: int, rng: np.random.Generator):
        n = checks.count(n, "n", 4)
        self.points: List[float] = sorted(float(p) for p in rng.random(n))
        self.max_level = max(1, round(math.log2(n)))
        # level via the predecessor-gap estimator, clamped to [1, log n]
        self.level: Dict[float, int] = {}
        for i, x in enumerate(self.points):
            gap = (x - self.points[i - 1]) % 1.0
            est = max(1, round(math.log2(1.0 / gap))) if gap > 0 else self.max_level
            lvl = 1 + int(rng.integers(0, min(est, self.max_level)))
            self.level[x] = min(lvl, self.max_level)
        self._by_level: Dict[int, List[float]] = {}
        for x, lv in self.level.items():
            self._by_level.setdefault(lv, []).append(x)
        for lv in self._by_level:
            self._by_level[lv].sort()
        # ensure level 1 is inhabited (promote the first node if needed)
        if 1 not in self._by_level:
            x0 = self.points[0]
            self._by_level.setdefault(1, []).append(x0)
            self._by_level[self.level[x0]].remove(x0)
            self.level[x0] = 1
        self.links: Dict[float, List[float]] = {x: self._make_links(x) for x in self.points}

    # ------------------------------------------------------------- topology
    def _ring_succ(self, y: float) -> float:
        i = bisect_left(self.points, y)
        return self.points[i % len(self.points)]

    def _nearest_at_level(self, y: float, lvl: int) -> float:
        """First level-``lvl`` node clockwise from ``y`` (or any fallback)."""
        nodes = self._by_level.get(lvl)
        if not nodes:
            return self._ring_succ(y)
        i = bisect_left(nodes, y)
        return nodes[i % len(nodes)]

    def _make_links(self, x: float) -> List[float]:
        lvl = self.level[x]
        eps = 1e-15
        links = {
            self._ring_succ((x + eps) % 1.0),                      # ring succ
            self.points[(bisect_left(self.points, x) - 1) % self.n],  # ring pred
        }
        # same-level ring
        links.add(self._nearest_at_level((x + eps) % 1.0, lvl))
        # up
        if lvl > 1:
            links.add(self._nearest_at_level(x, lvl - 1))
        # down-left / down-right
        if lvl < self.max_level:
            links.add(self._nearest_at_level(x, lvl + 1))
            links.add(self._nearest_at_level((x + 2.0**-lvl) % 1.0, lvl + 1))
        links.discard(x)
        return sorted(links)

    # ------------------------------------------------------------ interface
    @property
    def n(self) -> int:
        return len(self.points)

    def node_ids(self) -> Sequence[float]:
        return self.points

    def _owner(self, target: float) -> float:
        return self._ring_succ(target % 1.0)

    def degree(self, node: float) -> int:
        return len(self.links[node])

    def batch_router(self) -> "ViceroyBatchRouter":
        return ViceroyBatchRouter(self)

    def _lookup_path(self, source: float, target: float, rng: np.random.Generator
                    ) -> List[float]:
        target = target % 1.0
        own = self.owner(target)
        path = [source]
        current = source

        def dist(a: float) -> float:
            return (target - a) % 1.0  # clockwise distance to target

        # Phase 1: climb to level 1.
        guard = 0
        while self.level[current] > 1 and guard < 4 * self.max_level:
            ups = [v for v in self.links[current] if self.level[v] < self.level[current]]
            if not ups:
                break
            current = min(ups, key=lambda v: self.level[v])
            path.append(current)
            guard += 1
        # Phase 2: descend, greedily halving clockwise distance.
        guard = 0
        while current != own and guard < 4 * self.max_level:
            downs = [v for v in self.links[current] if self.level[v] > self.level[current]]
            best = None
            for v in downs:
                if dist(v) <= dist(current) and (best is None or dist(v) < dist(best)):
                    best = v
            if best is None:
                break
            current = best
            path.append(current)
            guard += 1
        # Phase 3: ring walk (clockwise) to the owner.
        guard = 0
        while current != own and guard < self.n:
            nxt = min(self.links[current], key=dist)
            if dist(nxt) >= dist(current):
                nxt = self._ring_succ((current + 1e-15) % 1.0)
            current = nxt
            path.append(current)
            guard += 1
        return path


class ViceroyBatchRouter(BaselineBatchRouter):
    """Whole-batch butterfly routing over padded link matrices.

    The compile step freezes every node's (≤ 7) links into an ``(n, L)``
    index matrix plus a parallel level matrix (padded slots get
    ``_PAD_LEVEL``), in the same sorted order the scalar ``links`` lists
    use.  The three routing phases then run as three vectorized loops;
    because every scalar ``min(...)`` scans the sorted links list, its
    first-minimum tie-breaking is exactly ``np.argmin`` over the padded
    rows — so batch paths replay the scalar walk bit-for-bit.

    Per-lane phase guards stay aligned with the loop counter: a lane
    active in a phase hops exactly once per iteration, so the scalar
    per-lookup ``guard`` equals the number of iterations the lane has
    survived.
    """

    def __init__(self, net: ViceroyNetwork):
        self.scheme = net.name
        pts = np.asarray(net.points, dtype=np.float64)
        self.node_keys = pts
        n = pts.size
        self._max_level = net.max_level
        self._level = np.asarray(
            [net.level[x] for x in net.points], dtype=np.int64
        )
        width = max(len(net.links[x]) for x in net.points)
        self._link_idx = np.full((n, width), -1, dtype=np.int64)
        self._link_lvl = np.full((n, width), _PAD_LEVEL, dtype=np.int64)
        for i, x in enumerate(net.points):
            row = np.searchsorted(pts, np.asarray(net.links[x]))
            self._link_idx[i, : row.size] = row
            self._link_lvl[i, : row.size] = self._level[row]
        self._ring_succ_idx = (
            np.searchsorted(pts, (pts + 1e-15) % 1.0) % n
        )

    def route_batch(
        self,
        source_idx: np.ndarray,
        targets: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> BaselineBatchResult:
        pts = self.node_keys
        n = pts.size
        src = np.asarray(source_idx, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.float64) % 1.0
        size = src.size
        own = np.searchsorted(pts, tgt) % n
        rec = _PathRecorder(size, src)
        lvl = self._level
        lidx = self._link_idx
        llvl = self._link_lvl
        cur_all = src.copy()

        # Phase 1: climb to level 1 along the lowest-level up link.
        live = np.flatnonzero(lvl[cur_all] > 1)
        for _ in range(4 * self._max_level):
            if live.size == 0:
                break
            cur = cur_all[live]
            rows_lvl = llvl[cur]
            ups = rows_lvl < lvl[cur, None]
            has = ups.any(axis=1)
            live = live[has]
            if live.size == 0:
                break
            masked = np.where(ups[has], rows_lvl[has], _PAD_LEVEL)
            bi = np.argmin(masked, axis=1)
            nxt = lidx[cur_all[live], bi]
            cur_all[live] = nxt
            rec.append(live, nxt)
            live = live[lvl[nxt] > 1]

        # Phase 2: descend, greedily halving clockwise distance.
        live = np.flatnonzero(cur_all != own)
        for _ in range(4 * self._max_level):
            if live.size == 0:
                break
            cur = cur_all[live]
            d_cur = (tgt[live] - pts[cur]) % 1.0
            dn = (tgt[live, None] - pts[lidx[cur]]) % 1.0
            cand = (llvl[cur] > lvl[cur, None]) & (llvl[cur] < _PAD_LEVEL)
            cand &= dn <= d_cur[:, None]
            has = cand.any(axis=1)
            live = live[has]
            if live.size == 0:
                break
            masked = np.where(cand[has], dn[has], np.inf)
            bi = np.argmin(masked, axis=1)
            nxt = lidx[cur_all[live], bi]
            cur_all[live] = nxt
            rec.append(live, nxt)
            live = live[nxt != own[live]]

        # Phase 3: ring walk (clockwise) to the owner.
        live = np.flatnonzero(cur_all != own)
        for _ in range(n):
            if live.size == 0:
                break
            cur = cur_all[live]
            d_cur = (tgt[live] - pts[cur]) % 1.0
            rows = lidx[cur]
            dn = (tgt[live, None] - pts[rows]) % 1.0
            masked = np.where(rows >= 0, dn, np.inf)
            bi = np.argmin(masked, axis=1)
            ar = np.arange(live.size)
            nxt = rows[ar, bi]
            worse = masked[ar, bi] >= d_cur
            nxt = np.where(worse, self._ring_succ_idx[cur], nxt)
            cur_all[live] = nxt
            rec.append(live, nxt)
            live = live[nxt != own[live]]

        servers, offsets = rec.to_csr()
        return BaselineBatchResult(
            scheme=self.scheme, points=pts, source_idx=src, owner_idx=own,
            path_servers=servers, path_offsets=offsets,
        )
