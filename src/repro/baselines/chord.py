"""Chord (Stoica et al., SIGCOMM 2001) on the continuous ring.

Table 1 row: path length ``log n``, congestion ``(log n)/n``, linkage
``log n``.  Implemented with real-valued ids in ``[0, 1)``: finger ``j``
of node ``x`` is the successor of ``x + 2^{-j}``; a point is owned by its
successor node.  Routing is the standard greedy closest-preceding-finger
walk, giving ``O(log n)`` hops (≈ ½·log₂ n in expectation).

The finger table is compiled as one ``(n, m)`` index matrix (a single
``np.searchsorted`` per level), which both the scalar ``lookup_path``
and :class:`ChordBatchRouter` — the batch engine routing whole lookup
arrays one greedy hop per iteration — read from.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import checks
from .base import BaselineBatchResult, BaselineBatchRouter, BaselineDHT, _PathRecorder

__all__ = ["ChordBatchRouter", "ChordNetwork"]


class ChordNetwork(BaselineDHT):
    """A static Chord overlay on ``n`` uniformly random node ids."""

    name = "chord"

    def __init__(self, n: int, rng: np.random.Generator):
        n = checks.count(n, "n", 2)
        self._pts: np.ndarray = np.sort(rng.random(n))
        self.points: List[float] = self._pts.tolist()
        self.m = max(1, math.ceil(math.log2(n))) + 1  # finger levels
        # finger j of every node at once: successor of (x + 2^-j) mod 1
        cols = [
            np.searchsorted(self._pts, (self._pts + 2.0 ** -j) % 1.0) % n
            for j in range(1, self.m + 1)
        ]
        self._finger_idx: np.ndarray = np.stack(cols, axis=1).astype(np.int64)
        fvals = self._pts[self._finger_idx]
        # dedupe is deliberately skipped: farthest-first ordering matters
        self.fingers: Dict[float, List[float]] = {
            x: row for x, row in zip(self.points, fvals.tolist())
        }

    # ------------------------------------------------------------- geometry
    def _successor(self, y: float) -> float:
        """First node clockwise at or after ``y`` (owner of ``y``)."""
        i = bisect_left(self.points, y)
        return self.points[i % len(self.points)]

    @staticmethod
    def _clockwise(frm: float, to: float) -> float:
        """Clockwise distance from ``frm`` to ``to`` on the ring."""
        return (to - frm) % 1.0

    def _in_open_interval(self, y: float, a: float, b: float) -> bool:
        """y ∈ (a, b] clockwise."""
        return 0 < self._clockwise(a, y) <= self._clockwise(a, b)

    # ------------------------------------------------------------ interface
    @property
    def n(self) -> int:
        return len(self.points)

    def node_ids(self) -> Sequence[float]:
        return self.points

    def _owner(self, target: float) -> float:
        return self._successor(target % 1.0)

    def degree(self, node: float) -> int:
        succ = self._successor((node + 1e-15) % 1.0)
        return len(set(self.fingers[node]) | {succ})

    def batch_router(self) -> "ChordBatchRouter":
        return ChordBatchRouter(self)

    def _lookup_path(self, source: float, target: float, rng: np.random.Generator
                    ) -> List[float]:
        target = target % 1.0
        own = self.owner(target)
        path = [source]
        current = source
        for _ in range(4 * self.m + self.n):  # safety bound
            if current == own:
                return path
            succ = self._successor((current + 1e-15) % 1.0)
            if self._in_open_interval(target, current, succ):
                path.append(succ)
                return path
            # closest preceding finger of target
            best = succ
            best_d = self._clockwise(current, succ)
            for f in self.fingers[current]:
                if f == current:
                    continue
                d = self._clockwise(current, f)
                # f must strictly precede the target (not pass it)
                if d <= best_d:
                    continue
                if self._clockwise(current, f) < self._clockwise(current, target) or (
                    f == target
                ):
                    best = f
                    best_d = d
            path.append(best)
            current = best
        raise RuntimeError("chord lookup failed to converge")  # pragma: no cover


class ChordBatchRouter(BaselineBatchRouter):
    """Whole-batch greedy finger routing over the compiled arrays.

    Each iteration advances every unfinished lookup one hop: successor
    probe via one ``searchsorted``, then the closest-preceding-finger
    argmax over the ``(lanes, m)`` clockwise-distance matrix.  The
    scan-order tie-breaking of the scalar loop (first finger attaining
    the running maximum wins) is exactly ``np.argmax``'s
    first-occurrence rule, so paths replay bit-for-bit.
    """

    def __init__(self, net: ChordNetwork):
        self.scheme = net.name
        self.node_keys = net._pts
        self._finger_idx = net._finger_idx
        self._m = net.m

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
        # lanes whose source already owns the target route in zero hops
        live = np.flatnonzero(pts[src] != pts[own])
        cur = src[live]
        t = tgt[live]
        o = own[live]
        for _ in range(4 * self._m + n):
            if live.size == 0:
                break
            cpt = pts[cur]
            succ = np.searchsorted(pts, (cpt + 1e-15) % 1.0) % n
            spt = pts[succ]
            cw_t = (t - cpt) % 1.0
            cw_s = (spt - cpt) % 1.0
            in_seg = (0 < cw_t) & (cw_t <= cw_s)
            nxt = succ.copy()
            scan = np.flatnonzero(~in_seg)
            if scan.size:
                fidx = self._finger_idx[cur[scan]]          # (k, m)
                fpt = pts[fidx]
                d = (fpt - cpt[scan, None]) % 1.0
                valid = (
                    (fpt != cpt[scan, None])
                    & (d > cw_s[scan, None])
                    & ((d < cw_t[scan, None]) | (fpt == t[scan, None]))
                )
                dmask = np.where(valid, d, -1.0)
                bi = np.argmax(dmask, axis=1)
                rows = np.arange(scan.size)
                hit = dmask[rows, bi] > -1.0
                nxt[scan[hit]] = fidx[rows[hit], bi[hit]]
            rec.append(live, nxt)
            cur = nxt
            done = in_seg | (pts[cur] == pts[o])
            keep = ~done
            live, cur, t, o = live[keep], cur[keep], t[keep], o[keep]
        if live.size:  # pragma: no cover - scalar bound, never hit
            raise RuntimeError("chord batch lookup failed to converge")
        servers, offsets = rec.to_csr()
        return BaselineBatchResult(
            scheme=self.scheme, points=pts, source_idx=src, owner_idx=own,
            path_servers=servers, path_offsets=offsets,
        )
