"""Koorde (Kaashoek & Karger, IPTPS 2003) — the direct De Bruijn DHT.

The paper (§1.1) contrasts its continuous-discrete De Bruijn emulation
with the "direct" emulations of Fraigniaud–Gauron, Kaashoek–Karger and
Abraham et al.  Koorde is the cleanest of those: each node keeps its ring
successor and one De Bruijn pointer ``d = predecessor(2m)``, and routing
shifts the target's bits into an *imaginary* De Bruijn node, hopping to
``d`` when the imaginary node doubles and to the successor to re-align —
``O(log n)`` hops with constant linkage.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import checks
from .base import BaselineBatchResult, BaselineBatchRouter, BaselineDHT, _PathRecorder

__all__ = ["KoordeBatchRouter", "KoordeNetwork"]


class KoordeNetwork(BaselineDHT):
    """A static Koorde overlay on the continuous ring."""

    name = "koorde"

    def __init__(self, n: int, rng: np.random.Generator):
        n = checks.count(n, "n", 2)
        self._pts: np.ndarray = np.sort(rng.random(n))
        self.points: List[float] = self._pts.tolist()
        self.bits = max(1, math.ceil(math.log2(n))) + 2
        # De Bruijn pointer of every node at once: predecessor(2x mod 1)
        self._db_idx: np.ndarray = (
            np.searchsorted(self._pts, (2 * self._pts) % 1.0, side="right") - 1
        ) % n
        self.debruijn: Dict[float, float] = dict(
            zip(self.points, self._pts[self._db_idx].tolist())
        )

    # ------------------------------------------------------------- geometry
    def _successor(self, y: float) -> float:
        i = bisect_left(self.points, y % 1.0)
        return self.points[i % len(self.points)]

    def _predecessor(self, y: float) -> float:
        i = bisect_right(self.points, y % 1.0) - 1
        return self.points[i % len(self.points)]

    @staticmethod
    def _in_interval(y: float, a: float, b: float) -> bool:
        """y ∈ (a, b] clockwise on the ring."""
        return 0 < (y - a) % 1.0 <= (b - a) % 1.0

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
        pred = self._predecessor((node - 1e-15) % 1.0)
        return len({succ, pred, self.debruijn[node]} - {node})

    def batch_router(self) -> "KoordeBatchRouter":
        return KoordeBatchRouter(self)

    def _lookup_path(self, source: float, target: float, rng: np.random.Generator
                    ) -> List[float]:
        """Koorde's imaginary-node routing.

        The imaginary position ``i`` starts at the source and absorbs one
        target bit per De Bruijn hop: ``i ← 2i + b (mod 1)``.  The real
        message sits at the node preceding ``i``; successor hops realign
        when the imaginary point drifts outside the current segment.
        """
        target = target % 1.0
        path = [source]
        current = source
        # target bits, most significant first
        kshift = int(target * (1 << self.bits))
        bits_left = self.bits
        # the imaginary node starts just ahead of the source so the first
        # De Bruijn hop can fire (i ∈ (m, successor] in Koorde's pseudocode).
        # Truncate it to B bits: after B left-shifts its own bits must have
        # flushed out completely, leaving exactly the target's bits.
        imaginary = self._successor((source + 1e-15) % 1.0)
        imaginary = math.ceil(imaginary * (1 << self.bits)) / (1 << self.bits) % 1.0
        guard = 0
        while guard < 8 * self.bits + 2 * self.n:
            guard += 1
            succ = self._successor((current + 1e-15) % 1.0)
            if self._in_interval(target, current, succ):
                if succ != current:
                    path.append(succ)
                return path
            if bits_left > 0 and self._in_interval(imaginary, current, succ):
                # shift one target bit into the imaginary node (low end of
                # its B-bit window) and follow the De Bruijn pointer
                b = (kshift >> (bits_left - 1)) & 1
                bits_left -= 1
                imaginary = (2 * imaginary + b / (1 << self.bits)) % 1.0
                nxt = self.debruijn[current]
            else:
                nxt = succ
            if nxt != current:
                path.append(nxt)
            current = nxt
        raise RuntimeError("koorde lookup failed to converge")  # pragma: no cover


class KoordeBatchRouter(BaselineBatchRouter):
    """Whole-batch imaginary-node routing over the compiled arrays.

    Per-lane state is ``(current index, remaining target bits, shift
    register, imaginary point)``; each iteration evaluates the scalar
    loop body for every pending lookup at once — successor probe via
    one ``searchsorted``, interval tests elementwise, the De Bruijn
    gather where the imaginary point falls in the current segment.  All
    float updates (``2i + b/2^B mod 1``) repeat the scalar operation
    order, so the replay is bit-exact.
    """

    def __init__(self, net: KoordeNetwork):
        self.scheme = net.name
        self.node_keys = net._pts
        self._db_idx = net._db_idx
        self._bits = net.bits

    def route_batch(
        self,
        source_idx: np.ndarray,
        targets: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> BaselineBatchResult:
        pts = self.node_keys
        n = pts.size
        bits = self._bits
        scale = float(1 << bits)
        src = np.asarray(source_idx, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.float64) % 1.0
        size = src.size
        own = np.searchsorted(pts, tgt) % n
        rec = _PathRecorder(size, src)
        live = np.arange(size)
        cur = src.copy()
        t = tgt.copy()
        kshift = (t * scale).astype(np.int64)
        bits_left = np.full(size, bits, dtype=np.int64)
        imag = pts[np.searchsorted(pts, (pts[src] + 1e-15) % 1.0) % n]
        imag = np.ceil(imag * scale) / scale % 1.0
        for _ in range(8 * bits + 2 * n):
            if live.size == 0:
                break
            cpt = pts[cur]
            succ = np.searchsorted(pts, (cpt + 1e-15) % 1.0) % n
            spt = pts[succ]
            cw_s = (spt - cpt) % 1.0
            cw_t = (t - cpt) % 1.0
            done = (0 < cw_t) & (cw_t <= cw_s)
            cw_i = (imag - cpt) % 1.0
            use_db = ~done & (bits_left > 0) & (0 < cw_i) & (cw_i <= cw_s)
            shift = np.maximum(bits_left - 1, 0)
            b = np.where(use_db, (kshift >> shift) & 1, 0)
            imag = np.where(use_db, (2 * imag + b / scale) % 1.0, imag)
            bits_left = bits_left - use_db
            nxt = np.where(use_db, self._db_idx[cur], succ)
            # the scalar loop appends only on an actual move
            moved = pts[nxt] != cpt
            row = np.where(moved, nxt, -1)
            rec.append(live, row)
            cur = nxt
            keep = ~done
            live, cur, t = live[keep], cur[keep], t[keep]
            kshift, bits_left, imag = kshift[keep], bits_left[keep], imag[keep]
        if live.size:  # pragma: no cover - scalar bound, never hit
            raise RuntimeError("koorde batch lookup failed to converge")
        servers, offsets = rec.to_csr()
        return BaselineBatchResult(
            scheme=self.scheme, points=pts, source_idx=src, owner_idx=own,
            path_servers=servers, path_offsets=offsets,
        )

