"""Tapestry / Pastry-style prefix (Plaxton) routing — Table 1's second row.

Nodes carry base-``b`` digit ids (derived from their ring points); each
node keeps, for every prefix length ``ℓ`` and digit ``v``, a link to some
node agreeing with it on the first ``ℓ`` digits and having ``v`` next
(the Plaxton mesh).  Routing fixes one digit per hop — ``log_b n`` hops
with ``b·log_b n`` linkage.  Missing table entries fall back to surrogate
routing (deterministically take the next existing digit), which makes the
root of every target well defined exactly as in Plaxton/Tapestry.

Because node points are sorted, the nodes sharing any prefix form a
contiguous run of the sorted prefix-code array, so the whole Plaxton
mesh is compiled level-by-level with two ``np.searchsorted`` calls per
level (bucket bounds) plus one uniform draw per table slot (random
bucket member) — no per-node Python loops.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import checks
from .base import BaselineBatchResult, BaselineBatchRouter, BaselineDHT, _PathRecorder

__all__ = ["TapestryBatchRouter", "TapestryNetwork"]


class TapestryNetwork(BaselineDHT):
    """A static Plaxton mesh over ``n`` random node ids."""

    name = "tapestry"

    def __init__(self, n: int, rng: np.random.Generator, base: int = 4):
        n, self.base = checks.count(n, "n", 2), checks.count(base, "base", 2)
        self.levels = max(1, math.ceil(math.log(n, base))) + 2
        self._pts: np.ndarray = np.sort(rng.random(n))
        self.points: List[float] = self._pts.tolist()
        # full-length digit codes, sorted because the points are
        self._codes: np.ndarray = (
            self._pts * float(base**self.levels)
        ).astype(np.int64)
        self.ids: List[Tuple[int, ...]] = [self._digits(p) for p in self.points]
        self._build_tables(rng)

    def _digits(self, y: float) -> Tuple[int, ...]:
        v = int((y % 1.0) * self.base**self.levels)
        out = []
        for k in range(self.levels - 1, -1, -1):
            out.append((v // self.base**k) % self.base)
        return tuple(out)

    def _build_tables(self, rng: np.random.Generator) -> None:
        """table[node][ℓ][v] = a node matching ids[node][:ℓ] + (v,), or None.

        Level ``ℓ``'s buckets are the runs of equal length-``ℓ+1`` prefix
        codes; two searchsorteds give every slot's bucket bounds at once.
        Random choice among the bucket (real Tapestry picks by network
        proximity) spreads relay load evenly.  The digit fixed per hop
        depends only on the global bucket *availability*, and the deepest
        buckets are singletons, so every target's Plaxton root remains
        unique regardless of these choices.
        """
        n = self._codes.size
        base, levels = self.base, self.levels
        self._table_idx = np.full((n, levels, base), -1, dtype=np.int64)
        offs = np.arange(base, dtype=np.int64)
        for ell in range(levels):
            child = self._codes // base ** (levels - ell - 1)
            want = (self._codes // base ** (levels - ell))[:, None] * base + offs
            lo = np.searchsorted(child, want, side="left")
            hi = np.searchsorted(child, want, side="right")
            cnt = hi - lo
            pick = lo + (rng.random((n, base)) * cnt).astype(np.int64)
            self._table_idx[:, ell, :] = np.where(cnt > 0, pick, -1)
        self.table: List[List[List[Optional[int]]]] = [
            [[None if e < 0 else e for e in row] for row in rows]
            for rows in self._table_idx.tolist()
        ]
        # nodes sharing a *full* id (possible at finite digit length) keep a
        # sibling link to a canonical member, so every root is unique
        self._canon_idx: np.ndarray = np.searchsorted(
            self._codes, self._codes, side="left"
        )
        self._canonical = {
            ident: int(self._canon_idx[i]) for i, ident in enumerate(self.ids)
        }

    # ------------------------------------------------------------- routing
    def _route(self, source: int, digits: Tuple[int, ...]) -> List[int]:
        """Stateful Plaxton descent: fix one digit per level.

        At level ``ℓ`` the desired digit is ``digits[ℓ]``; if no node
        carries the resolved prefix plus that digit, surrogate routing
        substitutes the cyclically-next *available* digit and continues —
        availability is a global property of the prefix, so every source
        resolves the same digit string and reaches the same root.
        """
        path = [source]
        current = source
        for ell in range(self.levels):
            desired = digits[ell]
            hop = None
            for off in range(self.base):
                cand = self.table[current][ell][(desired + off) % self.base]
                if cand is not None:
                    hop = cand
                    break
            if hop is None:  # pragma: no cover - own bucket is never empty
                return path
            if hop != current:
                path.append(hop)
                current = hop
        # normalise within the (rare) full-id-collision bucket
        root = self._canonical[self.ids[current]]
        if root != current:
            path.append(root)
        return path

    # ------------------------------------------------------------ interface
    @property
    def n(self) -> int:
        return len(self.points)

    def node_ids(self) -> Sequence[int]:
        return range(len(self.points))

    def _owner(self, target: float) -> int:
        """The Plaxton root: where surrogate routing terminates."""
        return self._route(0, self._digits(target % 1.0))[-1]

    def degree(self, node: int) -> int:
        node = checks.count(node, "node", 0, self.n)
        links = {
            hop
            for rows in self.table[node]
            for hop in rows
            if hop is not None and hop != node
        }
        return len(links)

    def batch_router(self) -> "TapestryBatchRouter":
        return TapestryBatchRouter(self)

    def _lookup_path(self, source: int, target: float, rng: np.random.Generator
                    ) -> List[int]:
        return self._route(source, self._digits(target % 1.0))


class TapestryBatchRouter(BaselineBatchRouter):
    """Whole-batch Plaxton descent over the compiled ``(n, L, b)`` mesh.

    All lookups march down the levels in lockstep — level ``ℓ`` is one
    gather of each lane's table row, a cyclic column reorder starting at
    the desired digit, and an ``argmax`` for the first filled slot (the
    scalar surrogate scan order) — so after ``levels`` iterations plus
    the canonical normalization every path replays the scalar
    ``_route`` exactly.
    """

    def __init__(self, net: TapestryNetwork):
        self.scheme = net.name
        self.node_keys = np.arange(net.n, dtype=np.float64)
        self._table = net._table_idx
        self._canon = net._canon_idx
        self._base = net.base
        self._levels = net.levels

    def route_batch(
        self,
        source_idx: np.ndarray,
        targets: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> BaselineBatchResult:
        base, levels = self._base, self._levels
        src = np.asarray(source_idx, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.float64) % 1.0
        size = src.size
        rec = _PathRecorder(size, src)
        v = (tgt * float(base**levels)).astype(np.int64)
        cur = src.copy()
        lanes = np.arange(size)
        offs = np.arange(base, dtype=np.int64)
        for ell in range(levels):
            desired = (v // base ** (levels - 1 - ell)) % base
            rows = self._table[cur, ell]                  # (size, base)
            cols = (desired[:, None] + offs) % base
            cands = rows[lanes[:, None], cols]
            bi = np.argmax(cands >= 0, axis=1)
            hop = cands[lanes, bi]
            # own bucket is never empty, so hop >= 0 always
            moved = hop != cur
            rec.append(lanes[moved], hop[moved])
            cur = np.where(moved, hop, cur)
        root = self._canon[cur]
        renorm = root != cur
        if renorm.any():
            rec.append(lanes[renorm], root[renorm])
            cur = np.where(renorm, root, cur)
        servers, offsets = rec.to_csr()
        return BaselineBatchResult(
            scheme=self.scheme, points=self.node_keys, source_idx=src,
            owner_idx=cur, path_servers=servers, path_offsets=offsets,
        )
