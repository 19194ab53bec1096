"""CAN — the Content Addressable Network (Ratnasamy et al., SIGCOMM 2001).

Table 1 row: with dimension ``d``, path length ``d·n^{1/d}``, congestion
``d·n^{1/d-1}``, linkage ``d`` (2d face neighbours).  The d-dimensional
torus ``[0,1)^d`` is partitioned into boxes by successive joins — each
join splits the box containing a random point along its longest side —
and routing greedily forwards toward the target through face neighbours.

Construction descends the binary split tree (each join is one root-leaf
walk instead of a scan over all boxes) and maintains face adjacency
incrementally: a box adjacent to a fresh half either touches a face
plane inherited from the parent box (so it was already a neighbour of
the parent — per-dimension overlaps only shrink under splitting) or
touches the new interior mid plane, which by disjointness only the
sibling can do; the equivalence test checks it against the quadratic
definition.

Only the first coordinate participates in the 1D target interface of
:class:`~repro.baselines.base.BaselineDHT`; full d-dimensional targets
are derived from the 1D point via digit interleaving so the target
distribution stays uniform over the torus.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import checks
from .base import BaselineBatchResult, BaselineBatchRouter, BaselineDHT, _PathRecorder

__all__ = ["CanBatchRouter", "CanNetwork"]

#: Bits of the 1D key consumed when interleaving it over the torus.
_COORD_BITS = 48


class _Box:
    """An axis-aligned box of the torus (half-open in every dimension)."""

    __slots__ = ("lo", "hi", "index")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, index: int):
        self.lo = lo
        self.hi = hi
        self.index = index

    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2

    def split(self, new_index: int) -> "_Box":
        """Halve along the longest side; returns the new upper box."""
        dim = int(np.argmax(self.hi - self.lo))
        mid = (self.lo[dim] + self.hi[dim]) / 2
        upper_lo = self.lo.copy()
        upper_lo[dim] = mid
        upper = _Box(upper_lo, self.hi.copy(), new_index)
        new_hi = self.hi.copy()
        new_hi[dim] = mid
        self.hi = new_hi
        return upper


def _face_adjacent(a: _Box, b: _Box, d: int) -> bool:
    """Face adjacency: overlap in d-1 dims, touching (mod 1) in one."""
    touch_dim = -1
    for dim in range(d):
        lo1, hi1 = a.lo[dim], a.hi[dim]
        lo2, hi2 = b.lo[dim], b.hi[dim]
        overlap = min(hi1, hi2) - max(lo1, lo2)
        if overlap > 0:
            continue
        touching = (
            hi1 == lo2 or hi2 == lo1
            or (hi1 == 1.0 and lo2 == 0.0)
            or (hi2 == 1.0 and lo1 == 0.0)
        )
        if touching and touch_dim < 0:
            touch_dim = dim
        else:
            return False
    return touch_dim >= 0


class CanNetwork(BaselineDHT):
    """A static CAN on ``n`` zones in ``d`` dimensions."""

    name = "can"

    def __init__(self, n: int, rng: np.random.Generator, d: int = 2):
        n, self.d = checks.count(n, "n", 2), checks.count(d, "d", 1)
        self.name = f"can(d={d})"
        first = _Box(np.zeros(d), np.ones(d), 0)
        self.boxes: List[_Box] = [first]
        # split tree: internal nodes split on (dim, mid); leaves hold a box
        self._t_dim: List[int] = [-1]
        self._t_mid: List[float] = [0.0]
        self._t_child: List[List[int]] = [[-1, -1]]  # [lower, upper]
        self._t_leaf: List[int] = [0]                # box index, -1 internal
        leaf_of = [0]                                # box index -> tree node
        nb: List[set] = [set()]
        for k in range(1, n):
            p = rng.random(d)
            node = 0
            while self._t_leaf[node] < 0:
                side = int(p[self._t_dim[node]] >= self._t_mid[node])
                node = self._t_child[node][side]
            i = self._t_leaf[node]
            target = self.boxes[i]
            upper = target.split(k)
            self.boxes.append(upper)
            # the leaf becomes an internal node with two fresh leaves;
            # the split dimension is where the halves' bounds now differ
            dim = int(np.flatnonzero(target.hi != upper.hi)[0])
            self._t_dim[node] = dim
            self._t_mid[node] = float(upper.lo[dim])
            self._t_leaf[node] = -1
            lo_node, hi_node = len(self._t_leaf), len(self._t_leaf) + 1
            self._t_child[node] = [lo_node, hi_node]
            for leaf_box in (i, k):
                self._t_dim.append(-1)
                self._t_mid.append(0.0)
                self._t_child.append([-1, -1])
                self._t_leaf.append(leaf_box)
            leaf_of[i] = lo_node
            leaf_of.append(hi_node)
            # incremental face adjacency: candidates are the parent's old
            # neighbours plus the sibling (see module docstring)
            old_nb = nb[i]
            for j in old_nb:
                nb[j].discard(i)
            nb[i] = set()
            nb.append(set())
            for j in old_nb:
                if _face_adjacent(target, self.boxes[j], d):
                    nb[i].add(j)
                    nb[j].add(i)
                if _face_adjacent(upper, self.boxes[j], d):
                    nb[k].add(j)
                    nb[j].add(k)
            if _face_adjacent(target, upper, d):
                nb[i].add(k)
                nb[k].add(i)
        self.neighbors: List[List[int]] = [sorted(s) for s in nb]
        # frozen arrays for tree descent / batch routing
        self._tree_dim = np.asarray(self._t_dim, dtype=np.int64)
        self._tree_mid = np.asarray(self._t_mid, dtype=np.float64)
        self._tree_child = np.asarray(self._t_child, dtype=np.int64)
        self._tree_leaf = np.asarray(self._t_leaf, dtype=np.int64)
        self.box_lo = np.stack([b.lo for b in self.boxes])
        self.box_hi = np.stack([b.hi for b in self.boxes])

    # ------------------------------------------------------------- targets
    def point_to_coords(self, y: float) -> np.ndarray:
        """Spread a 1D point over the torus by interleaving its bits."""
        return self.coords_of(np.asarray([checks.finite(y, "y")], dtype=np.float64))[0]

    def coords_of(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`point_to_coords` for a whole target array."""
        ys = np.asarray(ys, dtype=np.float64) % 1.0
        v = (ys * float(1 << _COORD_BITS)).astype(np.int64)
        coords = np.zeros((ys.size, self.d))
        scale = np.ones(self.d)
        for k in range(_COORD_BITS):
            dim = k % self.d
            scale[dim] /= 2
            bit = (v >> (_COORD_BITS - 1 - k)) & 1
            coords[:, dim] += scale[dim] * bit
        return coords

    def _zone_of(self, p: np.ndarray) -> int:
        return int(self.zones_of(p[None, :])[0])

    def zones_of(self, ps: np.ndarray) -> np.ndarray:
        """Owning zone of every torus point, via batch tree descent."""
        ps = np.asarray(ps, dtype=np.float64)
        node = np.zeros(ps.shape[0], dtype=np.int64)
        while True:
            at_leaf = self._tree_leaf[node] >= 0
            if at_leaf.all():
                break
            inner = np.flatnonzero(~at_leaf)
            nd = node[inner]
            side = (
                ps[inner, self._tree_dim[nd]] >= self._tree_mid[nd]
            ).astype(np.int64)
            node[inner] = self._tree_child[nd, side]
        return self._tree_leaf[node]

    # ------------------------------------------------------------ interface
    @property
    def n(self) -> int:
        return len(self.boxes)

    def node_ids(self) -> Sequence[int]:
        return range(len(self.boxes))

    def _owner(self, target: float) -> int:
        return self._zone_of(self.point_to_coords(target))

    def degree(self, node: int) -> int:
        return len(self.neighbors[checks.count(node, "node", 0, self.n)])

    def batch_router(self) -> "CanBatchRouter":
        return CanBatchRouter(self)

    def _face_neighbor(self, box_idx: int, dim: int, direction: int,
                       p: np.ndarray) -> int:
        """The face neighbour of ``box`` crossed when leaving along ``dim``.

        ``direction`` +1 means leaving through ``hi[dim]`` (possibly
        wrapping to 0), −1 through ``lo[dim]``.  The neighbour must
        contain ``p`` in every other dimension — faces tile the boundary,
        so exactly one such neighbour exists.
        """
        cur = self.boxes[box_idx]
        for j in self.neighbors[box_idx]:
            b = self.boxes[j]
            if direction > 0:
                touching = b.lo[dim] == cur.hi[dim] or (
                    cur.hi[dim] == 1.0 and b.lo[dim] == 0.0
                )
            else:
                touching = b.hi[dim] == cur.lo[dim] or (
                    cur.lo[dim] == 0.0 and b.hi[dim] == 1.0
                )
            if not touching:
                continue
            if all(
                b.lo[k] <= p[k] < b.hi[k] for k in range(self.d) if k != dim
            ):
                return j
        raise AssertionError("torus faces must tile")  # pragma: no cover

    def _lookup_path(self, source: int, target: float, rng: np.random.Generator
                    ) -> List[int]:
        """Straight-line CAN routing: fix one coordinate at a time.

        For each dimension, walk through face neighbours in the shorter
        torus direction until the current zone spans the target's
        coordinate, then pin that coordinate and proceed to the next
        dimension — the canonical greedy giving ``(d/4)·n^{1/d}`` expected
        hops.
        """
        goal_p = self.point_to_coords(target)
        path = [source]
        current = source
        p = self.boxes[current].center()
        for dim in range(self.d):
            cur = self.boxes[current]
            # shorter torus direction from the zone to the goal coordinate
            fwd = (goal_p[dim] - cur.lo[dim]) % 1.0
            back = (cur.hi[dim] - goal_p[dim]) % 1.0
            direction = 1 if fwd <= back + 1e-12 else -1
            guard = 0
            while not (cur.lo[dim] <= goal_p[dim] < cur.hi[dim]):
                nxt = self._face_neighbor(current, dim, direction, p)
                # entering coordinate along dim
                p[dim] = self.boxes[nxt].lo[dim] if direction > 0 else (
                    self.boxes[nxt].hi[dim] - 1e-12
                )
                current = nxt
                cur = self.boxes[current]
                path.append(current)
                guard += 1
                if guard > 4 * len(self.boxes):  # pragma: no cover
                    raise RuntimeError("CAN lookup failed to converge")
            p[dim] = goal_p[dim]
        return path


class CanBatchRouter(BaselineBatchRouter):
    """Whole-batch straight-line routing over padded neighbour matrices.

    Compilation freezes zone bounds as ``(n, d)`` arrays and the sorted
    face-neighbour lists as an ``(n, K)`` index matrix (pad ``-1``).
    Every outer iteration first *settles* each pending lookup — pinning
    coordinates and advancing its dimension counter while the current
    zone spans the goal, exactly the scalar per-dimension loop entry —
    then hops every still-pending lookup through one face neighbour.
    The neighbour scan keeps the sorted order, so ``np.argmax`` over the
    first valid slot reproduces the scalar first-match choice and paths
    replay bit-for-bit, including the entering-coordinate updates
    (``lo`` or ``hi − 1e-12``) that later dimensions' containment tests
    depend on.
    """

    def __init__(self, net: CanNetwork):
        self.scheme = net.name
        self.node_keys = np.arange(net.n, dtype=np.float64)
        self._net = net
        self._d = net.d
        self._lo = net.box_lo
        self._hi = net.box_hi
        width = max(1, max(len(r) for r in net.neighbors))
        self._nbr = np.full((net.n, width), -1, dtype=np.int64)
        for i, row in enumerate(net.neighbors):
            self._nbr[i, : len(row)] = row

    def route_batch(
        self,
        source_idx: np.ndarray,
        targets: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> BaselineBatchResult:
        net = self._net
        d = self._d
        lo, hi = self._lo, self._hi
        n = self.node_keys.size
        src = np.asarray(source_idx, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.float64) % 1.0
        size = src.size
        goal = net.coords_of(tgt)
        own = net.zones_of(goal)
        rec = _PathRecorder(size, src)

        cur = src.copy()
        p = (lo[cur] + hi[cur]) / 2            # box centers
        dim_i = np.zeros(size, dtype=np.int64)
        direction = np.zeros(size, dtype=np.int64)
        fresh_dim = np.ones(size, dtype=bool)  # direction not yet chosen
        live = np.arange(size)

        def settle(live: np.ndarray) -> np.ndarray:
            """Pin spanned coordinates / advance dims; drop finished lanes."""
            while live.size:
                dims = np.minimum(dim_i[live], d - 1)
                g = goal[live, dims]
                spanned = (dim_i[live] < d) & (lo[cur[live], dims] <= g) & (
                    g < hi[cur[live], dims]
                )
                if not spanned.any():
                    break
                idx = live[spanned]
                p[idx, dim_i[idx]] = goal[idx, dim_i[idx]]
                dim_i[idx] += 1
                fresh_dim[idx] = True
                live = live[dim_i[live] < d]
            return live[dim_i[live] < d]

        live = settle(live)
        guard = np.zeros(size, dtype=np.int64)
        for _ in range(4 * n * d + d + 1):
            if live.size == 0:
                break
            dims = dim_i[live]
            # choose torus direction on first visit of each dimension
            nf = np.flatnonzero(fresh_dim[live])
            if nf.size:
                idx = live[nf]
                dm = dim_i[idx]
                fwd = (goal[idx, dm] - lo[cur[idx], dm]) % 1.0
                back = (hi[cur[idx], dm] - goal[idx, dm]) % 1.0
                direction[idx] = np.where(fwd <= back + 1e-12, 1, -1)
                fresh_dim[idx] = False
                guard[idx] = 0
            c = cur[live]
            dirs = direction[live]
            rows = self._nbr[c]                              # (k, K)
            safe = np.maximum(rows, 0)
            cur_hi = hi[c, dims]
            cur_lo = lo[c, dims]
            ar = np.arange(live.size)
            nb_lo = lo[safe, dims[:, None]]
            nb_hi = hi[safe, dims[:, None]]
            pos = (nb_lo == cur_hi[:, None]) | (
                (cur_hi[:, None] == 1.0) & (nb_lo == 0.0)
            )
            neg = (nb_hi == cur_lo[:, None]) | (
                (cur_lo[:, None] == 0.0) & (nb_hi == 1.0)
            )
            touching = np.where((dirs > 0)[:, None], pos, neg)
            inside = (lo[safe] <= p[live, None, :]) & (
                p[live, None, :] < hi[safe]
            )
            np.put_along_axis(
                inside, dims[:, None, None], True, axis=2
            )
            valid = touching & inside.all(axis=2) & (rows >= 0)
            bi = np.argmax(valid, axis=1)
            # faces tile the boundary: a valid slot always exists
            nxt = rows[ar, bi]
            enter = np.where(
                dirs > 0, lo[nxt, dims], hi[nxt, dims] - 1e-12
            )
            p[live, dims] = enter
            cur[live] = nxt
            rec.append(live, nxt)
            guard[live] += 1
            if (guard[live] > 4 * n).any():  # pragma: no cover
                raise RuntimeError("CAN batch lookup failed to converge")
            live = settle(live)

        servers, offsets = rec.to_csr()
        return BaselineBatchResult(
            scheme=self.scheme, points=self.node_keys, source_idx=src,
            owner_idx=own, path_servers=servers, path_offsets=offsets,
        )
