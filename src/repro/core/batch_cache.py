"""Vectorized dynamic caching — the §3 hot-spot protocol on array state.

The scalar :class:`~repro.core.caching.CacheSystem` serves one request at
a time through Python sets and Counters; this module serves whole request
*batches* against array-backed active trees:

* the active set of every item's path tree is one sorted ``int64`` array
  of digit-prefix keys (``key(()) = 0``, ``key(s + (d,)) = key(s)·Δ + d
  + 1`` — a bijective base-Δ code), all trees packed into a single
  composite key space ``tree·K + node_key`` so one ``np.searchsorted``
  answers membership for requests of every tree at once;
* ``serving_node`` resolution is a descent of each request's prefix
  keys while they stay active — a running key / offset / depth per
  request, never requests × levels, and one bulk membership test per
  level (prefix-closure makes the first miss the answer);
* replication (step 1 of the protocol) runs as a fixpoint over sorted
  request groups that reproduces the *sequential* semantics exactly —
  the ``(c+1)``-th hit of a leaf replicates, the triggering request is
  served where it entered, strictly later deep entries reroute to the
  children (see :meth:`BatchCacheEngine.serve_batch`);
* epoch counters accumulate with ``np.bincount``; the end-of-epoch
  collapse (steps 2–3) is a vectorized sibling-group reduction applied
  as set patches until it reaches the same fixpoint as the scalar
  while-changed loop;
* cache-shortened paths are emitted as CSR — level by level over the
  live requests into one ``int32`` buffer of the true path lengths,
  which :func:`~repro.core.walk.ragged_to_csr` compresses — so cached
  batches book into :class:`~repro.core.routing_stats.BatchCongestion`.

Every float operation mirrors the scalar engine ULP-for-ULP (node
positions are the closed-form walks ``(root + Σ d_k Δ^k) / Δ^j`` with the
same IEEE operation order), so served nodes, replication counts, message
and hit counters, and ``summary()`` are *bit-identical* to a scalar
:class:`~repro.core.caching.CacheSystem` replay of the same request
stream — the contract the parity test suite asserts.

Salting (the mitigation mode of both engines): with ``salts = s > 1``
each item is spread over ``s`` deterministic salt points — request
sources pick a salt via :func:`~repro.core.caching.salt_indices`, the
and the request routes to the salted tree rooted at
``h(salted_key(item, j))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import checks
from ..hashing.kwise import Key
from .caching import salt_indices, salted_key
from .continuous import Digits
from .network import DistanceHalvingNetwork
from .segments import fold_unit
from .walk import (PathResult, integral_array, normalize_points,
                   per_lane_matrix, ragged_to_csr)

__all__ = ["BatchCacheEngine", "BatchCacheResult", "decode_node_key"]

#: Digits generated per request when ``serve_batch`` draws its own tau —
#: matches the experiments' ``DH_TAU_DIGITS`` headroom.
_TAU_DIGITS = 64

#: Rows of tau drawn per ``rng.integers`` call: the call's ``int64``
#: block is the only wide copy a drawn tau ever has.
_TAU_BLOCK = 4096


def _draw_tau(rng: np.random.Generator, delta: int, size: int) -> np.ndarray:
    """``rng.integers(0, Δ, size=(size, 64))``, stored narrow.

    The same ``int64`` draw, made ``_TAU_BLOCK`` rows at a time and
    written into a matrix of the smallest unsigned dtype that holds
    ``Δ − 1`` (``uint8`` up to ``Δ = 256``).  The bounded-integer
    generator consumes its bit stream one value at a time, so the blocks
    yield the same digits, and leave ``rng`` in the same state, as one
    call would — the seeded stream is unchanged, only its storage is
    an eighth.
    """
    tau = np.empty((size, _TAU_DIGITS), dtype=np.min_scalar_type(delta - 1))
    for lo in range(0, size, _TAU_BLOCK):
        hi = min(lo + _TAU_BLOCK, size)
        tau[lo:hi] = rng.integers(0, delta, size=(hi - lo, _TAU_DIGITS))
    return tau


def _isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``values`` in a *sorted* int table."""
    if len(table) == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(table, values)
    pos_c = np.minimum(pos, len(table) - 1)
    return (pos < len(table)) & (table[pos_c] == values)


def decode_node_key(key: int, delta: int) -> Digits:
    """The path-tree address a node key codes.

    Keys are the bijective base-Δ code of an address: the root ``()`` is
    0 and a child's key is ``key·Δ + d + 1`` for digit ``d``.
    """
    key, delta = checks.count(key, "key"), checks.count(delta, "delta", 2)
    digits: List[int] = []
    while key:
        key, d = divmod(key - 1, delta)
        digits.append(d)
    return tuple(reversed(digits))


@dataclass
class BatchCacheResult(PathResult):
    """Array-of-structs outcome of one served batch.

    Mirrors :class:`~repro.core.caching.CachedLookup` field-for-field as
    arrays: ``serving_depth``/``serving_node_key`` identify the cache
    node that supplied each request, ``hops`` counts the cache-shortened
    path, ``lookup_hops`` the full Distance Halving route it truncated.
    ``path_servers``/``path_offsets`` is the CSR encoding of the
    shortened server paths, always kept and read through the
    :class:`~repro.core.walk.PathResult` contract
    :meth:`~repro.core.routing_stats.BatchCongestion.record_batch`
    consumes.
    """

    points: np.ndarray
    items: np.ndarray
    trees: np.ndarray
    t: np.ndarray
    serving_depth: np.ndarray
    serving_node_key: np.ndarray
    serving_server_idx: np.ndarray
    hops: np.ndarray
    lookup_hops: np.ndarray
    path_servers: np.ndarray = field(repr=False, default=None)
    path_offsets: np.ndarray = field(repr=False, default=None)
    delta: int = 2

    @property
    def size(self) -> int:
        """Requests in the batch."""
        return int(self.t.size)

    @property
    def saved_hops(self) -> np.ndarray:
        """Hops avoided relative to routing all the way to the owner."""
        return np.maximum(0, self.lookup_hops - self.hops)

    def serving_node(self, i: int) -> Digits:
        """Digit address of the cache node that served request ``i``."""
        i = checks.count(i, "i", 0, self.serving_node_key.size)
        return decode_node_key(int(self.serving_node_key[i]), self.delta)


class BatchCacheEngine:
    """Batch server for the Continuous Hot Spots Protocol (§3.1).

    Parameters
    ----------
    net:
        The network; the engine snapshots its decomposition via
        ``net.compile_router(with_adjacency=True)`` (a frozen router —
        membership changes raise the stale-router error rather than
        silently shifting cached node covers mid-epoch).
    items:
        The item universe, fixed up front so every tree gets a dense
        index; ``serve_batch`` takes item *indices* into this list.
    threshold:
        The paper's ``c`` (default ``⌈log₂ n⌉``, as in the scalar
        engine).
    salts:
        ``1`` reproduces the paper's protocol exactly; ``s > 1`` spreads
        each item over ``s`` salted trees (hot-key mitigation mode).
        ``threshold`` and ``salts`` must be ints ``>= 1``: anything else,
        a bool or ``2.5`` included, raises ``ValueError``.
    router:
        Optionally reuse an existing adjacency-enabled router snapshot.
    """

    def __init__(
        self,
        net: DistanceHalvingNetwork,
        items: Sequence[Key],
        threshold: Optional[int] = None,
        salts: int = 1,
        router=None,
    ) -> None:
        if len(items) == 0:
            raise ValueError("BatchCacheEngine needs a non-empty item universe")
        self.salts = checks.count(salts, "salts", 1)
        self.c = (checks.count(threshold, "threshold", 1)
                  if threshold is not None
                  else int(np.ceil(np.log2(max(2, net.n)))))
        self.net = net
        self.items: List[Key] = list(items)
        self._router = router if router is not None else net.compile_router(
            with_adjacency=True)
        self.delta = int(self._router.delta)

        self.n_items = len(self.items)
        self.n_trees = self.n_items * self.salts
        # Composite key layout: tree·K + node_key with K = Δ^(depth_cap+2),
        # sized so child-range queries of the deepest node stay below K and
        # the whole space stays inside int64.  The float64 cap (exact
        # offsets need Δ^depth < 2^53) binds long before real walks do.
        log_d = math.log2(self.delta)
        tree_bits = max(1, math.ceil(math.log2(self.n_trees + 1)))
        self._depth_cap = min(int((62 - tree_bits) / log_d) - 2,
                              int(52 / log_d))
        if self._depth_cap < 4:
            raise ValueError(
                f"too many trees ({self.n_trees}) for the int64 composite "
                f"key space at delta={self.delta}")
        self._K = self.delta ** (self._depth_cap + 2)
        # float(Δ^j) via exact-int conversion: the same scale the scalar
        # walk divides by, so positions stay bit-identical.
        self._scales = np.asarray(
            [float(self.delta**j) for j in range(self._depth_cap + 2)],
            dtype=np.float64)

        # per-tree roots h(item) (or h(salted_key(item, j)) when salted)
        roots = np.empty(self.n_trees, dtype=np.float64)
        for i, item in enumerate(self.items):
            for j in range(self.salts):
                key = item if self.salts == 1 else salted_key(item, j)
                roots[i * self.salts + j] = float(net.item_hash(key))
        self._roots = roots

        # active-set state: parallel sorted arrays over composite keys
        base = np.arange(self.n_trees, dtype=np.int64) * self._K
        self._keys = base.copy()                       # sorted composite keys
        self._counts = np.zeros(self.n_trees, np.int64)  # served this epoch
        self._pos = roots.copy()                       # node ring positions
        self._depths = np.zeros(self.n_trees, np.int64)
        self._prev_keys = base.copy()                  # last epoch's snapshot
        self._prev_counts = np.zeros(self.n_trees, np.int64)
        self._tree_replications = np.zeros(self.n_trees, np.int64)
        self._touched = np.zeros(self.n_trees, dtype=bool)

        # per-server counters (indexed like the router's sorted points)
        self._hits = np.zeros(self._router.n, np.int64)
        self._msgs = np.zeros(self._router.n, np.int64)
        self.requests_served = 0

    # ------------------------------------------------------------ tree views
    def tree_index(self, item_idx: int, salt: int = 0) -> int:
        """Dense tree index of ``(item, salt)``."""
        return (checks.count(item_idx, "item_idx", 0, self.n_items)
                * self.salts + checks.count(salt, "salt", 0, self.salts))

    def _tree_slice(self, tree: int) -> np.ndarray:
        tree = checks.count(tree, "tree", 0, self.n_trees)
        lo = np.searchsorted(self._keys, tree * self._K)
        hi = np.searchsorted(self._keys, (tree + 1) * self._K)
        return np.arange(lo, hi)

    def active_set(self, tree: int) -> set:
        """Active node addresses of one tree (digit tuples)."""
        sl = self._tree_slice(tree)
        base = tree * self._K
        return {decode_node_key(int(k - base), self.delta)
                for k in self._keys[sl]}

    def tree_size(self, tree: int) -> int:
        """Active nodes of one tree (Observation 3.1 bounds it by 4q/c)."""
        return int(self._tree_slice(tree).size)

    def tree_depth(self, tree: int) -> int:
        """Deepest active node of one tree (Lemma 3.3's bound)."""
        sl = self._tree_slice(tree)
        return int(self._depths[sl].max()) if sl.size else 0

    def tree_replications(self, tree: int) -> int:
        """Children one tree has activated since construction."""
        return int(self._tree_replications[checks.count(tree, "tree", 0, self.n_trees)])

    # ------------------------------------------------------- item-level views

    def content_update(self, item_idx: int) -> Tuple[int, int]:
        """§3 Content Update cost ``(messages, parallel_time)``.

        One message per active tree edge, time = active depth; salted
        items update every salt tree in parallel (messages add, times
        max) — both stay ``O(log n)``.
        """
        lo = self.tree_index(item_idx, 0)
        msgs = sum(self.tree_size(t) - 1 for t in range(lo, lo + self.salts))
        time = max(self.tree_depth(t) for t in range(lo, lo + self.salts))
        return msgs, time

    # ------------------------------------------------------------- the batch
    def serve_batch(
        self,
        item_idx,
        sources,
        tau: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> BatchCacheResult:
        """Serve one batch of requests, in array order (= arrival order).

        Routes every request with the vectorized two-phase Distance
        Halving lookup toward its (salted) root, resolves serving nodes
        against the active trees, applies step-1 replication with the
        exact sequential semantics, and books hit/message counters.

        ``tau`` fixes the per-request digit strings (shape ``(B, L)`` or
        ``(L,)``, any integer width; required for bit-parity against a
        scalar replay); without it fresh digits are drawn from ``rng``
        and stored in the narrowest unsigned dtype (:func:`_draw_tau`).
        """
        items = integral_array(item_idx, "item_idx").ravel()
        src = normalize_points(sources, what="sources")
        if items.size != src.size:
            raise ValueError("item_idx and sources must have the same length")
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise IndexError("item index out of range for the engine's universe")
        size = int(items.size)
        delta = self.delta
        points = self._router.points
        if size == 0:
            empty_i = np.zeros(0, np.int64)
            return BatchCacheResult(
                points=points, items=empty_i, trees=empty_i, t=empty_i,
                serving_depth=empty_i, serving_node_key=empty_i,
                serving_server_idx=empty_i.astype(np.int32), hops=empty_i,
                lookup_hops=empty_i,
                path_servers=np.zeros(0, np.int32),
                path_offsets=np.zeros(1, np.int64), delta=delta)

        trees = items * self.salts + salt_indices(src, self.salts)
        targets = self._roots[trees]

        drawn = tau is None
        if drawn:
            if rng is None:
                raise ValueError("serve_batch needs an rng or explicit tau")
            tau = _draw_tau(rng, delta, size)
        tau_arr = per_lane_matrix(tau, size, np.int64, "tau")

        res = self._router.batch_dh_lookup(src, targets, tau=tau_arr,
                                           keep_paths=False)
        t, lookup_hops = res.t, res.hops
        del res, tau  # the walk's other columns and the drawn matrix
        tmax = int(t.max())
        if tmax + 1 > self._depth_cap:
            raise RuntimeError(
                f"walk of {tmax} digits exceeds the engine's depth cap "
                f"{self._depth_cap}; fewer trees or larger delta needed")
        # the descent, the fixpoint and the emission read digits below
        # t only: keep those columns.  Strings the engine drew are
        # copied so the full matrix can go; a caller's matrix stays a
        # view (the caller holds it anyway)
        tau_arr = tau_arr[:, :tmax]
        if drawn:
            tau_arr = tau_arr.copy()

        # serving node: descend the digit prefixes while they stay
        # active — prefix-closure makes the first miss the answer, so a
        # level tests only the lanes still walking.  ``off`` is the exact
        # walk offset Σ d_k Δ^k of the prefix a lane stands on.
        scales = self._scales
        node = trees * self._K
        off = np.zeros(size, dtype=np.float64)
        depth = np.zeros(size, dtype=np.int64)
        walking = np.flatnonzero(t > 0)
        while walking.size:
            d = tau_arr[walking, depth[walking]]
            child = self._first_child(node[walking]) + d
            hit = _isin_sorted(child, self._keys)
            walking = walking[hit]
            node[walking] = child[hit]
            off[walking] += d[hit] * scales[depth[walking]]
            depth[walking] += 1
            walking = walking[t[walking] > depth[walking]]

        self._replication_fixpoint(node, off, depth, t, tau_arr, trees)

        # commit epoch counters and per-server hits
        idx = np.searchsorted(self._keys, node)
        np.add.at(self._counts, idx, 1)
        cover = self._router.cover_index.cover
        serving_idx = cover(self._pos[idx]).astype(np.int32)
        np.add.at(self._hits, serving_idx, 1)
        self._touched[np.unique(trees)] = True
        self.requests_served += size

        # cache-shortened paths: phase-I walk covers j = 0..t, then
        # phase-II covers j = t..serving depth — the exact closed-form
        # trajectory the scalar engine books (not the dh route, so not
        # the shared descent).  Emitted level by level: by t descending
        # the lanes live at level j are a prefix, and every cover goes
        # straight to its slot of one lane-major ragged buffer — phase I
        # at start + j, phase II at start + 2t + 1 − j.
        raw_len = 2 * t - depth + 2          # (t+1) phase-I + (t-m+1) phase-II
        starts = np.cumsum(raw_len) - raw_len
        buf = np.empty(raw_len.sum(), dtype=np.int32)
        order = np.argsort(-t, kind="stable")
        xs, ys, floor = src[order], targets[order], depth[order]
        fwd = starts[order]
        back = fwd + 2 * t[order] + 1
        run = np.zeros(size, dtype=np.float64)   # Σ_{k<j} d_k Δ^k, sorted lanes
        live = np.bincount(t)[::-1].cumsum()[::-1]    # lanes with t >= j
        for j, m in enumerate(live):
            o = run[:m]
            if j:
                o += tau_arr[order[:m], j - 1] * scales[j - 1]
            buf[fwd[:m] + j] = cover(fold_unit((xs[:m] + o) / scales[j]))
            home = np.flatnonzero(floor[:m] <= j)
            buf[back[home] - j] = cover(
                fold_unit((ys[home] + o[home]) / scales[j]))
        servers, offsets = ragged_to_csr(buf, starts)
        np.add.at(self._msgs, servers, 1)

        return BatchCacheResult(
            points=points, items=items, trees=trees, t=t,
            serving_depth=depth, serving_node_key=node - trees * self._K,
            serving_server_idx=serving_idx, hops=np.diff(offsets) - 1,
            lookup_hops=lookup_hops, path_servers=servers,
            path_offsets=offsets,
            delta=delta)

    def _first_child(self, keys):
        """Composite key of each node's digit-0 child (siblings follow)."""
        return keys + keys % self._K * (self.delta - 1) + 1

    def _replication_fixpoint(self, node, off, depth, t, tau, trees):
        """Step-1 replication with sequential semantics, vectorized.

        Requests are grouped by their current node in batch order.  A
        group at a *leaf* whose carried count ``b`` plus arrivals crosses
        the threshold fires at arrival ``c+1-b``: that request is served
        where it entered, strictly later arrivals that entered deeper
        reroute to the next child on their digit string, and all Δ
        children activate.  Groups at blocked (non-leaf) nodes never
        fire; rerouted requests keep their batch order, so a child group
        fires exactly when the scalar per-request loop would make it.
        A rerouted lane lands in a child that did not exist before the
        round, so only the lanes a round moved regroup in the next.
        Terminates because every round strictly deepens them.
        """
        delta = self.delta
        cover = self._router.cover_index.cover
        lanes = np.arange(node.size)
        while lanes.size:
            # lanes that share a node stand in batch order (moved lanes
            # in their old group's), so a stable sort groups them
            order = lanes[np.argsort(node[lanes], kind="stable")]
            size = order.size
            sk = node[order]
            new_grp = np.ones(size, dtype=bool)
            new_grp[1:] = sk[1:] != sk[:-1]
            grp_start = np.flatnonzero(new_grp)
            grp_id = np.cumsum(new_grp) - 1
            u_keys = sk[grp_start]
            gsize = np.diff(np.append(grp_start, size))
            pos = np.arange(size) - grp_start[grp_id] + 1

            child_lo = self._first_child(u_keys)
            has_child = (np.searchsorted(self._keys, child_lo + delta)
                         > np.searchsorted(self._keys, child_lo))
            base = self._counts[np.searchsorted(self._keys, u_keys)]
            tpos = self.c + 1 - base
            fires = ~has_child & (gsize >= tpos)
            if not fires.any():
                return

            # reroute strictly-later deep entries of fired groups
            lanes = order[fires[grp_id] & (pos > tpos[grp_id])]
            lanes = lanes[t[lanes] > depth[lanes]]
            d = tau[lanes, depth[lanes]]
            node[lanes] = self._first_child(node[lanes]) + d
            off[lanes] += d * self._scales[depth[lanes]]
            depth[lanes] += 1

            # activate all Δ children of every fired node (groups are in
            # key order and the child code is monotone: already sorted)
            rep = order[grp_start[fires]]      # first group member, in order
            f_depth, f_tree = depth[rep], trees[rep]
            ds = np.arange(delta)
            child_off = off[rep][:, None] + ds * self._scales[f_depth][:, None]
            child_pos = ((self._roots[f_tree][:, None] + child_off)
                         / self._scales[f_depth + 1][:, None]).ravel()
            child_pos[child_pos == 1.0] = 0.0
            child_keys = (self._first_child(node[rep])[:, None] + ds).ravel()
            ins = np.searchsorted(self._keys, child_keys)
            self._keys = np.insert(self._keys, ins, child_keys)
            self._counts = np.insert(self._counts, ins, 0)
            self._pos = np.insert(self._pos, ins, child_pos)
            self._depths = np.insert(self._depths, ins,
                                     np.repeat(f_depth + 1, delta))
            np.add.at(self._tree_replications, f_tree, delta)
            np.add.at(self._msgs, cover(child_pos), 1)

    # ---------------------------------------------------------------- epochs
    def advance_epoch(self) -> int:
        """End the epoch: collapse the unused fringe; reset counters.

        Vectorized steps 2–3: a sibling group of Δ cold leaves (every
        sibling active, a leaf, served < c) is removed as one patch;
        the sweep repeats until stable, reaching the same fixpoint as
        the scalar deepest-first recursion (removals only ever enable
        more removals).  Returns the number of deactivated nodes.
        """
        delta = self.delta
        removed = 0
        while True:
            keys = self._keys
            local = keys % self._K
            nz = np.flatnonzero(local > 0)
            if nz.size == 0:
                break
            child_lo = self._first_child(keys)
            has_child = (np.searchsorted(keys, child_lo + delta)
                         > np.searchsorted(keys, child_lo))
            cold = ~has_child & (self._counts < self.c)
            pk = keys[nz] - local[nz] + (local[nz] - 1) // delta
            starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
            gsize = np.diff(np.append(starts, pk.size))
            grp = np.cumsum(np.r_[True, pk[1:] != pk[:-1]]) - 1
            all_cold = np.minimum.reduceat(
                cold[nz].astype(np.int8), starts).astype(bool)
            kill_grp = all_cold & (gsize == delta)
            if not kill_grp.any():
                break
            kill = np.zeros(keys.size, dtype=bool)
            kill[nz] = kill_grp[grp]
            removed += int(kill.sum())
            keep = ~kill
            self._keys = self._keys[keep]
            self._counts = self._counts[keep]
            self._pos = self._pos[keep]
            self._depths = self._depths[keep]
        self._prev_keys = self._keys.copy()
        self._prev_counts = self._counts.copy()
        self._counts = np.zeros_like(self._counts)
        return removed

    # ----------------------------------------------------------------- stats
    def server_cache_hits(self) -> np.ndarray:
        """Per-server cache-hit counts (router point order)."""
        return self._hits.copy()

    def server_messages(self) -> np.ndarray:
        """Per-server message counts (routing + replication copies)."""
        return self._msgs.copy()

    def items_cached_per_server(self) -> np.ndarray:
        """Distinct (touched) trees with an active node per server."""
        tree_ids = self._keys // self._K
        mask = self._touched[tree_ids]
        if not mask.any():
            return np.zeros(self._router.n, np.int64)
        servers = self._router.cover_index.cover(self._pos[mask])
        pair = servers.astype(np.int64) * self.n_trees + tree_ids[mask]
        distinct = np.unique(pair)
        return np.bincount((distinct // self.n_trees).astype(np.int64),
                           minlength=self._router.n)

    def max_items_cached(self) -> int:
        """Max over servers of distinct cached trees (Thm 3.8 (i))."""
        per = self.items_cached_per_server()
        return int(per.max()) if per.size else 0

    def total_copies(self) -> int:
        """Total active nodes beyond the roots."""
        return int(self._keys.size - self.n_trees)

    def check_well_formed(self) -> int:
        """Audit the active-tree state; returns the node count.

        The structural invariants every §3 protocol step preserves —
        checked wholesale (one vectorized pass) so a soak can assert
        them between phases:

        * the composite key array is strictly increasing (sorted,
          duplicate-free) and all parallel arrays agree in length;
        * every tree's root (``key = tree·K``) is active;
        * prefix-closure: every non-root node's parent is active;
        * depth bookkeeping: roots at 0, children one deeper than their
          parent, nothing past the engine's depth cap;
        * epoch counters are non-negative.

        Raises ``ValueError`` naming the first violated invariant.
        """
        keys = self._keys
        m = keys.size
        for name, arr in (("counts", self._counts), ("pos", self._pos),
                          ("depths", self._depths)):
            if arr.size != m:
                raise ValueError(
                    f"cache state skew: {name} has {arr.size} entries "
                    f"for {m} keys")
        if m and (np.diff(keys) <= 0).any():
            raise ValueError("cache keys are not strictly increasing")
        roots = np.arange(self.n_trees, dtype=np.int64) * self._K
        if not _isin_sorted(roots, keys).all():
            raise ValueError("a tree lost its root node")
        local = keys % self._K
        nz = local > 0
        parent = keys[nz] - local[nz] + (local[nz] - 1) // self.delta
        p_idx = np.searchsorted(keys, parent)
        if (p_idx >= m).any() or (keys[np.minimum(p_idx, m - 1)]
                                  != parent).any():
            raise ValueError("prefix-closure violated: a node's parent "
                             "is not active")
        if (self._depths[~nz] != 0).any():
            raise ValueError("a root node has non-zero depth")
        if (self._depths[nz] != self._depths[p_idx] + 1).any():
            raise ValueError("a child's depth is not its parent's + 1")
        if m and int(self._depths.max()) > self._depth_cap:
            raise ValueError("an active node exceeds the depth cap")
        if (self._counts < 0).any():
            raise ValueError("negative epoch counter")
        return m

    def summary(self) -> Dict[str, float]:
        """Same digest schema (and, for the same stream, the same bits)
        as :meth:`repro.core.caching.CacheSystem.summary`.

        ``trees`` counts the trees that served at least one request —
        exactly the :class:`~repro.core.caching.ActiveTree` objects the
        scalar system would have materialised for the routed keys.
        """
        return {
            "requests": float(self.requests_served),
            "threshold_c": float(self.c),
            "max_cache_hits": float(self._hits.max(initial=0)),
            "max_messages": float(self._msgs.max(initial=0)),
            "max_items_cached": float(self.max_items_cached()),
            "total_copies": float(self.total_copies()),
            "trees": float(int(self._touched.sum())),
            "n": float(self.net.n),
        }
