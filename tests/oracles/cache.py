"""Oracles of :mod:`repro.core.batch_cache`; readers of the §3 counters."""

from typing import Optional

import numpy as np

from repro.core import BatchCacheEngine
from repro.core.batch_cache import (BatchCacheResult, _isin_sorted,
                                    decode_node_key)
from repro.core.caching import salt_indices, salted_key
from repro.core.segments import fold_unit
from repro.core.walk import (integral_array, normalize_points,
                             per_lane_matrix, ragged_to_csr)

#: every field of a serve result, and every state array of an engine
RESULT_FIELDS = ("items", "trees", "t", "serving_depth", "serving_node_key",
                 "serving_server_idx", "hops", "lookup_hops", "path_servers",
                 "path_offsets")
STATE_FIELDS = ("_keys", "_counts", "_pos", "_depths", "_prev_keys",
                "_prev_counts", "_hits", "_msgs", "_tree_replications",
                "_touched")


class DenseServeOracle(BatchCacheEngine):
    """The parent commit's dense batch server, kept as the reference."""

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
        ``(L,)``; required for bit-parity against a scalar replay); the
        parent drew them from ``rng`` without it.
        """
        items = np.asarray(item_idx, dtype=np.int64).ravel()
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

        if self.salts > 1:
            trees = items * self.salts + salt_indices(src, self.salts)
        else:
            trees = items.copy()
        targets = self._roots[trees]

        if tau is None:  # the parent's drawn strings: compared pinned now
            raise ValueError("the oracle serves a pinned tau only")
        tau_arr = per_lane_matrix(tau, size, np.int64, "tau")

        res = self._router.batch_dh_lookup(src, targets, tau=tau_arr,
                                           keep_paths=False)
        t = res.t
        tmax = int(t.max())
        if tmax + 1 > self._depth_cap:
            raise RuntimeError(
                f"walk of {tmax} digits exceeds the engine's depth cap "
                f"{self._depth_cap}; fewer trees or larger delta needed")

        # prefix keys (composite) and exact walk offsets per depth
        scales = self._scales
        P = np.empty((size, tmax + 1), dtype=np.int64)
        OFF = np.empty((size, tmax + 1), dtype=np.float64)
        P[:, 0] = 0
        OFF[:, 0] = 0.0
        for j in range(1, tmax + 1):
            d = tau_arr[:, j - 1]
            P[:, j] = P[:, j - 1] * delta + d + 1
            OFF[:, j] = OFF[:, j - 1] + d * scales[j - 1]
        CK = trees[:, None] * self._K + P

        # serving depth: active prefixes are depth-contiguous from the root
        memb = _isin_sorted(CK.ravel(), self._keys).reshape(size, tmax + 1)
        memb &= np.arange(tmax + 1)[None, :] <= t[:, None]
        depth = memb.sum(axis=1).astype(np.int64) - 1
        lanes = np.arange(size)
        node = CK[lanes, depth]

        self._replication_fixpoint(node, depth, t, CK, OFF, trees, lanes)

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
        # the shared descent; OFF already holds each level's offset, so
        # not ``level_points`` either).  Built ragged (a flat (lane,
        # level) expansion sized by the true path lengths) and
        # compressed by the shared CSR writer.
        raw_len = 2 * t - depth + 2          # (t+1) phase-I + (t-m+1) phase-II
        starts = np.concatenate(([0], np.cumsum(raw_len)))
        total = int(starts[-1])
        lane = np.repeat(lanes, raw_len)
        k = np.arange(total) - np.repeat(starts[:-1], raw_len)
        tl = t[lane]
        is_p1 = k <= tl
        j = np.where(is_p1, k, 2 * tl + 1 - k)
        val = (np.where(is_p1, src[lane], targets[lane]) + OFF[lane, j])
        val /= scales[j]
        servers, offsets = ragged_to_csr(
            cover(fold_unit(val)).astype(np.int32), starts[:-1])
        np.add.at(self._msgs, servers, 1)

        return BatchCacheResult(
            points=points, items=items, trees=trees, t=t,
            serving_depth=depth, serving_node_key=node - trees * self._K,
            serving_server_idx=serving_idx, hops=np.diff(offsets) - 1,
            lookup_hops=res.hops, path_servers=servers, path_offsets=offsets,
            delta=delta)

    def _replication_fixpoint(self, node, depth, t, CK, OFF, trees, lanes):
        """Step-1 replication with sequential semantics, vectorized.

        Requests are grouped by their current node in batch order.  A
        group at a *leaf* whose carried count ``b`` plus arrivals crosses
        the threshold fires at arrival ``c+1-b``: that request is served
        where it entered, strictly later arrivals that entered deeper
        reroute to the next child on their digit string, and all Δ
        children activate.  Groups at blocked (non-leaf) nodes never
        fire; rerouted requests keep their batch order, so a child group
        fires exactly when the scalar per-request loop would make it.
        Terminates because every round strictly deepens some requests.
        """
        size = lanes.size
        delta = self.delta
        c = self.c
        cover = self._router.cover_index.cover
        while True:
            order = np.lexsort((lanes, node))
            sk = node[order]
            new_grp = np.ones(size, dtype=bool)
            new_grp[1:] = sk[1:] != sk[:-1]
            grp_start = np.flatnonzero(new_grp)
            grp_id = np.cumsum(new_grp) - 1
            u_keys = sk[grp_start]
            gsize = np.diff(np.append(grp_start, size))
            pos = np.arange(size) - grp_start[grp_id] + 1

            local = u_keys % self._K
            child_lo = u_keys + local * (delta - 1) + 1
            has_child = (np.searchsorted(self._keys, child_lo + delta)
                         > np.searchsorted(self._keys, child_lo))
            base = self._counts[np.searchsorted(self._keys, u_keys)]
            tpos = c + 1 - base
            fires = ~has_child & (gsize >= tpos)
            if not fires.any():
                return

            # reroute strictly-later deep entries of fired groups
            req_fire = fires[grp_id]
            move_sorted = req_fire & (pos > tpos[grp_id])
            moved = order[move_sorted]
            moved = moved[t[moved] > depth[moved]]
            node[moved] = CK[moved, depth[moved] + 1]
            depth[moved] += 1

            # activate all Δ children of every fired node
            f = np.flatnonzero(fires)
            rep = order[grp_start[f]]          # first group member, in order
            f_depth = depth[rep]
            f_tree = trees[rep]
            off_u = OFF[rep, f_depth]
            pow_d = self._scales[f_depth]
            ds = np.arange(delta, dtype=np.float64)
            child_off = off_u[:, None] + ds[None, :] * pow_d[:, None]
            child_pos = ((self._roots[f_tree][:, None] + child_off)
                         / self._scales[f_depth + 1][:, None]).ravel()
            child_pos[child_pos == 1.0] = 0.0
            child_keys = (node[rep][:, None] * delta + 1
                          + np.arange(delta, dtype=np.int64)[None, :]
                          - (f_tree * self._K * (delta - 1))[:, None]).ravel()
            csort = np.argsort(child_keys, kind="stable")
            child_keys = child_keys[csort]
            child_pos = child_pos[csort]
            child_depth = np.repeat(f_depth + 1, delta)[csort]
            ins = np.searchsorted(self._keys, child_keys)
            self._keys = np.insert(self._keys, ins, child_keys)
            self._counts = np.insert(self._counts, ins, 0)
            self._pos = np.insert(self._pos, ins, child_pos)
            self._depths = np.insert(self._depths, ins, child_depth)
            np.add.at(self._tree_replications, f_tree, delta)
            np.add.at(self._msgs, cover(child_pos), 1)


class WholeChunkServeEngine(BatchCacheEngine):
    """The parent commit's ``serve_batch``, kept as the reference: the
    walk and the path emission over the whole batch at once."""

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
        scalar replay); the parent drew them from ``rng`` without it.
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

        if tau is None:  # the parent's drawn strings: compared pinned now
            raise ValueError("the oracle serves a pinned tau only")
        tau_arr = per_lane_matrix(tau, size, np.int64, "tau")

        res = self._router.batch_dh_lookup(src, targets, tau=tau_arr,
                                           keep_paths=False)
        t, lookup_hops = res.t, res.hops
        del res, tau  # the walk's other columns
        tmax = int(t.max())
        if tmax + 1 > self._depth_cap:
            raise RuntimeError(
                f"walk of {tmax} digits exceeds the engine's depth cap "
                f"{self._depth_cap}; fewer trees or larger delta needed")
        # the descent, the fixpoint and the emission read digits below
        # t only: keep those columns (a view of the caller's matrix)
        tau_arr = tau_arr[:, :tmax]

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


def _by_node(eng, keys, counts, tree: int) -> dict:
    """``{digits: count}`` of one tree's non-zero counters."""
    base = tree * eng._K
    lo, hi = np.searchsorted(keys, [base, base + eng._K])
    return {decode_node_key(int(keys[i] - base), eng.delta): int(counts[i])
            for i in range(lo, hi) if counts[i]}


def served_counts(eng, tree: int) -> dict:
    """This epoch's per-node served counters of one batch-engine tree."""
    return _by_node(eng, eng._keys, eng._counts, tree)


def last_epoch_served(eng, tree: int) -> dict:
    """The counters the last ``advance_epoch`` snapshot preserved."""
    return _by_node(eng, eng._prev_keys, eng._prev_counts, tree)


def engine_item_stats(eng, item_idx: int) -> tuple:
    """``(replications, copies beyond the roots)`` of one item, merged
    over its salt trees."""
    trees = [eng.tree_index(item_idx, j) for j in range(eng.salts)]
    return (sum(eng.tree_replications(t) for t in trees),
            sum(eng.tree_size(t) - 1 for t in trees))


def scalar_item_stats(scal, item) -> tuple:
    """:func:`engine_item_stats` of the scalar system's salt trees."""
    keys = ([item] if scal.salts == 1
            else [salted_key(item, j) for j in range(scal.salts)])
    trees = [scal.trees[k] for k in keys if k in scal.trees]
    return (sum(t.replications for t in trees),
            sum(t.size() - 1 for t in trees))


def items_cached_at(cache, server_point: float) -> int:
    """Distinct items with an active copy on this server (Thm 3.8 (i)):
    ``CacheSystem.items_cached_at`` as it was, one scan of every tree's
    active nodes per server."""
    seg = cache.net.segments.segment_of(server_point)
    count = 0
    for tree in cache.trees.values():
        if any(tree.tree.position(a) in seg for a in tree.active):
            count += 1
    return count
