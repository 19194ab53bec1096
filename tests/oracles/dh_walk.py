"""Oracles of ``BatchRouter._dh_walk``: its three previous forms."""

import math
import types
from typing import List, Optional

import numpy as np

from oracles.cost import _parent_pair_costs
from oracles.walk import rows_to_head
from repro import checks
from repro.core.batch import (_STALE_ROUTER_ERROR, BatchLookupResult,
                               _last_entries)
from repro.core.lookup import MAX_WALK_STEPS
from repro.core.segments import fold_unit
from repro.core.snapshot import StaleSnapshotError
from repro.core.walk import _head_buffer, per_lane_matrix, ragged_to_csr
from repro.peer import CostAwareBatchRouter


def parent_dh_walk(self, algorithm, src, y, keep_paths, max_steps,
                   pick) -> BatchLookupResult:
    """Both phases of §2.2.2 under one phase-I digit rule.

    ``pick(step, lanes, pos, cur)`` moves the lanes still walking —
    ``lanes`` their indices into the batch, ``pos`` / ``cur`` their
    positions and servers — one digit: it returns ``(digits,
    next_pos, next_cover)`` for exactly those lanes, the one thing
    the random and the cost-aware lookups differ in, so everything
    else is trivially bit-comparable between them.  Phase I keeps
    its state for the walking lanes only and compacts it whenever
    some stop, so a step costs O(lanes still walking).  Each step
    covers every walking lane's target image; a lane leaves phase I
    when that cover is its own server — the half-open test of
    :meth:`_segment_test`, since the cover is the greatest
    ``x_i ≤ p``, wrapping to ``n − 1`` — or a neighbour of it.  Then
    it hops there, which always costs one hop: the holder covers a
    point outside ``s(cur)``, so it is a distinct server.  A walking
    lane has taken a digit at every step so far, so its ``t`` is the
    step it stops at.  Phase II is the closed-form backward descent
    ``w(τ[:j], y)``, ``j = t_i … 0``.  When paths are kept its head
    is the source plus what phase I recorded compactly: per step,
    ``(lanes, servers)`` of the lanes that moved, all in slot
    ``step + 1``.  Otherwise the head is only the server each lane
    stopped at, and the hops before it are ``hops1``'s to add.
    """
    cover = self.cover_index.cover
    delta, size = self.delta, y.size
    src_idx = cover(src)
    # per-lane results, written once as each lane stops
    cur = np.empty_like(src_idx)
    t = np.empty(size, dtype=np.int64)
    off = np.empty(size, dtype=np.float64)  # Σ d_k Δ^k, exact in float64
    hops1 = np.empty(size, dtype=np.int64)
    # the walking lanes' state, compacted as lanes stop; nothing
    # edits lanes or servers in place, so the records keep their values
    lanes = every = np.arange(size)
    w_cur, w_pos, w_image = src_idx, src, y
    # phase I's path head as (slot, lanes, servers) records
    moves: List[tuple] = [(0, every, src_idx)]
    w_off = np.zeros(size, dtype=np.float64)
    w_hops = np.zeros(size, dtype=np.int64)

    # beyond ~52/log2(Δ) digits the float64 offset accumulator loses
    # exactness (the scalar engine carries exact integer offsets, so
    # it can converge on such walks — segments shorter than Δ^-52 —
    # where we must raise loudly instead of silently diverging);
    # Theorem 2.8 keeps real walks far below that
    step_cap = min(max_steps, int(52 / math.log2(delta)))
    step = 0
    while lanes.size:
        if step > step_cap:  # pragma: no cover - beyond Theorem 2.8
            raise RuntimeError(
                f"batch {algorithm} lookup phase I failed to converge")
        holder = cover(w_image)
        stop = holder == w_cur
        seek = np.flatnonzero(~stop)
        if seek.size:
            near = self._edge_member(w_cur[seek], holder[seek])
            via = seek[near]
            stop[via] = True
            w_hops[via] += 1
            if keep_paths:
                moves.append((step + 1, lanes[via], holder[via]))
        if stop.any():
            done = lanes[stop]
            t[done] = step
            cur[done] = holder[stop]
            off[done] = w_off[stop]
            hops1[done] = w_hops[stop]
            go = ~stop
            lanes, w_cur, w_pos, w_off, w_hops = (
                lanes[go], w_cur[go], w_pos[go], w_off[go], w_hops[go])
        if lanes.size:
            digits, w_pos, nxt = pick(step, lanes, w_pos, w_cur)
            w_off += digits * float(delta) ** step
            # w(τ_t, y) in phase II's closed form, so the hand-off
            # tests the very point the descent starts from
            w_image = fold_unit(
                (y[lanes] + w_off) / float(delta) ** (step + 1))
            w_hops += nxt != w_cur
            if keep_paths:
                moves.append((step + 1, lanes, nxt))
            w_cur = nxt
        step += 1

    if keep_paths:
        slots, movers, held = zip(*moves)
        sizes = [m.size for m in movers]
        movers = np.concatenate(movers)
        head = (np.bincount(movers, minlength=size), movers,
                np.repeat(slots, sizes), np.concatenate(held))
    else:
        head = (1, every, 0, cur)
    order = np.argsort(-t.astype(np.int16), kind="stable")
    servers, offsets = self._descend(y, off, t + 1, order, head)
    hops = np.diff(offsets) - 1
    return BatchLookupResult(
        algorithm=algorithm,
        points=self.points,
        targets=y,
        sources=src,
        source_idx=src_idx,
        owner_idx=_last_entries(servers, offsets),
        t=t,
        hops=hops if keep_paths else hops1 + hops,
        phase1_hops=hops1,
        path_servers=servers if keep_paths else None,
        path_offsets=offsets if keep_paths else None,
    )


def parent_walk(router, route):
    """``route(router)`` with the router's dh walk swapped for the parent's."""
    router._dh_walk = types.MethodType(parent_dh_walk, router)
    try:
        return route(router)
    finally:
        del router._dh_walk


def wide_dh_walk(self, algorithm, src, y, keep_paths, max_steps,
                 pick) -> BatchLookupResult:
    """Both phases of §2.2.2 under one phase-I digit rule.

    ``pick(step, lanes, pos, cur)`` moves the lanes still walking —
    ``lanes`` their indices into the batch, ``pos`` / ``cur`` their
    positions and servers — one digit: it returns ``(digits,
    next_pos, next_cover)`` for exactly those lanes, the one thing
    the random and the cost-aware lookups differ in, so everything
    else is trivially bit-comparable between them.  Phase I keeps
    its state for the walking lanes only and compacts it whenever
    some stop, so a step costs O(lanes still walking).  Each step
    covers every walking lane's target image; a lane leaves phase I
    when that cover is its own server — the half-open test of
    :meth:`_segment_test`, since the cover is the greatest
    ``x_i ≤ p``, wrapping to ``n − 1`` — or a neighbour of it.  Then
    it hops there, which always costs one hop: the holder covers a
    point outside ``s(cur)``, so it is a distinct server.  A walking
    lane has taken a digit at every step so far, so its ``t`` is the
    step it stops at.  Phase II walks ``w(τ[:j], y)`` for
    ``j = t_i … 0``, the images phase I covered, so it covers
    nothing: its hops are the changes between consecutive image
    covers, counted on the way, and the owner is the step-0
    image's cover.  Kept
    paths come from :func:`~repro.core.walk.replay` of each step's
    ``(lanes, image covers)`` after a head of the source plus, per
    step, ``(lanes, servers)`` of the lanes that moved (slot
    ``step + 1``).
    """
    cover = self.cover_index.cover
    delta, size = self.delta, y.size
    src_idx = cover(src)
    # per-lane results, written once as each lane stops
    t = np.empty(size, dtype=np.int64)
    hops1 = np.empty(size, dtype=np.int64)
    turns = np.empty(size, dtype=np.int64)  # phase II's hops
    # the walking lanes' state, compacted as lanes stop; nothing
    # edits lanes or servers in place, so the records keep their values
    lanes = every = np.arange(size)
    w_cur, w_pos = src_idx, src
    holder = owner = cover(y)  # the cover of w(τ[:step], y)
    # phase I's path head as (slot, lanes, servers) records, and
    # phase II's covers as (lanes, servers), one record a level
    moves: List[tuple] = [(0, every, src_idx)]
    levels: List[tuple] = [(every, owner)]
    w_off = np.zeros(size, dtype=np.float64)  # Σ d_k Δ^k, exact in float64
    w_hops = np.zeros(size, dtype=np.int64)
    w_turns = np.zeros(size, dtype=np.int64)

    # beyond ~52/log2(Δ) digits the float64 offset accumulator loses
    # exactness (the scalar engine carries exact integer offsets, so
    # it can converge on such walks — segments shorter than Δ^-52 —
    # where we must raise loudly instead of silently diverging);
    # Theorem 2.8 keeps real walks far below that
    step_cap = min(checks.count(max_steps, "max_steps"), int(52 / math.log2(delta)))
    step = 0
    while lanes.size:
        if step > step_cap:  # past max_steps, or beyond Theorem 2.8
            raise RuntimeError(
                f"batch {algorithm} lookup phase I failed to converge")
        stop = holder == w_cur
        seek = np.flatnonzero(~stop)
        if seek.size:
            near = self._edge_member(w_cur[seek], holder[seek])
            via = seek[near]
            stop[via] = True
            w_hops[via] += 1
            if keep_paths:
                moves.append((step + 1, lanes[via], holder[via]))
        if stop.any():
            done = lanes[stop]
            t[done] = step
            hops1[done] = w_hops[stop]
            turns[done] = w_turns[stop]
            go = ~stop
            lanes, w_cur, w_pos, w_off, w_hops, w_turns, holder = (
                lanes[go], w_cur[go], w_pos[go], w_off[go], w_hops[go],
                w_turns[go], holder[go])
        if lanes.size:
            digits, w_pos, nxt = pick(step, lanes, w_pos, w_cur)
            w_off += digits * float(delta) ** step
            # w(τ[:step + 1], y) in level_points' IEEE operations:
            # the cover the descent would take at that level
            image = cover(fold_unit(
                (y[lanes] + w_off) / float(delta) ** (step + 1)))
            w_hops += nxt != w_cur
            w_turns += image != holder
            if keep_paths:
                moves.append((step + 1, lanes, nxt))
                levels.append((lanes, image))
            w_cur, holder = nxt, image
        step += 1

    servers = offsets = None
    if keep_paths:
        slots, movers, held = zip(*moves)
        sizes = [m.size for m in movers]
        movers = np.concatenate(movers)
        head = (np.bincount(movers, minlength=size), movers,
                np.repeat(slots, sizes), np.concatenate(held))
        servers, offsets = wide_replay(t + 1, head, levels)
    return BatchLookupResult(
        algorithm=algorithm,
        points=self.points,
        targets=y,
        sources=src,
        source_idx=src_idx,
        owner_idx=owner,
        t=t,
        hops=hops1 + turns,
        phase1_hops=hops1,
        path_servers=servers,
        path_offsets=offsets,
    )


def wide_replay(depth, head, levels) -> tuple:
    """:func:`descend`'s CSR from covers a walk has already taken.

    ``levels[j]`` is ``(lanes, servers)``, level ``j``'s covers for
    exactly the lanes with ``depth > j``: each lands in the slot
    :func:`descend` writes at level ``j``, after the same head.
    """
    buf, starts, ends = _head_buffer(depth, head)
    last = ends - 1
    for j, (lanes, servers) in enumerate(levels):
        buf[last[lanes] - j] = servers
    return ragged_to_csr(buf, starts)


def wide_walk(router, route):
    """``route(router)`` with the router's dh walk swapped for
    :func:`wide_dh_walk`."""
    router._dh_walk = types.MethodType(wide_dh_walk, router)
    try:
        return route(router)
    finally:
        del router._dh_walk


class AllLanesWalkOracle(CostAwareBatchRouter):
    """The parent commit's phase I, kept as the reference."""

    def _edge_member(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Vectorized ``col[i] in neighbours(row[i])`` membership test.

        One gather and one modular interval compare per slot — O(Δ) per
        lane, no search; the lanes on the seam row also test its second
        piece, the virtual column ``n``.
        """
        if self.adj_first is None:
            self._build_adjacency()
        first, count = self.adj_first, self.adj_count
        n = len(self.points)
        if first.shape[1] != n + 1:
            # columns older than the point column: a patch that died
            # half-way, a shard worker attached to a half-written export
            raise StaleSnapshotError(_STALE_ROUTER_ERROR)
        def within(col, first, count):
            # first < n, so (col - first) mod n is one add on the lanes
            # below zero: n masked by the sign bits
            gap = col - first
            gap += n & (gap >> 31)
            return gap < count

        col = col.astype(np.int32)
        hit = np.zeros(row.shape, dtype=bool)
        for k in range(len(first)):
            hit |= within(col, first[k].take(row), count[k].take(row))
        seam = np.flatnonzero(row == n - 1)
        if seam.size:
            hit[seam] |= within(col[seam], first[:, n, None],
                                count[:, n, None]).any(axis=0)
        return hit & (row != col)

    def batch_dh_lookup(
        self,
        sources,
        targets,
        rng: Optional[np.random.Generator] = None,
        tau: Optional[np.ndarray] = None,
        keep_paths: "bool | str" = False,
        max_steps: int = MAX_WALK_STEPS,
    ) -> BatchLookupResult:
        """Vectorized two-phase Distance Halving Lookup (§2.2.2)."""
        src, y = self._enter(sources, targets, keep_paths)
        if rng is None and tau is None:
            raise ValueError("batch_dh_lookup needs an rng or explicit tau")
        size = y.size
        tau_arr: Optional[np.ndarray] = None
        if tau is not None:
            tau_arr = per_lane_matrix(tau, size, np.int64, "tau")
            if tau_arr.size and (tau_arr.min() < 0
                                 or tau_arr.max() >= self.delta):
                raise ValueError(f"tau digits out of range for delta={self.delta}")

        def pick(step, lanes, pos, cur):
            if tau_arr is None:
                return rng.integers(0, self.delta, size=size)
            if step >= tau_arr.shape[1]:
                raise ValueError("supplied tau exhausted before lookup finished")
            return tau_arr[:, step]

        return self._dh_walk("dh", src, y, keep_paths, max_steps, pick)

    def _dh_walk(self, algorithm, src, y, keep_paths, max_steps,
                 pick) -> BatchLookupResult:
        """Both phases of §2.2.2 under one phase-I digit rule."""
        cover = self.cover_index.cover
        delta, size = self.delta, y.size
        cur = cover(src)
        src_idx = cur.copy()
        pos = src.copy()
        image = y.copy()
        t = np.zeros(size, dtype=np.int64)
        off = np.zeros(size, dtype=np.float64)  # Σ d_k Δ^k, exact in float64
        hops1 = np.zeros(size, dtype=np.int64)
        done = np.zeros(size, dtype=bool)
        p1_rows: List[np.ndarray] = [cur.copy()] if keep_paths else []

        # beyond ~52/log2(Δ) digits the float64 offset accumulator loses
        # exactness (the scalar engine carries exact integer offsets, so
        # it can converge on such walks — segments shorter than Δ^-52 —
        # where we must raise loudly instead of silently diverging);
        # Theorem 2.8 keeps real walks far below that
        step_cap = min(max_steps, int(52 / math.log2(delta)))
        step = 0
        while not done.all():
            if step > step_cap:  # pragma: no cover - beyond Theorem 2.8
                raise RuntimeError(
                    f"batch {algorithm} lookup phase I failed to converge")
            active = ~done
            done |= active & self._segment_test(cur)(image)
            lanes = np.flatnonzero(active & ~done)
            row = None
            if lanes.size:
                holder = cover(image[lanes])
                near = self._edge_member(cur[lanes], holder)
                via, holder = lanes[near], holder[near]
                hops1[via] += 1
                done[via] = True
                cur[via] = holder
                if keep_paths:
                    row = np.full(size, -1, dtype=np.int64)
                    row[via] = holder
                    p1_rows.append(row)
                lanes = lanes[~near]
            if lanes.size:
                cont = np.zeros(size, dtype=bool)
                cont[lanes] = True
                d = pick(step, lanes, pos, cur).astype(np.float64)
                pos = fold_unit(np.where(cont, pos / delta + d / delta, pos))
                off = np.where(cont, off + d * float(delta) ** step, off)
                # w(τ_t, y) in phase II's closed form, so the hand-off
                # tests the very point the descent starts from
                image = fold_unit(np.where(
                    cont, (y + off) / float(delta) ** (step + 1), image))
                t += cont
                c = cover(pos)
                hops1 += cont & (c != cur)
                if row is not None:
                    row[cont] = c[cont]
                cur = np.where(cont, c, cur)
            step += 1

        order = np.argsort(-t.astype(np.int16), kind="stable")
        servers, offsets = self._descend(y, off, t + 1, order,
                                         rows_to_head(p1_rows or [cur]))
        hops = np.diff(offsets) - 1
        return BatchLookupResult(
            algorithm=algorithm,
            points=self.points,
            targets=y,
            sources=src,
            source_idx=src_idx,
            owner_idx=cover(y),
            t=t,
            hops=hops if keep_paths else hops1 + hops,
            phase1_hops=hops1,
            path_servers=servers if keep_paths else None,
            path_offsets=offsets if keep_paths else None,
        )

    def _edge_cost_matrix(self, i_idx, j_idx) -> np.ndarray:
        """Network cost of edges i→j (point indices; broadcasts to (K, B))."""
        cost = self.cost
        isp, cx, cy, mat = cost.isp, cost.x, cost.y, cost.cost_map.isp_cost
        return _parent_pair_costs(isp[i_idx], isp[j_idx], cx[i_idx], cy[i_idx],
                                  cx[j_idx], cy[j_idx], mat)

    def batch_cost_dh_lookup(
        self,
        sources,
        targets,
        choices: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        policy: str = "weighted",
        keep_paths: "bool | str" = False,
        max_steps: int = MAX_WALK_STEPS,
    ) -> BatchLookupResult:
        """Two-phase dh lookup with cost-aware phase-I digit selection."""
        from repro import checks
        from repro.peer.policy import POLICIES, select_rows

        checks.choice(policy, "policy", POLICIES)
        src, y = self._enter(sources, targets, keep_paths)
        cover = self.cover_index.cover
        size = y.size
        u_mat: Optional[np.ndarray] = None
        if choices is not None:
            u_mat = per_lane_matrix(choices, size, np.float64, "choices")
        elif rng is None and policy != "greedy":
            raise ValueError(
                f"policy {policy!r} needs shared uniforms: pass choices= or rng="
            )

        delta = self.delta
        digs = np.arange(delta, dtype=np.float64)
        tau_rows: List[np.ndarray] = []

        def pick(step, lanes, pos, cur):
            # candidate next position per digit — the same float
            # expression the walk's digit update applies, so the scored
            # candidate is exactly where the message goes
            cand_pos = fold_unit(
                pos[lanes][None, :] / delta + digs[:, None] / delta
            )
            cand_cov = cover(cand_pos.ravel()).reshape(delta, lanes.size)
            costs = self._edge_cost_matrix(cur[lanes], cand_cov)
            if u_mat is not None:
                if step >= u_mat.shape[1]:
                    raise ValueError(
                        "supplied choices exhausted before lookup finished"
                    )
                u_row = u_mat[lanes, step]
            elif rng is not None:
                u_row = rng.random(size)[lanes]
            else:
                u_row = None
            ok = np.ones((delta, lanes.size), dtype=bool)
            d_step = np.zeros(size, dtype=np.int64)
            d_step[lanes] = select_rows(costs, ok, u_row, policy)
            tau_rows.append(d_step)
            return d_step

        res = self._dh_walk("dh-cost", src, y, keep_paths, max_steps, pick)
        res.tau_used = (
            np.ascontiguousarray(np.vstack(tau_rows).T)
            if tau_rows else np.zeros((size, 0), dtype=np.int64)
        )
        res.policy = policy
        return res
