"""Oracles of the §6 fault layer: ``cover_table`` (§6.2), the Simple
Lookup (§6.3), the resistant lookup (§6.6) and the cover counts."""

from typing import Optional

import numpy as np

from repro import checks
from repro.core.segments import normalize_array
from repro.core.walk import (KEEP_PATHS, LANE_INT, level_points,
                             normalize_pair, per_lane_matrix, ragged_to_csr)
from repro.faults import FTBatchEngine
from repro.faults.batch_ft import ALIVE, FTBatchResult
from repro.faults.models import FaultPlan


def parent_cover_table(net, ys):
    """``cover_table`` as it was before the class table (the oracle)."""
    ys = np.asarray(ys, dtype=np.float64)
    i = net.cover_index.cover(ys)
    k = np.arange(net.max_back, dtype=np.int64)
    cand = (i[None, :] - k[:, None]) % net.n
    mask = (np.mod(ys[None, :] - net.points_array[cand], 1.0)
            <= net.seg_len_array[cand])
    return cand, mask


class WholeChunkFTEngine(FTBatchEngine):
    """The parent commit's ``batch_simple_lookup``, kept as the
    reference: the hop loop over the whole batch at once.  Frozen less
    its ``rng=`` branch, which no suite reached: uniforms come in as
    ``choices`` only (or none, for greedy)."""

    def batch_simple_lookup(
        self,
        sources,
        targets,
        choices: Optional[np.ndarray] = None,
        plan: Optional[FaultPlan] = None,
        keep_paths: "bool | str" = False,
        oracle=None,
        policy: str = "uniform",
    ) -> FTBatchResult:
        """Theorem 6.3's Simple Lookup for a whole batch of pairs.

        ``sources`` are server id points (or indices), ``targets`` raw
        ring points (scalars broadcast).  Each hop gathers the alive
        covers of every pending path point from the cover table and
        picks cover ``⌊u·|alive|⌋`` per lookup, where the uniforms ``u``
        come from ``choices`` (shape ``(size, L)``, ``L ≥ max t``) —
        replaying the same uniforms through the
        scalar :func:`~repro.faults.lookup_ft.simple_lookup` reproduces
        the batch bit-for-bit.  ``keep_paths`` (``True`` or ``"csr"``)
        records the chosen server walks as CSR path arrays.

        Passing an ``oracle`` (:class:`~repro.peer.itracker.CostOracle`
        over this network's points) with ``policy="greedy"`` or
        ``"weighted"`` makes the per-hop cover choice cost-aware: the
        candidate costs are one vectorized gather and the pick follows
        :func:`~repro.peer.policy.select_rows`.  The same uniforms drive
        the scalar walk bit-identically through its matching
        ``oracle``/``policy`` arguments ("greedy" needs no uniforms at
        all); ``policy="uniform"`` ignores the oracle and is
        byte-identical to the cost-less path.
        """
        from repro.peer.policy import POLICIES, select_rows

        checks.choice(keep_paths, "keep_paths", KEEP_PATHS)
        checks.choice(policy, "policy", POLICIES)
        cost_aware = policy != "uniform"
        if cost_aware and oracle is None:
            raise ValueError(f"cost policy {policy!r} needs a CostOracle")
        if choices is None and policy != "greedy":
            raise ValueError("batch_simple_lookup needs explicit choices")
        state = self._state(plan)
        src_idx, y = self._enter(sources, targets)
        size = y.size
        t, s_final = self.canonical_walks(src_idx, y)
        tmax = int(t.max()) if size else 0

        u: Optional[np.ndarray] = None
        if choices is not None:
            u = per_lane_matrix(choices, size, np.float64, "choices")
            if u.shape[1] < tmax:
                raise ValueError("supplied choices exhausted before lookup finished")

        cur = src_idx.copy()
        messages = np.zeros(size, dtype=np.int64)
        traversed = np.zeros(size, dtype=np.int64)
        failed = np.zeros(size, dtype=bool)
        if keep_paths:
            # lane-major ragged walk buffer: t+1 slots per lane, slot h
            # holds the server chosen at hop h (slot 0 the source)
            slots = t + 1
            starts = np.cumsum(slots) - slots
            buf = np.empty(slots.sum(), dtype=np.int32)
            buf[starts] = src_idx

        for h in range(1, tmax + 1):
            lanes = np.flatnonzero((t >= h) & ~failed)
            if not lanes.size:
                break
            # int32 exponents: np.ldexp has no int64 loop where C long is
            # 32-bit (Windows), and t ≤ MAX_WALK_STEPS = 512 anyway
            scale = np.ldexp(1.0, (t[lanes] - h).astype(np.int32))
            p = level_points(y[lanes], s_final[lanes], scale, 2)
            cand, mask = self.net.cover_table(p)
            ok = mask & (state[cand] & ALIVE).view(bool)
            dead = ~ok.any(axis=0)
            # uniform picks the (⌊u·cnt⌋+1)-th alive cover, in the scalar
            # scan order, and reads no cost
            costs = (oracle.edge_costs(cur[lanes], cand) if cost_aware
                     else None)
            u_row = u[lanes, h - 1] if u is not None else None
            sel = select_rows(costs, ok, u_row, policy)
            nxt = cand[sel, np.arange(lanes.size)]
            failed[lanes[dead]] = True
            surv = lanes[~dead]
            nxt = nxt[~dead]
            messages[surv] += nxt != cur[surv]
            cur[surv] = nxt
            traversed[surv] = h
            if keep_paths:
                buf[starts[surv] + h] = nxt

        servers = offsets = None
        if keep_paths:  # a failed walk's path ends at its last live hop
            servers, offsets = ragged_to_csr(buf, starts, traversed + 1)
        success = (state[cur] == ALIVE) & ~failed
        return FTBatchResult(
            algorithm="simple",
            points=self.points,
            targets=y,
            source_idx=src_idx,
            t=t,
            success=success,
            messages=messages,
            parallel_time=traversed,
            holder_idx=cur,
            policy=policy,
            path_servers=servers,
            path_offsets=offsets,
        )


def axis_resistant_lookup(engine, sources, targets, plan=None):
    """``FTBatchEngine.batch_resistant_lookup`` with its per-level counts
    summed from a bool mask and its first-alive picks an ``argmax``,
    both along axis 0: frozen verbatim as a function of the engine's
    public columns, with the fault state and entry check it took from
    the engine's helpers inlined, verbatim too."""
    if plan is None:
        state = np.full(engine.n, ALIVE, dtype=np.uint8)
    else:
        state = plan.alive_mask(engine.points).astype(np.uint8)
        state |= plan.liar_mask(engine.points).astype(np.uint8) << 1
    pts, y = normalize_pair(sources, targets)
    src_idx = np.clip(np.searchsorted(engine.points, pts), 0, engine.n - 1)
    if not np.array_equal(engine.points[src_idx], pts):
        raise ValueError("sources must be server id points of the network")
    size = y.size
    t, s_final = engine.canonical_walks(src_idx, y)
    tmax = int(t.max()) if size else 0

    # in-flight payload per lookup: 0 = the true value, i+1 = the
    # corruption injected by server i
    value = np.zeros(size, dtype=np.int64)
    messages = np.zeros(size, dtype=LANE_INT)
    traversed = np.zeros(size, dtype=LANE_INT)
    failed = np.zeros(size, dtype=bool)

    # layer 0: the replica group (alive covers of y) answers
    cand, mask = engine.net.cover_table(y)
    st = state[cand]
    amask = mask & (st & ALIVE).view(bool)
    send_cnt = amask.sum(axis=0)                      # |senders| next hop
    honest_cnt = (mask & (st == ALIVE)).sum(axis=0)   # carrying the payload
    single_srv = cand[np.argmax(amask, axis=0), np.arange(size)]
    value_present = np.zeros(size, dtype=np.int64)    # liar(v) among senders

    # zero-hop lookups answer straight from the replica group: the
    # requester takes the majority of the |senders| answers it heard
    zero_hop = t == 0
    success = np.zeros(size, dtype=bool)
    success[zero_hop] = 2 * honest_cnt[zero_hop] > send_cnt[zero_hop]

    for level in range(1, tmax + 1):
        lanes = np.flatnonzero((t >= level) & ~failed)
        if not lanes.size:
            break
        p = level_points(y[lanes], s_final[lanes], 2.0 ** level, 2)
        cand, mask = engine.net.cover_table(p)
        st = state[cand]
        amask = mask & (st & ALIVE).view(bool)
        recv_cnt = amask.sum(axis=0)
        s_cnt = send_cnt[lanes]
        messages[lanes] += s_cnt * recv_cnt
        traversed[lanes] = level

        # strict-majority filter (see class docstring for why only
        # these two candidates can win)
        cnt_v = honest_cnt[lanes] + value_present[lanes]
        forwards = 2 * cnt_v > s_cnt
        lone_liar = (s_cnt == 1) & ~forwards
        value[lanes[lone_liar]] = single_srv[lanes[lone_liar]] + 1
        died = (~(forwards | lone_liar)) | (recv_cnt == 0)
        failed[lanes[died]] = True

        # sender-side state for the next relay level
        send_cnt[lanes] = recv_cnt
        honest_cnt[lanes] = (mask & (st == ALIVE)).sum(axis=0)
        single_srv[lanes] = cand[np.argmax(amask, axis=0),
                                 np.arange(lanes.size)]
        vp = np.zeros(lanes.size, dtype=np.int64)
        corrupt = np.flatnonzero(value[lanes] > 0)
        if corrupt.size:
            srv = value[lanes][corrupt] - 1
            vp[corrupt] = (amask[:, corrupt]
                           & (cand[:, corrupt] == srv[None, :])).any(axis=0)
        value_present[lanes] = vp

    multi = ~zero_hop
    success[multi] = ~failed[multi] & (value[multi] == 0)
    return FTBatchResult(
        algorithm="resistant",
        points=engine.points,
        targets=y,
        source_idx=src_idx.astype(LANE_INT),
        t=t,
        success=success,
        messages=messages,
        parallel_time=traversed,
    )


def axis_coverage_counts(net, probes):
    """``OverlappingDHNetwork.coverage_counts`` summing its bool mask
    (every cell cast to ``int64``), frozen verbatim."""
    _cand, mask = net.cover_table(normalize_array(probes))
    return mask.sum(axis=0)
