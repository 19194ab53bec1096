"""Oracles of the §6 fault layer: ``cover_table`` (§6.2) and the Simple
Lookup (§6.3)."""

from typing import Optional

import numpy as np

from repro import checks
from repro.core.walk import (KEEP_PATHS, level_points, per_lane_matrix,
                             ragged_to_csr)
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
