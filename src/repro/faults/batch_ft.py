"""Vectorized fault-tolerant batch lookups on the overlapping DHT (§6.3).

The scalar algorithms in :mod:`repro.faults.lookup_ft` walk one
canonical path at a time through Python cover scans — fine for
validating Theorems 6.3/6.4/6.6, far too slow for the fault sweeps the
roadmap targets.  This module routes *arrays* of fault-tolerant lookups
through the same continuous-discrete machinery, riding the batch spine
of :mod:`repro.core.batch`:

* the §6.2 overlapping cover structure is consumed through the
  network's array-backed cover tables
  (:meth:`~repro.faults.overlap.OverlappingDHNetwork.cover_table`): one
  cover-index read plus a ``(max α, B)`` gather answers "all covers of
  every path point of the batch";
* the §6.3 canonical path is the fast-lookup engine's walk read
  through overlapping covers: the same forward search and closed-form
  level point (:func:`~repro.core.walk.forward_levels`,
  :func:`~repro.core.walk.level_points` — level ``j`` of every walk is
  ``(y + ⌊z·2^t⌋ mod 2^j) / 2^j``), so a whole batch shares one walk
  evaluation per level;
* :class:`~repro.faults.models.FaultPlan` fail-stop/Byzantine sets are
  encoded as one ``uint8`` state per server (bit 0 alive, bit 1 liar),
  gathered once per level: per-hop survival is one boolean reduction,
  and the Theorem 6.6 majority votes count over covers instead of
  flooding Python dicts;
* Simple-Lookup server choices come from explicit per-hop uniforms (or
  a ``key`` and the lane's index), and the chosen servers are emitted
  as the same flattened CSR path arrays
  (:func:`~repro.core.walk.ragged_to_csr`) the congestion accounting
  layer consumes: a :class:`~repro.core.routing_stats.BatchCongestion`
  can book a routed fault batch directly.

Every float operation mirrors the scalar implementation (same order of
IEEE-754 operations), so with shared choice uniforms the batch Simple
Lookup is **bit-identical** to :func:`~repro.faults.lookup_ft
.simple_lookup` — success flags, chosen servers, hop/message counts and
traversed levels — and the batch resistant lookup reproduces
:func:`~repro.faults.lookup_ft.resistant_lookup`'s success/message/
parallel-time accounting exactly.  The parity tests and the scalar
cross-check replays of experiments E13 and E14 assert this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import checks
from ..core.lookup import MAX_WALK_STEPS
from ..core.walk import (KEEP_PATHS, LANE_INT, KeyedLanes, PathResult,
                         count_rows, first_rows, forward_levels, lane_blocks,
                         level_points, normalize_pair, per_lane_matrix,
                         ragged_to_csr)
from ..peer.costmap import CostMap
from ..peer.itracker import NO_COST_MAP, CostOracle
from ..peer.policy import POLICIES, select_rows
from .models import FaultPlan
from .overlap import OverlappingDHNetwork, ring_gap

__all__ = ["FTBatchResult", "FTBatchEngine"]

#: Bits of the per-server fault state (:meth:`FTBatchEngine._state`):
#: an alive honest server is ``ALIVE``, a liar ``ALIVE | LIAR``.
ALIVE, LIAR = 1, 2


@dataclass
class FTBatchResult(PathResult):
    """Array-of-structs outcome of a batch of fault-tolerant lookups.

    Mirrors :class:`~repro.faults.lookup_ft.FTLookupResult`
    field-for-field with one NumPy array of length ``size`` per
    quantity.  ``parallel_time`` counts the relay levels *actually
    traversed* (on failure: up to the point the walk died), matching the
    scalar semantics.  For Simple Lookup batches routed with
    ``keep_paths``, the chosen server walks are read through the
    :class:`~repro.core.walk.PathResult` contract (a failed walk's path
    ends where it died; ``server_path(i)`` equals
    ``compress_path(FTLookupResult.servers)`` of the scalar engine for
    the same lookup and choice uniforms), so
    :class:`~repro.core.routing_stats.BatchCongestion.record_batch`
    accepts the result as-is.  Its index and count columns keep the
    :class:`~repro.core.walk.PathResult` lane contract (``int32``).
    """

    algorithm: str
    points: np.ndarray
    targets: np.ndarray
    source_idx: np.ndarray
    t: np.ndarray
    success: np.ndarray
    messages: np.ndarray
    parallel_time: np.ndarray
    holder_idx: Optional[np.ndarray] = None     # simple lookups only
    path_servers: Optional[np.ndarray] = None
    path_offsets: Optional[np.ndarray] = None
    #: covering-edge selection rule the batch was routed with
    #: (see :mod:`repro.peer.policy`); "uniform" is the paper's rule
    policy: str = "uniform"

    @property
    def size(self) -> int:
        """Number of lookups in the batch."""
        return int(self.targets.size)

    @property
    def hops(self) -> np.ndarray:
        """Server transitions per lookup (== compressed path length − 1).

        For the Simple Lookup this equals :attr:`messages`: the walk
        sends one message whenever it moves to a different server.
        Resistant floods have no single walk — their :attr:`messages`
        is the Theorem 6.6 count Σ |S_k|·|S_{k+1}| — so asking for hops
        there is a contract error, not a number.
        """
        if self.algorithm != "simple":
            raise ValueError(
                "hops is defined for Simple Lookup batches only; resistant "
                "floods report `messages` (Σ |senders|·|receivers|)")
        return self.messages

    def success_rate(self) -> float:
        """Share of lookups that reached a live, honest holder (0 when empty)."""
        return float(self.success.mean()) if self.size else 0.0


class FTBatchEngine:
    """Batch driver for the §6.3 lookups over one overlapping network.

    The engine holds only references to the network's frozen cover
    tables (the overlapping membership is static).  Both batch calls
    take server id points as sources and raw ring points as targets.
    Built with ``cost_map=``, the engine keeps ``cost``, a
    :class:`~repro.peer.itracker.CostOracle` over its ids, for the
    Simple Lookup's cost policies; ``cost`` is ``None`` without one.
    """

    def __init__(self, net: OverlappingDHNetwork,
                 cost_map: Optional[CostMap] = None):
        self.net = net
        self.points = net.points_array
        self.seg_len = net.seg_len_array
        self.mid = net.mid_array
        self.n = net.n
        self.cost = (CostOracle(self.points, cost_map)
                     if cost_map is not None else None)

    # ----------------------------------------------------------- helpers
    def _state(self, plan: Optional[FaultPlan]) -> np.ndarray:
        """Per-server ``uint8`` fault state aligned with the sorted id
        vector: bit :data:`ALIVE` for a live server, :data:`LIAR` for a
        Byzantine one; no plan leaves every server alive and honest.

        One gather ``state[cand]`` per level then answers both "alive?"
        (``state & ALIVE``) and "alive and honest?" (``state == ALIVE``).
        """
        if plan is None:
            return np.full(self.n, ALIVE, dtype=np.uint8)
        state = plan.alive_mask(self.points).astype(np.uint8)
        state |= plan.liar_mask(self.points).astype(np.uint8) << 1
        return state

    def _enter(self, sources, targets) -> Tuple[np.ndarray, np.ndarray]:
        """Entry check of both lookups: ``(src_idx, y)``, finite and aligned.

        :func:`~repro.core.walk.normalize_pair`'s preamble, and every
        source must be one of the network's id points: its index in the
        sorted id vector is what the walks read.
        """
        pts, y = normalize_pair(sources, targets)
        idx = np.clip(np.searchsorted(self.points, pts), 0, self.n - 1)
        if not np.array_equal(self.points[idx], pts):
            raise ValueError("sources must be server id points of the network")
        return idx, y

    def canonical_walks(self, src_idx: np.ndarray, y: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized §6.3 canonical-path parameters ``(t, ⌊z·2^t⌋)``.

        Mirrors :func:`~repro.faults.lookup_ft.canonical_path`: the
        smallest ``t`` whose approach walk from the source-segment
        midpoint ``z`` lands the target image inside the source's
        overlapping segment — the shared forward search under §6.2's
        closed cyclic segment test.  Path point ``j`` (0 ≤ j ≤ t, target
        end at ``j = 0``) of lookup ``b`` is then
        ``(y_b + (s_b mod 2^j)) / 2^j`` folded to ``[0, 1)``
        (:func:`~repro.core.walk.level_points`).
        """
        start, seg_len = self.points[src_idx], self.seg_len[src_idx]

        def closed_segment(lanes):
            a, length = start[lanes], seg_len[lanes]
            return lambda p: ring_gap(p - a) <= length

        t, s_final, _order = forward_levels(
            y, self.mid[src_idx], 2, closed_segment, MAX_WALK_STEPS)
        return t, s_final

    # ----------------------------------------------------- simple lookup
    def batch_simple_lookup(
        self,
        sources,
        targets,
        key: Optional[int] = None,
        choices: Optional[np.ndarray] = None,
        plan: Optional[FaultPlan] = None,
        keep_paths: "bool | str" = False,
        policy: str = "uniform",
    ) -> FTBatchResult:
        """Theorem 6.3's Simple Lookup for a whole batch of pairs.

        ``sources`` are server id points, ``targets`` raw
        ring points (scalars broadcast).  Each hop gathers the alive
        covers of every pending path point from the cover table and
        picks cover ``⌊u·|alive|⌋`` per lookup, where the uniforms ``u``
        come from ``choices`` (shape ``(size, L)``, ``L ≥ max t``) or
        from ``key``, an int in ``[0, 2^64)`` (lane ``i``'s uniforms,
        :class:`~repro.core.walk.KeyedLanes`: a stream cut at ``start``
        into calls keyed ``lane_key(key, start)`` routes as one call) —
        replaying the same uniforms through the scalar
        :func:`~repro.faults.lookup_ft.simple_lookup` reproduces the
        batch bit-for-bit.  ``keep_paths`` (``True`` or ``"csr"``)
        records the chosen server walks as CSR path arrays.

        On an engine built with ``cost_map=``, ``policy="greedy"`` or
        ``"weighted"`` makes the per-hop cover choice cost-aware: the
        candidate costs are one gather through the engine's ``cost``
        oracle and the pick follows :func:`~repro.peer.policy
        .select_rows`.  The same uniforms drive the scalar walk
        bit-identically through its matching ``cost_map``/``policy``
        arguments ("greedy" needs no uniforms at all);
        ``policy="uniform"`` reads no cost and is byte-identical on
        either engine.
        """
        checks.choice(keep_paths, "keep_paths", KEEP_PATHS)
        checks.choice(policy, "policy", POLICIES)
        cost_aware = policy != "uniform"
        if cost_aware and self.cost is None:
            raise ValueError(NO_COST_MAP.format(policy=policy,
                                                engine="FTBatchEngine"))
        if key is not None:
            checks.count(key, "key", 0, 1 << 64)
        elif choices is None and policy != "greedy":
            raise ValueError("batch_simple_lookup needs a key or explicit choices")
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
        elif key is not None and policy != "greedy":
            u = KeyedLanes(key, size, tmax)

        cur = src_idx.copy()
        messages = np.zeros(size, dtype=LANE_INT)
        traversed = np.zeros(size, dtype=LANE_INT)
        failed = np.zeros(size, dtype=bool)
        if keep_paths:
            # lane-major ragged walk buffer: t+1 slots per lane, slot h
            # holds the server chosen at hop h (slot 0 the source)
            slots = t + 1
            ends = np.cumsum(slots, dtype=np.int64)
            starts = ends - slots
            buf = np.empty(ends[-1] if size else 0, dtype=np.int32)
            del slots, ends
            buf[starts] = src_idx

        # the lanes walk independently, so the hop loop runs one lane
        # block at a time and its (W, B) cover tables stay a block wide
        for lo, hi in lane_blocks(size):
            for h in range(1, tmax + 1):
                lanes = lo + np.flatnonzero((t[lo:hi] >= h) & ~failed[lo:hi])
                if not lanes.size:
                    break
                # t is int32, and so its exponents: np.ldexp has no int64
                # loop where C long is 32-bit (Windows)
                scale = np.ldexp(1.0, t[lanes] - h)
                p = level_points(y[lanes], s_final[lanes], scale, 2)
                cand, mask = self.net.cover_table(p)
                ok = mask & (state[cand] & ALIVE).view(bool)
                dead = ~ok.any(axis=0)
                # uniform picks the (⌊u·cnt⌋+1)-th alive cover, in the
                # scalar scan order, and reads no cost
                costs = (self.cost.edge_costs(cur[lanes], cand)
                         if cost_aware else None)
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
            source_idx=src_idx.astype(LANE_INT),
            t=t,
            success=success,
            messages=messages,
            parallel_time=traversed,
            holder_idx=cur.astype(LANE_INT),
            policy=policy,
            path_servers=servers,
            path_offsets=offsets,
        )

    # -------------------------------------------------- resistant lookup
    def batch_resistant_lookup(
        self,
        sources,
        targets,
        plan: Optional[FaultPlan] = None,
    ) -> FTBatchResult:
        """Theorem 6.6's false-message-resistant lookup, batched.

        Floods every canonical path level-by-level with the majority
        filter of the scalar :func:`~repro.faults.lookup_ft
        .resistant_lookup` evaluated as counts over the cover table: at
        each relay level the only value that can carry a strict majority
        is either the payload currently in flight (honest senders all
        relay it) or — when exactly one, lying, sender remains — that
        sender's private corruption, because every liar corrupts to a
        value keyed by its own id.  Success, message counts
        (Σ |senders|·|alive receivers|) and traversed levels reproduce
        the scalar accounting exactly.
        """
        state = self._state(plan)
        src_idx, y = self._enter(sources, targets)
        size = y.size
        t, s_final = self.canonical_walks(src_idx, y)
        tmax = int(t.max()) if size else 0

        # in-flight payload per lookup: 0 = the true value, i+1 = the
        # corruption injected by server i
        value = np.zeros(size, dtype=np.int64)
        messages = np.zeros(size, dtype=LANE_INT)
        traversed = np.zeros(size, dtype=LANE_INT)
        failed = np.zeros(size, dtype=bool)

        # layer 0: the replica group (alive covers of y) answers
        cand, mask = self.net.cover_table(y)
        st = state[cand]
        amask = mask & (st & ALIVE).view(bool)
        # |senders| next hop, and those carrying the payload (int64)
        send_cnt = count_rows(amask).astype(np.int64)
        honest_cnt = count_rows(mask & (st == ALIVE)).astype(np.int64)
        single_srv = cand[first_rows(amask), np.arange(size)]
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
            cand, mask = self.net.cover_table(p)
            st = state[cand]
            amask = mask & (st & ALIVE).view(bool)
            recv_cnt = count_rows(amask).astype(np.int64)
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
            honest_cnt[lanes] = count_rows(mask & (st == ALIVE))
            single_srv[lanes] = cand[first_rows(amask), np.arange(lanes.size)]
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
            points=self.points,
            targets=y,
            source_idx=src_idx.astype(LANE_INT),
            t=t,
            success=success,
            messages=messages,
            parallel_time=traversed,
        )
