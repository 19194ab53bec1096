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
  encoded as boolean masks keyed by server id, making per-hop survival
  one boolean reduction per level, and the Theorem 6.6 majority votes
  counting over covers instead of flooding Python dicts;
* Simple-Lookup server choices come from explicit per-hop uniforms (or
  an ``rng``), and the chosen servers are emitted as the same flattened
  CSR path arrays (:func:`~repro.core.walk.ragged_to_csr`) the
  congestion accounting layer consumes — a
  :class:`~repro.core.routing_stats.BatchCongestion` can book a routed
  fault batch directly.

Every float operation mirrors the scalar implementation (same order of
IEEE-754 operations), so with shared choice uniforms the batch Simple
Lookup is **bit-identical** to :func:`~repro.faults.lookup_ft
.simple_lookup` — success flags, chosen servers, hop/message counts and
traversed levels — and the batch resistant lookup reproduces
:func:`~repro.faults.lookup_ft.resistant_lookup`'s success/message/
parallel-time accounting exactly.  The parity tests and the scalar
cross-check replay of ``repro.cli bench-faults`` assert this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import checks
from ..core.lookup import MAX_WALK_STEPS
from ..core.walk import (KEEP_PATHS, PathResult, forward_levels,
                         level_points, normalize_points, per_lane_matrix,
                         ragged_to_csr)
from .models import FaultPlan
from .overlap import OverlappingDHNetwork

__all__ = ["FTBatchResult", "FTBatchEngine"]


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
    accepts the result as-is.
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
    tables (the overlapping membership is static), plus the fault-plan
    mask cache.  Both batch calls accept either raw target points or a
    prebuilt plan; sources must be server id points (or integer indices
    into the sorted id vector).
    """

    def __init__(self, net: OverlappingDHNetwork):
        self.net = net
        self.points = net.points_array
        self.seg_len = net.seg_len_array
        self.mid = net.mid_array
        self.n = net.n

    # ----------------------------------------------------------- helpers
    def _masks(self, plan: Optional[FaultPlan]) -> Tuple[np.ndarray, np.ndarray]:
        """(alive, liar) boolean masks aligned with the sorted id vector."""
        if plan is None:
            ones = np.ones(self.n, dtype=bool)
            return ones, np.zeros(self.n, dtype=bool)
        return plan.alive_mask(self.points), plan.liar_mask(self.points)

    def source_indices(self, sources, size: int) -> np.ndarray:
        """Resolve sources (id points or indices) to sorted-vector indices."""
        size = checks.count(size, "size")
        arr = np.asarray(sources)
        if np.issubdtype(arr.dtype, np.integer):
            idx = np.atleast_1d(arr.astype(np.int64)).ravel()
            if idx.size == 1 and size != 1:
                idx = np.full(size, idx[0], dtype=np.int64)
            if idx.size != size:
                raise ValueError("sources and targets must have the same length")
            if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                raise ValueError("source index out of range")
            return idx
        pts = np.atleast_1d(arr.astype(np.float64)).ravel()
        checks.finite(pts, "sources")
        if pts.size == 1 and size != 1:
            pts = np.full(size, pts[0])
        if pts.size != size:
            raise ValueError("sources and targets must have the same length")
        idx = np.clip(np.searchsorted(self.points, pts), 0, self.n - 1)
        if not np.array_equal(self.points[idx], pts):
            raise ValueError("sources must be server id points of the network")
        return idx

    def _enter(self, sources, targets) -> Tuple[np.ndarray, np.ndarray]:
        """Entry check of both lookups: ``(src_idx, y)``, finite and aligned."""
        y = normalize_points(targets, size=np.size(sources))
        return self.source_indices(sources, y.size), y

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
            return lambda p: np.mod(p - a, 1.0) <= length

        t, s_final, _order = forward_levels(
            y, self.mid[src_idx], 2, closed_segment, MAX_WALK_STEPS)
        return t, s_final

    # ----------------------------------------------------- simple lookup
    def batch_simple_lookup(
        self,
        sources,
        targets,
        rng: Optional[np.random.Generator] = None,
        choices: Optional[np.ndarray] = None,
        plan: Optional[FaultPlan] = None,
        keep_paths: "bool | str" = False,
        oracle=None,
        policy: str = "uniform",
        temperature: float = 1.0,
    ) -> FTBatchResult:
        """Theorem 6.3's Simple Lookup for a whole batch of pairs.

        ``sources`` are server id points (or indices), ``targets`` raw
        ring points (scalars broadcast).  Each hop gathers the alive
        covers of every pending path point from the cover table and
        picks cover ``⌊u·|alive|⌋`` per lookup, where the uniforms ``u``
        come from ``choices`` (shape ``(size, L)``, ``L ≥ max t``) or
        are drawn from ``rng`` — replaying the same uniforms through the
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
        from ..peer.policy import POLICIES, select_rows

        checks.choice(keep_paths, "keep_paths", KEEP_PATHS)
        checks.choice(policy, "policy", POLICIES)
        checks.real(temperature, "temperature", "(0, inf]")
        cost_aware = policy != "uniform"
        if cost_aware and oracle is None:
            raise ValueError(f"cost policy {policy!r} needs a CostOracle")
        if rng is None and choices is None and policy != "greedy":
            raise ValueError("batch_simple_lookup needs an rng or explicit choices")
        plan = plan if plan is not None else FaultPlan()
        alive, liar = self._masks(plan)
        src_idx, y = self._enter(sources, targets)
        size = y.size
        t, s_final = self.canonical_walks(src_idx, y)
        tmax = int(t.max()) if size else 0

        u: Optional[np.ndarray] = None
        if choices is not None:
            u = per_lane_matrix(choices, size, np.float64, "choices")
            if u.shape[1] < tmax:
                raise ValueError("supplied choices exhausted before lookup finished")
        elif rng is not None and tmax:
            u = rng.random((size, tmax))

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
            ok = mask & alive[cand]
            dead = ~ok.any(axis=0)
            # uniform picks the (⌊u·cnt⌋+1)-th alive cover, in the scalar
            # scan order, and reads no cost
            costs = (oracle.edge_costs(cur[lanes], cand) if cost_aware
                     else None)
            u_row = u[lanes, h - 1] if u is not None else None
            sel = select_rows(costs, ok, u_row, policy, temperature)
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
        success = alive[cur] & ~liar[cur] & ~failed
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
        plan = plan if plan is not None else FaultPlan()
        alive, liar = self._masks(plan)
        src_idx, y = self._enter(sources, targets)
        size = y.size
        t, s_final = self.canonical_walks(src_idx, y)
        tmax = int(t.max()) if size else 0

        # in-flight payload per lookup: 0 = the true value, i+1 = the
        # corruption injected by server i
        value = np.zeros(size, dtype=np.int64)
        messages = np.zeros(size, dtype=np.int64)
        traversed = np.zeros(size, dtype=np.int64)
        failed = np.zeros(size, dtype=bool)

        # layer 0: the replica group (alive covers of y) answers
        cand, mask = self.net.cover_table(y)
        amask = mask & alive[cand]
        send_cnt = amask.sum(axis=0)                      # |senders| next hop
        honest_cnt = (amask & ~liar[cand]).sum(axis=0)    # carrying the payload
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
            cand, mask = self.net.cover_table(p)
            amask = mask & alive[cand]
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
            honest_cnt[lanes] = (amask & ~liar[cand]).sum(axis=0)
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
            points=self.points,
            targets=y,
            source_idx=src_idx,
            t=t,
            success=success,
            messages=messages,
            parallel_time=traversed,
        )
