"""Vectorized batch-lookup engine for the Distance Halving DHT.

The scalar algorithms in :mod:`repro.core.lookup` route one message at a
time through Python objects — perfect for validating the paper's theorems,
far too slow for the "heavy traffic" workloads the roadmap targets.  This
module routes *arrays* of lookups through the same continuous-discrete
scheme:

* the segment decomposition is frozen into sorted NumPy arrays (id
  points, segment bounds, midpoints, per-row neighbour index ranges)
  plus the bucket-grid :class:`~repro.core.segments.CoverIndex` derived
  from the point column, so a cover query for a whole batch is one
  table read plus O(ρ) compares per point — no binary search;
* the walk functions of §2.2 are evaluated in closed form per *routing
  level* instead of per hop per lookup — level ``t`` of the fast lookup
  is ``w(σ(z)_t, y) = (y + ⌊z·Δ^t⌋) / Δ^t`` for every pending lookup at
  once, and the backward descent reuses ``⌊z·Δ^t⌋ mod Δ^j`` over the
  lanes still that deep, writing every cover straight into the ragged
  CSR path buffer — the kernels of :mod:`repro.core.walk`, which the
  cache, fault-tolerant and baseline engines share;
* the two-phase Distance Halving lookup advances every in-flight message
  one level per iteration (`pos/Δ + d/Δ` elementwise) and resolves the
  "target image covered by me or a neighbour" test with Δ+2 interval
  compares: §2.1's neighbours are the covers of Δ+1 arcs plus the ring,
  each a contiguous index range of the sorted point column.

Every float operation mirrors the scalar implementation ULP-for-ULP (same
order of IEEE-754 operations), so batch results are *bit-identical* to
:func:`repro.core.lookup.fast_lookup` — owners, walk parameters ``t``,
hop counts, and (with ``keep_paths``) full server paths — and to
:func:`repro.core.lookup.dh_lookup` when both are driven by the same
digit strings ``tau``.  That parity is what the property tests and the
scalar-subsample cross-checks of experiments X3 and E4 assert.

The router snapshots the decomposition, but it is not doomed to die at
the first membership change: every network keeps a membership version
counter plus a bounded op journal, and a router obtained from
``net.router(auto_refresh=True)`` re-syncs *incrementally* before each
batch — each pending join/leave is replayed as an in-place edit of the
router's growable point / segment-end / midpoint buffers (a one-slot
shift of each buffer's tail plus the ≤ 2 rows whose segment changed),
and the columns derived from the point column (cover grid, neighbour
ranges) follow once per refresh, falling back to a full recompile only
past a configurable churn budget.  Arrays the router hands out — its
column attributes, a result's ``points`` — are read-only views that are
never edited: handing one out marks the buffers shared, and the next
refresh copies them once before it edits.  A plain
``net.compile_router()`` handle instead raises an actionable
stale-router error rather than silently serving an outdated snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import checks
from .interval import midpoint
from .lookup import MAX_WALK_STEPS
from .segments import (FLOAT_IDS_ONLY, CoverIndex, SegmentMap,
                       arc_cover_ranges, fold_unit, normalize_array)
from .snapshot import ColumnarSnapshot, StaleSnapshotError
from .walk import (KEEP_PATHS, LANE_INT, KeyedLanes, PathResult, descend,
                   draw_key, exact_digits, forward_levels, normalize_pair,
                   path_hops, per_lane_matrix, replay, walking_lanes)

__all__ = ["BatchRouter", "BatchLookupResult"]

#: One message for every stale-router raise site, so the guidance and the
#: substrings tests match on ("stale", "rebuild", "auto_refresh") cannot drift.
_STALE_ROUTER_ERROR = (
    "stale router: the network changed since compile_router() (membership "
    "version moved on); the router is a frozen snapshot — rebuild it "
    "(net.compile_router()) after joins or leaves, or compile with "
    "net.router(auto_refresh=True) to follow churn automatically"
)


def _last_entries(servers: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each CSR path's last server, ``int32`` as the paths — the owner.

    Exact for :func:`~repro.core.walk.descend`'s paths: the j = 0 point
    is ``level_points(y, off, 1.0) = y``, and a lane that descends no
    level (t = 0) holds only its source, which covers ``y``.  It saves
    a second cover read over the batch.
    """
    return servers.take(offsets[1:] - 1)


@dataclass
class BatchLookupResult(PathResult):
    """Array-of-structs outcome of a routed batch of lookups.

    Mirrors :class:`repro.core.lookup.LookupResult` field-for-field, but
    every per-lookup quantity is a NumPy array of length ``size``.
    ``owner_idx``/``source_idx`` index into ``points`` (the router's
    sorted id vector).  Its columns keep the
    :class:`~repro.core.walk.PathResult` lane contract: indices and
    counts ``int32``, ``tau_used`` one narrow unsigned digit each.

    Paths are stored flattened (CSR) whenever the batch call was asked
    to keep them (``keep_paths="csr"``, or ``True``, which means the
    same) and read through the :class:`~repro.core.walk.PathResult`
    contract — a lossless re-encoding of the scalar
    ``LookupResult.server_path``.
    """

    algorithm: str
    points: np.ndarray
    targets: np.ndarray
    sources: np.ndarray
    source_idx: np.ndarray
    owner_idx: np.ndarray
    t: np.ndarray
    hops: np.ndarray
    phase1_hops: Optional[np.ndarray] = None
    #: phase-I digits actually taken (cost-rule dh batches record them,
    #: 0-padded past each lookup's ``t``) — feeding them back through the
    #: ``tau=`` replay hook of the scalar/batch dh lookups reproduces the
    #: routed paths bit-for-bit; ``policy`` names the cost rule (``None``
    #: under the uniform one, which records no digits)
    tau_used: Optional[np.ndarray] = None
    policy: Optional[str] = None
    # CSR path representation (None when routed with keep_paths=False)
    path_servers: Optional[np.ndarray] = None
    path_offsets: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Number of lookups in the batch."""
        return int(self.targets.size)

    @property
    def owner(self) -> np.ndarray:
        """Id points of the servers owning each target."""
        return self.points[self.owner_idx]


class BatchRouter(ColumnarSnapshot):
    """Frozen NumPy snapshot of a network that routes lookups in bulk.

    The router is the membership instance of the shared
    :class:`~repro.core.snapshot.ColumnarSnapshot` layer: the base class
    owns the version counter against the network's membership journal,
    the stale-or-refresh entry guard, the incremental-vs-full refresh
    decision with its :class:`~repro.core.snapshot.SnapshotRefreshStats`
    accounting.  This class contributes the routing math plus the
    membership-specific patch rule (:meth:`_patch`) and rebuild
    (:meth:`_rebuild`).

    Parameters
    ----------
    net:
        The :class:`~repro.core.network.DistanceHalvingNetwork` to
        snapshot.  Float ids only: compiling over a network that holds
        an exact :class:`~fractions.Fraction` id raises ``ValueError``,
        and so does refreshing onto one.  Exact ids stay on the scalar
        side (:mod:`repro.core.lookup`); a dyadic id ``i/2^r`` converts
        to float exactly, so such a network is built with
        ``net.join(i / n)``.
    build_adjacency:
        Precompute the neighbour ranges :meth:`batch_dh_lookup` needs
        (``adj_first`` / ``adj_count``; ``None`` until built).  Costs
        one pass over all segment images (Δ+1 sorted searches over the
        point column) at compile and again per ``refresh()``; skipped by
        default because :meth:`batch_fast_lookup` never consults
        adjacency.
    auto_refresh:
        Follow membership changes: before every batch, pending
        joins/leaves are replayed from the network's membership log as
        in-place edits of the router's buffers (see :meth:`_patch`).  When
        ``False`` (the :meth:`~repro.core.network.DistanceHalvingNetwork
        .compile_router` default) a stale router raises instead.
    churn_budget:
        Maximum number of pending ops an incremental refresh will
        replay; beyond it the router recompiles from scratch, which is
        cheaper for bulk changes.  ``None`` means ``max(16, n // 16)``;
        a negative budget raises ``ValueError``.
    cost_map:
        A :class:`~repro.peer.costmap.CostMap`: the router then keeps
        ``cost``, a :class:`~repro.peer.itracker.CostOracle` over its
        points, for :meth:`batch_dh_lookup`'s cost rules ("greedy",
        "weighted"), rebuilt from the points every refresh
        (:meth:`_derive`); ``cost`` is ``None`` without one, and the
        uniform rule, which reads no cost, routes either way.
    """

    def __init__(self, net, build_adjacency: bool = False,
                 auto_refresh: bool = False,
                 churn_budget: Optional[int] = None,
                 cost_map=None) -> None:
        if net.n == 0:
            raise LookupError("cannot compile a router over an empty network")
        self._net = net
        self.cost_map = cost_map
        self.cost = None
        self.adj_first: Optional[np.ndarray] = None
        self.adj_count: Optional[np.ndarray] = None
        super().__init__(journal=net.membership_log,
                         auto_refresh=auto_refresh,
                         budget=churn_budget,
                         stale_error=_STALE_ROUTER_ERROR)
        if build_adjacency:
            self._build_adjacency()

    # ------------------------------------------------------------- snapshot
    def _rebuild(self) -> None:
        """(Re)build every column from the live network.

        Keeps the derived columns through full rebuilds (:meth:`_derive`)
        so their cost lands in ``refresh_stats``, not in the next dh
        batch.
        """
        net = self._net
        if not net.segments.is_float():
            raise ValueError(FLOAT_IDS_ONLY)
        self.delta = int(net.delta)
        self.with_ring = bool(net.with_ring)
        # CoverIndex copies the live column into ``ext``: the router's
        # buffers never alias the map's
        index = CoverIndex(net.segments.column)
        points = index.ext[:-1]
        seg_end = np.empty_like(points)
        seg_end[:-1] = points[1:]
        seg_end[-1] = points[0]
        self._adopt(index, seg_end, SegmentMap.midpoints_from_array(points))
        self._derive()

    def _adopt(self, index: CoverIndex, seg_end, midpoints) -> None:
        """Take compiled columns as the row buffers, exactly n rows long.

        The cover index's ``ext`` (the point column plus its ``+inf``
        sentinel) becomes the point buffer the router and index share.
        Room to grow is made only by :meth:`_patch`'s copy.
        """
        self.cover_index = index
        self._ext, self._end, self._mid = index.ext, seg_end, midpoints
        self.n = len(seg_end)
        self._shared = False

    # -------------------------------------------------------------- columns
    def _rows(self, buf: np.ndarray) -> np.ndarray:
        """Hand out a buffer's live rows: a read-only view, never edited.

        Marks the buffers shared, so the next refresh edits a copy.
        """
        self._shared = True
        view = buf[:self.n]
        view.flags.writeable = False
        return view

    @property
    def points(self) -> np.ndarray:
        """Sorted server ids ``x_i`` (float64), a read-only hand-out."""
        return self._rows(self._ext)

    @property
    def seg_end(self) -> np.ndarray:
        """Segment ends ``x_{i+1}`` (``x_0`` for the seam row), read-only."""
        return self._rows(self._end)

    @property
    def midpoints(self) -> np.ndarray:
        """Segment midpoints, ``Arc.midpoint`` bit for bit, read-only."""
        return self._rows(self._mid)

    @property
    def n_rows(self) -> int:
        """Rows of every column, without handing one out."""
        return self.n

    def __getstate__(self) -> dict:
        """Pickle / deepcopy state: each buffer trimmed to its live rows.

        The point buffer travels once, as the cover index's ``ext``;
        :meth:`__setstate__` makes it the router's point buffer again.
        """
        state = self.__dict__.copy()
        del state["_ext"]
        state["_end"], state["_mid"] = self._end[:self.n], self._mid[:self.n]
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore pickled state: one shared point buffer, none handed out."""
        self.__dict__.update(state)
        self._ext = self.cover_index.ext
        self._shared = False

    def _derive(self) -> None:
        """Recompute the columns derived from the points, once a refresh.

        The adjacency ranges when built (Δ+1 sorted searches, cheaper
        than finding the rows an op touched) and the cost columns when a
        cost map is set: hashes of the id points, so the O(n) rehash is
        bit-identical to a fresh compile's, with no patch rule to drift.
        """
        if self.adj_first is not None:
            self._build_adjacency()
        if self.cost_map is not None:
            from ..peer.itracker import CostOracle

            # the live rows, read without handing the column out
            self.cost = CostOracle(self._ext[:self.n], self.cost_map)

    @property
    def cost_isp(self) -> np.ndarray:
        """The ISP label column, ``cost.isp`` under its former name."""
        return self.cost.isp

    def _build_adjacency(self) -> None:
        """The neighbour relation as per-row index ranges of the point column.

        Row ``i`` is ``neighbor_points(x_i)`` of §2.1: the servers whose
        segments meet an image ``f_d(s(x_i))`` or the preimage
        ``b(s(x_i))``, plus the ring neighbours.  Every one of those is
        an arc, so its covering set is one modular index range
        (:func:`~repro.core.segments.arc_cover_ranges`): slot ``d < Δ``
        of ``adj_first`` / ``adj_count`` (int32, ``first`` in ``[0, n)``)
        holds image ``f_d``'s, slot Δ the preimage's, slot Δ+1 the ring
        ``i-1 .. i+1``.  Column ``i`` describes ``[x_i, x_{i+1})``
        (``[x_{n-1}, 1)`` for the seam row); the seam segment's second
        piece ``[0, x_0)`` is the virtual column ``n``, empty when
        ``x_0 == 0``.  The arc ends are computed with the float
        operations of
        ``ContinuousGraph.image_arcs`` / ``preimage_arcs``, which keeps
        the relation identical to the scalar ``neighbor_points``.
        """
        n, delta = self.n, self.delta
        pts = self._ext[:n]
        self.adj_first = first = np.zeros((delta + 2, n + 1), dtype=np.int32)
        self.adj_count = count = np.zeros((delta + 2, n + 1), dtype=np.int32)
        if n == 1:  # the only server covers every image itself
            return
        pieces = n + (pts[0] > 0.0)
        a = np.append(pts, 0.0)[:pieces]
        b = np.concatenate([pts[1:], [1.0, pts[0]]])[:pieces]
        factor = 1.0 / delta
        for d in range(delta):
            offset = d / delta
            first[d, :pieces], count[d, :pieces] = arc_cover_ranges(
                pts, normalize_array(a * factor + offset),
                normalize_array(b * factor + offset))
        # b(s): a piece of length >= 1/Δ pulls back to the full ring, which
        # an arc spells start == end
        length = (b - a) * delta
        start = normalize_array(a * delta)
        first[delta, :pieces], count[delta, :pieces] = arc_cover_ranges(
            pts, start,
            np.where(length >= 1, start, normalize_array(start + length)))
        if self.with_ring:  # predecessor, self, successor
            first[delta + 1, :n] = np.arange(-1, n - 1) % n
            count[delta + 1, :n] = min(3, n)

    def _edge_member(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Vectorized ``col[i] in neighbours(row[i])`` membership test.

        One ``take`` gathers every lane's Δ+2 slots at once, then one
        modular interval compare per slot — O(Δ) per lane, no search;
        the lanes on the seam row also test its second piece, the
        virtual column ``n``.
        """
        if self.adj_first is None:
            self._build_adjacency()
        first, count = self.adj_first, self.adj_count
        n = self.n
        if first.shape[1] != n + 1:
            # columns older than the point column: a patch that died
            # half-way
            raise StaleSnapshotError(_STALE_ROUTER_ERROR)
        def within(col, first, count):
            # first < n, so (col - first) mod n is one add on the lanes
            # below zero: n masked by the sign bits
            gap = col - first
            gap += n & (gap >> 31)
            return gap < count

        col = col.astype(np.int32)
        hit = within(col, first.take(row, axis=1),
                     count.take(row, axis=1)).any(axis=0)
        seam = np.flatnonzero(row == n - 1)
        if seam.size:
            hit[seam] |= within(col[seam], first[:, n, None],
                                count[:, n, None]).any(axis=0)
        return hit & (row != col)

    # -------------------------------------------------- incremental refresh
    def refresh(self, force_full: bool = False) -> "BatchRouter":
        """Bring the snapshot up to date with the live network.

        Replays the membership-log suffix since :attr:`version` as
        incremental patches; recompiles from scratch when ``force_full``
        is set, the pending-op count exceeds the churn budget, the log
        window was exceeded, or the network passed through a tiny size
        (n < 4) where the ring seam makes patching not worth the care
        (the latter two via :meth:`_patch` bailing out to the base
        class's full-rebuild path).  Returns ``self`` so calls chain.
        """
        if (force_full or self.is_stale) and self._net.n == 0:
            raise LookupError("cannot refresh a router over an empty network")
        super().refresh(force_full)
        return self

    def _patch(self, pending) -> bool:
        """Replay ``pending`` as in-place buffer edits; False to bail to full.

        The router owns three growable float64 buffers: the point
        column plus the cover index's ``+inf`` sentinel (one buffer the
        index shares), the segment ends and the midpoints.  A join or
        leave at index ``i`` shifts each buffer's tail one slot, writes
        the joined id, and recomputes the ≤ 2 rows whose segment changed
        (:meth:`_settle`) — whatever the number of pending ops, every op
        is the same O(tail) edit.  Rings passing through n < 4 bail out
        before anything is touched; a live network that now holds an
        exact id raises ``ValueError`` first, as a compile over it does.

        Handed-out arrays are read-only and never edited; unshared
        buffers are edited in place.  Every public read of a column
        (:meth:`_rows`) marks the buffers shared, and the next patch
        first copies them — once, with room for ``max(16, n // 16)``
        more rows — and edits the copy; so does a patch that would
        outgrow them.  ``refresh_stats.copies`` counts those copies.
        The cover grid, the adjacency ranges and the cost columns are
        derived columns of the point column: each is brought up to date
        once per refresh, whatever the number of pending ops
        (:meth:`_derive`).
        """
        if not self._net.segments.is_float():
            raise ValueError(FLOAT_IDS_ONLY)
        n = peak = self.n
        for kind, _p, _i in pending:
            if n < 4:  # a tiny ring on the way: not worth the care
                return False
            n += 1 if kind == "join" else -1
            peak = max(peak, n)
        if n < 4:
            return False

        if self._shared or peak >= len(self._ext):
            self._copy(peak)
        ext, end, mid = self._ext, self._end, self._mid
        n = self.n
        for kind, p, i in pending:
            if kind == "join":
                ext[i + 1:n + 2] = ext[i:n + 1]
                end[i + 1:n + 1] = end[i:n]
                mid[i + 1:n + 1] = mid[i:n]
                ext[i] = p
                n += 1
                self._settle(i, n)
            else:
                ext[i:n] = ext[i + 1:n + 1]
                end[i:n - 1] = end[i + 1:n]
                mid[i:n - 1] = mid[i + 1:n]
                n -= 1
            self._settle((i - 1) % n, n)
        self.n = n
        # the journal's p is the float64 the column stores
        self.cover_index.follow(
            ext[:n + 1], np.array([p for _, p, _ in pending]),
            np.array([1 if kind == "join" else -1 for kind, _, _ in pending]))
        self._derive()
        return True

    def _copy(self, rows: int) -> None:
        """Copy-on-write: move the live rows into fresh, roomier buffers.

        The old buffers stay behind as the arrays already handed out.
        """
        n, cap = self.n, rows + max(16, rows // 16)
        ext, end, mid = np.empty(cap + 1), np.empty(cap), np.empty(cap)
        ext[:n + 1] = self._ext[:n + 1]
        end[:n] = self._end[:n]
        mid[:n] = self._mid[:n]
        self._ext, self._end, self._mid = ext, end, mid
        self._shared = False
        self.refresh_stats.copies += 1

    def _settle(self, i: int, n: int) -> None:
        """Recompute row ``i``'s segment end and midpoint, ``n >= 2`` rows.

        The row's length as :meth:`SegmentMap.lengths_from_array` takes
        it (the seam row's ``1 - x_{n-1} + x_0``) and its centre by
        :func:`~repro.core.interval.midpoint`, so the row is
        bit-identical to a fresh compile's, with no ``Arc`` built.
        """
        ext = self._ext
        start = ext.item(i)
        if i + 1 < n:
            stop = ext.item(i + 1)
            length = stop - start
        else:
            stop = ext.item(0)
            length = 1.0 - start + stop
        self._end[i] = stop
        self._mid[i] = midpoint(start, length, stop)

    # ------------------------------------------------------------- sharding
    def sharded_executor(self, workers: int):
        """The cached :class:`~repro.core.shard.ShardedExecutor` handle.

        Lazily built on first use and reused across batches (worker
        pools are expensive); rebuilt when ``workers`` changes.  The
        executor re-syncs its shared-memory snapshot against this
        router's version on every batch, so churn + ``auto_refresh``
        compose with sharding.  Call :meth:`close_executor` (or close
        the returned handle) when done.  ``workers`` other than an
        integer ``>= 2`` raises ``ValueError`` before the cached
        executor is touched.
        """
        from .shard import ShardedExecutor
        workers = checks.count(workers, "workers", 2)
        ex = getattr(self, "_executor", None)
        if ex is not None and ex.workers != workers:
            ex.close()
            ex = None
        if ex is None:
            ex = ShardedExecutor(self, workers)
            self._executor = ex
        return ex

    def close_executor(self) -> None:
        """Tear down the cached sharded executor (no-op without one)."""
        ex = getattr(self, "_executor", None)
        if ex is not None:
            ex.close()
            self._executor = None

    def lookup_batch(self, sources, targets, workers: int = 1,
                     keep_paths: "bool | str" = False) -> BatchLookupResult:
        """Route a batch of fast lookups, optionally sharded.

        ``workers=1`` (the default) is exactly
        :meth:`batch_fast_lookup`; an integer ``workers>=2`` routes
        contiguous slices through the cached sharded executor and merges
        — the result is bit-identical either way.  Any other value
        raises ``ValueError``.
        """
        if checks.count(workers, "workers", 1) == 1:
            return self.batch_fast_lookup(sources, targets,
                                          keep_paths=keep_paths)
        return self.sharded_executor(workers).batch_fast_lookup(
            sources, targets, keep_paths=keep_paths)

    # ---------------------------------------------------------------- cover
    def cover(self, ys: np.ndarray) -> np.ndarray:
        """Indices of the segments covering each point (O(1) per point).

        ``ys`` must lie in ``[0, 1)`` — anything else (NaN included)
        raises ``ValueError``; for raw ring points use
        :meth:`SegmentMap.cover_array`, which normalizes first.  Matches
        ``SegmentMap.cover`` exactly: greatest ``x_i <= y``, wrapping
        below ``x_0`` to the last server.  The engine's own per-level
        calls go straight to :attr:`cover_index` (they normalize at
        entry and fold after every walk step, so they skip this check).
        """
        self.ensure_fresh()
        ys = np.asarray(ys, dtype=np.float64)
        bad = ~((ys >= 0.0) & (ys < 1.0))
        if bad.any():
            lane = int(np.argmax(bad))
            raise ValueError(
                f"cover: ys[{lane}] is {float(ys.flat[lane])!r}, outside "
                "[0, 1); normalize raw ring points first "
                "(SegmentMap.cover_array does)"
            )
        return self.cover_index.cover(ys)

    def _segment_test(self, idx: np.ndarray):
        """``p -> (p in segment(idx))`` with the bounds gathered once.

        Vector version of the wrap-aware half-open membership test; the
        returned callable reuses the gathered bounds, so a loop over
        walk levels with fixed ``idx`` pays for them once.
        """
        if self.n == 1:
            return lambda p: np.ones(p.shape, dtype=bool)
        start = self._ext.take(idx)
        end = self._end.take(idx)
        # only the seam-crossing last segment has start > end; for those
        # lanes the half-open test is a disjunction instead
        wraps = np.flatnonzero(start > end)
        w_start, w_end = start[wraps], end[wraps]

        def in_segment(p: np.ndarray) -> np.ndarray:
            inseg = (p >= start) & (p < end)
            if wraps.size:
                inseg[wraps] = (p[wraps] >= w_start) | (p[wraps] < w_end)
            return inseg

        return in_segment

    # ------------------------------------------------------- shared pieces
    def _enter(self, sources, targets, keep_paths) -> tuple:
        """Entry guard of every batch lookup; the normalized pair."""
        checks.choice(keep_paths, "keep_paths", KEEP_PATHS)
        self.ensure_fresh()
        return normalize_pair(sources, targets)

    def _descend(self, y, off, depth, order, head) -> tuple:
        """:func:`~repro.core.walk.descend` through this router's cover."""
        return descend(y, off, depth, order, head, self.delta,
                       self.cover_index.cover)

    # ---------------------------------------------------------- fast lookup
    def batch_fast_lookup(
        self,
        sources,
        targets,
        keep_paths: "bool | str" = False,
    ) -> BatchLookupResult:
        """Vectorized Fast (greedy) Lookup (§2.2.1) for a batch of pairs.

        ``sources`` and ``targets`` are arrays of points in ``[0, 1)``
        (a scalar on either side broadcasts), in the same order as the
        scalar ``fast_lookup(net, source_point, target)``.  One routing
        level costs one closed-form walk evaluation plus one cover-index
        read over the lanes still walking; per Corollary 2.5 at most
        ``log_Δ n + log_Δ ρ + 1`` levels run.  ``keep_paths`` (``"csr"``
        or ``True``, synonyms) keeps the flattened
        ``path_servers``/``path_offsets`` arrays the vectorized
        accounting layer consumes and
        :meth:`BatchLookupResult.server_path` decodes.

        For power-of-two ``Δ`` the ``Δ^t`` scaling is exact in float64 at
        every level, so the level budget is the scalar engine's
        ``MAX_WALK_STEPS`` and parity holds on arbitrarily unsmooth
        decompositions.  For other ``Δ`` levels beyond ``≈ 52/log2(Δ)``
        would overflow the float64 mantissa of ``⌊z·Δ^t⌋``; such levels
        only occur when some segment is shorter than ``Δ^-52`` and raise
        ``RuntimeError`` rather than silently diverging from the
        (integer-exact) scalar engine.
        """
        src, y = self._enter(sources, targets, keep_paths)
        cover = self.cover_index.cover
        ci = cover(src)
        level_cap = MAX_WALK_STEPS
        if self.delta & (self.delta - 1):
            level_cap = min(level_cap, exact_digits(self.delta))
        t, s_final, order = forward_levels(
            y, self._mid.take(ci), self.delta,
            lambda lanes: self._segment_test(ci[lanes]), level_cap)
        ci = ci.astype(LANE_INT)  # the search's gathers are done
        servers, offsets = self._descend(y, s_final, t, order,
                                         (1, slice(None), 0, ci))
        return BatchLookupResult(
            algorithm="fast",
            points=self.points,
            targets=y,
            sources=src,
            source_idx=ci,
            owner_idx=_last_entries(servers, offsets),
            t=t,
            hops=path_hops(offsets),
            path_servers=servers if keep_paths else None,
            path_offsets=offsets if keep_paths else None,
        )

    # ------------------------------------------------------------ dh lookup
    def batch_dh_lookup(
        self,
        sources,
        targets,
        rng: Optional[np.random.Generator] = None,
        tau: Optional[np.ndarray] = None,
        keep_paths: "bool | str" = False,
        policy: str = "uniform",
        choices: Optional[np.ndarray] = None,
    ) -> BatchLookupResult:
        """Vectorized two-phase Distance Halving Lookup (§2.2.2).

        Phase I advances every unresolved lookup one digit per
        iteration (``pos/Δ + d/Δ``, the same elementwise IEEE ops as the
        scalar ``child``); the stop test "target image covered by me or
        by a neighbour" compares the image's cover with the current
        server, plus one interval compare per neighbour range
        (:meth:`_edge_member`) on the lanes it does not stop.  Phase II
        is the closed-form backward walk through the images phase I
        covered, so it reuses their covers instead of taking them again.
        ``keep_paths`` behaves as in :meth:`batch_fast_lookup` (``"csr"``
        for flattened paths).

        ``policy`` (one of :data:`~repro.peer.policy.POLICIES`) is the
        phase-I covering-edge rule; Observation 2.3 halves the distance
        to the target image whatever digit is taken.  The default,
        ``"uniform"``, is the paper's digit and reads no cost: ``tau``
        (shape ``(size, L)`` or ``(L,)``, digits in ``[0, Δ)`` of any
        integer width, read without widening) fixes the strings — with
        the same ``tau`` the result is bit-identical to scalar
        ``dh_lookup`` — or ``choices`` (uniforms in ``[0, 1)``, shaped
        as ``tau``) gives digit ``min(⌊u·Δ⌋, Δ − 1)``, or ``rng``, from
        which the call reads one key (:class:`~repro.core.walk
        .KeyedLanes`: lookup ``i``'s digits depend on the key and ``i``
        alone, so a batch's first ``m`` lanes route as a batch of those
        ``m``).

        ``"greedy"`` and ``"weighted"`` are cost rules (:meth:`_cost_walk`)
        and need a router built with ``cost_map=``.  The result's
        ``algorithm`` is then ``"dh-cost"``, its ``policy`` the rule and
        its ``tau_used`` the digits taken, 0-padded past each ``t``:
        replayed with ``tau=``, or through scalar ``dh_lookup``, they
        reproduce owners, hops and paths bit-for-bit.  ``tau`` beside
        ``choices`` or a cost rule, and a cost rule without
        ``cost_map=``, raise ``ValueError``.
        """
        from ..peer.policy import POLICIES

        checks.choice(policy, "policy", POLICIES)
        if tau is not None and (choices is not None or policy != "uniform"):
            by = "choices" if policy == "uniform" else f"policy {policy!r}"
            raise ValueError(
                f"tau must be None when {by} picks the digits (tau= replays "
                f"them under policy 'uniform'), got {type(tau).__name__}")
        src, y = self._enter(sources, targets, keep_paths)
        key = (draw_key(rng) if rng is not None and tau is None
               and choices is None else None)
        if policy != "uniform":
            return self._cost_walk(src, y, key, choices, policy, keep_paths)
        size, delta = y.size, self.delta
        if tau is not None:
            digits = per_lane_matrix(tau, size, np.int64, "tau")
            if digits.size and (digits.min() < 0 or digits.max() >= delta):
                raise ValueError(f"tau digits out of range for delta={delta}")
        elif choices is not None:
            digits = per_lane_matrix(choices, size, np.float64, "choices")
        elif key is not None:  # a keyed stream outlasts every walk
            digits = KeyedLanes(key, size, exact_digits(delta) + 1, delta)
        else:
            raise ValueError("batch_dh_lookup needs an rng, tau or choices")
        what = "tau" if choices is None else "choices"
        cover = self.cover_index.cover

        def pick(step, lanes, pos, cur):
            if step >= digits.shape[1]:
                raise ValueError(
                    f"supplied {what} exhausted before lookup finished")
            d = digits[lanes, step]
            d = (d.astype(np.float64) if choices is None
                 else np.minimum(np.trunc(d * delta), delta - 1))
            nxt = fold_unit(pos / delta + d / delta)
            return d, nxt, cover(nxt)

        return self._dh_walk("dh", src, y, keep_paths, MAX_WALK_STEPS, pick)

    def _dh_walk(self, algorithm, src, y, keep_paths, max_steps,
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
        covers, counted on the way (``uint8``, like phase I's: a walk
        takes at most 52 steps), and the owner is the step-0 image's
        cover.  Kept paths come from :func:`~repro.core.walk.replay`:
        each step records only its walking lanes' moved-to servers and
        image covers, ``int32`` and lane-free — the walking lanes of
        step ``s`` are ``flatnonzero(t > s)``, which replay rebuilds —
        and a lane's stopping hop goes to one per-lane ``int32`` column.
        """
        cover = self.cover_index.cover
        delta, size = self.delta, y.size
        src_idx = cover(src)
        # per-lane results, written once as each lane stops
        t = np.empty(size, dtype=LANE_INT)
        hops1 = np.empty(size, dtype=LANE_INT)
        turns = np.empty(size, dtype=np.uint8)  # phase II's hops
        # the walking lanes' state, compacted as lanes stop
        lanes = np.arange(size)
        w_cur, w_pos = src_idx, src
        holder = owner = cover(y)  # the cover of w(τ[:step], y)
        # per step, the walking lanes' (moved-to servers, image covers);
        # per lane, the neighbour it hopped to when it stopped
        steps: List[tuple] = []
        hop = np.full(size, -1, dtype=np.int32) if keep_paths else None
        w_off = np.zeros(size, dtype=np.float64)  # Σ d_k Δ^k, exact in float64
        w_hops = np.zeros(size, dtype=np.uint8)
        w_turns = np.zeros(size, dtype=np.uint8)

        # beyond ~52/log2(Δ) digits the float64 offset accumulator loses
        # exactness (the scalar engine carries exact integer offsets, so
        # it can converge on such walks — segments shorter than Δ^-52 —
        # where we must raise loudly instead of silently diverging);
        # Theorem 2.8 keeps real walks far below that
        step_cap = min(max_steps, exact_digits(delta))
        step = 0
        while lanes.size:
            if step > step_cap:  # past MAX_WALK_STEPS, or beyond Theorem 2.8
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
                    hop[lanes[via]] = holder[via]
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
                    steps.append((nxt.astype(np.int32),
                                  image.astype(np.int32)))
                w_cur, holder = nxt, image
            step += 1

        servers = offsets = None
        if keep_paths:
            servers, offsets = replay(t, src_idx, hop, owner, steps)
        return BatchLookupResult(
            algorithm=algorithm,
            points=self.points,
            targets=y,
            sources=src,
            source_idx=src_idx.astype(LANE_INT),
            owner_idx=owner.astype(LANE_INT),
            t=t,
            hops=hops1 + turns,
            phase1_hops=hops1,
            path_servers=servers,
            path_offsets=offsets,
        )

    # ------------------------------------------------------- cost-aware dh
    def _cost_walk(self, src, y, key, choices, policy,
                   keep_paths) -> BatchLookupResult:
        """:meth:`batch_dh_lookup` under a cost rule ("greedy", "weighted").

        Each step scores the Δ candidate digits of every walking lane
        through ``cost`` and lets :func:`~repro.peer.policy.select_rows`
        pick; the digits taken come back as ``tau_used``.
        """
        from ..peer.itracker import NO_COST_MAP
        from ..peer.policy import select_rows

        if self.cost is None:
            raise ValueError(NO_COST_MAP.format(policy=policy,
                                                engine="BatchRouter"))
        cover = self.cover_index.cover
        size = y.size
        u_mat = None
        if choices is not None:
            u_mat = per_lane_matrix(choices, size, np.float64, "choices")
        elif policy == "weighted":  # greedy reads no uniform
            if key is None:
                raise ValueError(f"policy {policy!r} needs shared uniforms: "
                                 "pass choices= or rng=")
            u_mat = KeyedLanes(key, size, exact_digits(self.delta) + 1)

        delta = self.delta
        digs = np.arange(delta, dtype=np.float64)
        # one row a step, the walking lanes' digits at their narrowest
        tau_rows: List[Optional[np.ndarray]] = []
        narrow = np.min_scalar_type(delta - 1)

        def pick(step, lanes, pos, cur):
            # candidate next position per digit — the same float
            # expression the uniform rule's digit update applies, so the
            # chosen candidate's position and cover are where the
            # message goes
            cand_pos = fold_unit(pos[None, :] / delta + digs[:, None] / delta)
            cand_cov = cover(cand_pos.ravel())
            costs = self.cost.edge_costs(cur,
                                         cand_cov.reshape(delta, lanes.size))
            u_row = None
            if u_mat is not None:
                if step >= u_mat.shape[1]:
                    raise ValueError(
                        "supplied choices exhausted before lookup finished"
                    )
                u_row = u_mat[lanes, step]
            digits = select_rows(costs, None, u_row, policy)
            tau_rows.append(digits.astype(narrow))
            at = digits * lanes.size + np.arange(lanes.size)
            return (digits.astype(np.float64), cand_pos.ravel().take(at),
                    cand_cov.take(at))

        res = self._dh_walk("dh-cost", src, y, keep_paths, MAX_WALK_STEPS,
                            pick)
        # step s's row holds the digits of the lanes walking at step s
        res.tau_used = tau = np.zeros((size, len(tau_rows)), dtype=narrow)
        for s, lanes in enumerate(walking_lanes(res.t)):
            tau[lanes, s] = tau_rows[s]
            tau_rows[s] = None
        res.policy = policy
        return res

    def batch_cost_dh_lookup(self, sources, targets, choices=None, rng=None,
                             policy="weighted", **kw) -> BatchLookupResult:
        """``batch_dh_lookup(policy=policy)`` under its former name.

        Kept while ``benchmarks/spine/workloads.py`` calls it; ROADMAP
        item 1 deletes it with that file's next change.
        """
        return self.batch_dh_lookup(sources, targets, rng=rng, policy=policy,
                                    choices=choices, **kw)
