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
built-in scalar-subsample cross-check of ``repro.cli bench-throughput``
assert.

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

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .lookup import MAX_WALK_STEPS
from .segments import (CoverIndex, SegmentMap, arc_cover_ranges, fold_unit,
                       normalize_array)
from .snapshot import ColumnarSnapshot, StaleSnapshotError
from .walk import (PathResult, check_keep_paths, descend, forward_levels,
                   normalize_pair, per_lane_matrix)

__all__ = ["BatchRouter", "BatchLookupResult"]

#: One message for every stale-router raise site, so the guidance and the
#: substrings tests match on ("stale", "rebuild", "auto_refresh") cannot drift.
_STALE_ROUTER_ERROR = (
    "stale router: the network changed since compile_router() (membership "
    "version moved on); the router is a frozen snapshot — rebuild it "
    "(net.compile_router()) after joins or leaves, or compile with "
    "net.router(auto_refresh=True) to follow churn automatically"
)


def _range_columns(n: int, indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """Run-length encode CSR neighbour rows into ``(first, count)`` columns.

    The route exact-id networks take into the layout
    :meth:`BatchRouter._build_adjacency` documents: row ``i``'s sorted
    neighbour indices plus ``i`` itself (which keeps the ring run
    ``i-1, i, i+1`` in one piece) are cut into maximal runs of
    consecutive indices, one slot per run; the slot count is the widest
    row's, and the virtual column ``n`` stays empty.
    """
    rows = np.repeat(np.arange(n), np.diff(indptr))
    keys = np.sort(np.concatenate([rows * n + indices,
                                   np.arange(n) * (n + 1)]))
    row, col = keys // n, keys % n
    opens = np.ones(keys.size, dtype=bool)  # entries that open a run
    opens[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1] + 1)
    at = np.flatnonzero(opens)
    run_row = row[at]
    slot = np.arange(at.size) - np.searchsorted(run_row, run_row)
    first = np.zeros((slot.max() + 1, n + 1), dtype=np.int32)
    count = np.zeros_like(first)
    first[slot, run_row] = col[at]
    count[slot, run_row] = np.diff(np.append(at, keys.size))
    return first, count


def _last_entries(servers: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each CSR path's last server, as ``intp`` — the lookup's owner.

    Exact for :func:`~repro.core.walk.descend`'s paths: the j = 0 point
    is ``level_points(y, off, 1.0) = y``, and a lane that descends no
    level (t = 0) holds only its source, which covers ``y``.  It saves
    a second cover read over the batch.
    """
    return servers[offsets[1:] - 1].astype(np.intp)


@dataclass
class BatchLookupResult(PathResult):
    """Array-of-structs outcome of a routed batch of lookups.

    Mirrors :class:`repro.core.lookup.LookupResult` field-for-field, but
    every per-lookup quantity is a NumPy array of length ``size``.
    ``owner_idx``/``source_idx`` index into ``points`` (the router's
    sorted id vector).

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
    #: phase-I digits actually taken (cost-aware dh batches record them,
    #: 0-padded past each lookup's ``t``) — feeding them back through the
    #: ``tau=`` replay hook of the scalar/batch dh lookups reproduces the
    #: routed paths bit-for-bit; ``policy`` names the selection rule
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

    def mean_hops(self) -> float:
        """Mean hop count over the batch (0.0 for an empty batch)."""
        return float(self.hops.mean()) if self.size else 0.0


class BatchRouter(ColumnarSnapshot):
    """Frozen NumPy snapshot of a network that routes lookups in bulk.

    The router is the membership instance of the shared
    :class:`~repro.core.snapshot.ColumnarSnapshot` layer: the base class
    owns the version counter against the network's membership journal,
    the stale-or-refresh entry guard, the incremental-vs-full refresh
    decision with its :class:`~repro.core.snapshot.SnapshotRefreshStats`
    accounting, and the column registry the sharded execution backend
    (:mod:`repro.core.shard`) exports into shared memory.  This class
    contributes the routing math plus the membership-specific patch rule
    (:meth:`_patch`) and rebuild (:meth:`_rebuild`).

    Parameters
    ----------
    net:
        The :class:`~repro.core.network.DistanceHalvingNetwork` to
        snapshot.  Coordinates are cast to ``float64``; networks built on
        exact :class:`~fractions.Fraction` ids keep bit-parity with the
        scalar engine as long as the ids are dyadic (e.g. the equally
        spaced De Bruijn instance).
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
    """

    #: Aligned arrays the snapshot layer registers and the shard backend
    #: exports — read-only views of the router's row buffers (see
    #: :meth:`_patch`).  ``cover_index`` and the neighbour ranges
    #: ``adj_first`` / ``adj_count`` are derived columns of ``points``
    #: (not n-aligned, so not registered): rebuilt and patched with it,
    #: never on their own; the shard export ships the two range arrays
    #: beside the registered columns.
    COLUMNS = ("points", "seg_start", "seg_end", "midpoints")

    def __init__(self, net, build_adjacency: bool = False,
                 auto_refresh: bool = False,
                 churn_budget: Optional[int] = None) -> None:
        if net.n == 0:
            raise LookupError("cannot compile a router over an empty network")
        self._net = net
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

        Keeps the neighbour table through full rebuilds (when one was
        built) so the cost lands in ``refresh_stats``, not in the next
        dh batch.
        """
        net = self._net
        self.delta = int(net.delta)
        self.with_ring = bool(net.with_ring)
        # CoverIndex copies the live column into ``ext``: the router's
        # buffers never alias the map's
        index = CoverIndex(net.segments.column)
        points = index.ext[:-1]
        seg_end = np.empty_like(points)
        seg_end[:-1] = points[1:]
        seg_end[-1] = points[0]
        # float ids compile from the point column alone; exact (Fraction)
        # ids go through the scalar oracles, whose exact comparisons the
        # float column cannot replay
        self._adopt(index, seg_end,
                    SegmentMap.midpoints_from_array(points)
                    if net.segments.is_float()
                    else net.segments.midpoints_array())
        if self.adj_first is not None:
            self._build_adjacency()

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

    #: ``s(x_i)`` starts at ``x_i``: the point column again
    seg_start = points

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
        """Rows of every registered column, without handing one out."""
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
        self._shared = self.cover_index.shared = False

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
        the relation identical to the scalar oracle
        ``net.adjacency_arrays()`` — the path exact (``Fraction``) ids
        still take, run-length encoded into the same columns.
        """
        n, delta = self.n, self.delta
        pts = self._ext[:n]
        if not self._net.segments.is_float():
            self.adj_first, self.adj_count = _range_columns(
                n, *self._net.adjacency_arrays())
            return
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
            # half-way, a shard worker attached to a half-written export
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
        is the same O(tail) edit.  Exact (``Fraction``) ids and rings
        passing through n < 4 bail out before anything is touched.

        Handed-out arrays are read-only and never edited; unshared
        buffers are edited in place.  Every public read of a column
        (:meth:`_rows`, ``cover_index.points``) marks the buffers
        shared, and the next patch first copies them — once, with room
        for ``max(16, n // 16)`` more rows — and edits the copy; so does
        a patch that would outgrow them.  ``refresh_stats.copies``
        counts those copies.  The cover grid and the adjacency ranges
        (when built) are derived columns of the point column: each is
        brought up to date once per refresh, whatever the number of
        pending ops — the ranges are Δ+1 sorted searches over the
        column, cheaper than finding out which rows an op touched.
        """
        if not self._net.segments.is_float():
            return False
        n = peak = self.n
        for kind, _p, _i in pending:
            if n < 4:  # a tiny ring on the way: not worth the care
                return False
            n += 1 if kind == "join" else -1
            peak = max(peak, n)
        if n < 4:
            return False

        if self._shared or self.cover_index.shared or peak >= len(self._ext):
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
            ext[:n + 1],
            [(p, 1 if kind == "join" else -1) for kind, p, _ in pending])
        if self.adj_first is not None:
            self._build_adjacency()
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

        The IEEE ops of :meth:`SegmentMap.midpoints_from_array` on one
        row — ``normalize(start + length / 2)``, the seam row's length
        ``1 - x_{n-1} + x_0`` — so the row is bit-identical to a fresh
        compile's, with no ``Arc`` built.
        """
        ext = self._ext
        start = ext.item(i)
        if i + 1 < n:
            stop = ext.item(i + 1)
            length = stop - start
        else:
            stop = ext.item(0)
            length = 1.0 - start + stop
        mid = (start + length / 2) % 1.0
        self._end[i] = stop
        self._mid[i] = 0.0 if mid == 1.0 else mid

    # ------------------------------------------------------------- sharding
    def sharded_executor(self, workers: int):
        """The cached :class:`~repro.core.shard.ShardedExecutor` handle.

        Lazily built on first use and reused across batches (worker
        pools are expensive); rebuilt when ``workers`` changes.  The
        executor re-syncs its shared-memory snapshot against this
        router's version on every batch, so churn + ``auto_refresh``
        compose with sharding.  Call :meth:`close_executor` (or close
        the returned handle) when done.
        """
        from .shard import ShardedExecutor
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
        :meth:`batch_fast_lookup`; ``workers>=2`` routes contiguous
        slices through the cached sharded executor and merges — the
        result is bit-identical either way.
        """
        if workers <= 1:
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

    def cover_points(self, ys: np.ndarray) -> np.ndarray:
        """Id points of the servers covering each point (see :meth:`cover`)."""
        return self._ext[self.cover(ys)]

    def _segment_test(self, idx: np.ndarray):
        """``p -> (p in segment(idx))`` with the bounds gathered once.

        Vector version of the wrap-aware half-open membership test; the
        returned callable reuses the gathered bounds, so a loop over
        walk levels with fixed ``idx`` pays for them once.
        """
        if self.n == 1:
            return lambda p: np.ones(p.shape, dtype=bool)
        start = self._ext[idx]
        end = self._end[idx]
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
        check_keep_paths(keep_paths)
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
        max_levels: int = MAX_WALK_STEPS,
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
        if self.delta & (self.delta - 1) == 0:
            level_cap = max_levels
        else:
            level_cap = min(max_levels, int(52 / math.log2(self.delta)))
        t, s_final, order = forward_levels(
            y, self._mid[ci], self.delta,
            lambda lanes: self._segment_test(ci[lanes]), level_cap)
        servers, offsets = self._descend(y, s_final, t, order,
                                         (1, np.arange(y.size), 0, ci))
        return BatchLookupResult(
            algorithm="fast",
            points=self.points,
            targets=y,
            sources=src,
            source_idx=ci,
            owner_idx=_last_entries(servers, offsets),
            t=t,
            hops=np.diff(offsets) - 1,
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
        max_steps: int = MAX_WALK_STEPS,
    ) -> BatchLookupResult:
        """Vectorized two-phase Distance Halving Lookup (§2.2.2).

        Phase I advances every unresolved lookup one random digit per
        iteration (``pos/Δ + d/Δ``, the same elementwise IEEE ops as the
        scalar ``child``); the stop test "target image covered by me or
        by a neighbour" compares the image's cover with the current
        server, plus one interval compare per neighbour range
        (:meth:`_edge_member`) on the lanes it does not stop.  Phase II
        descends the closed-form backward walk one level per iteration,
        exactly like the fast path.

        Supply ``tau`` (shape ``(size, L)`` or ``(L,)``, digits in
        ``[0, Δ)`` of any integer width, read without widening) to fix
        the random strings — with the same ``tau`` the
        result is bit-identical to scalar ``dh_lookup``.  With ``rng``
        the *distribution* matches but digits are drawn batch-wise, so
        individual paths differ from a scalar replay of the same
        generator.  ``keep_paths`` behaves as in
        :meth:`batch_fast_lookup` (``"csr"`` for flattened paths).
        """
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

        cover = self.cover_index.cover
        delta = self.delta

        def pick(step, lanes, pos, cur):
            if tau_arr is None:
                # one digit per lane of the batch, walking or not: the
                # draw every seeded run replays
                digits = rng.integers(0, delta, size=size)[lanes]
            elif step >= tau_arr.shape[1]:
                raise ValueError("supplied tau exhausted before lookup finished")
            else:
                digits = tau_arr[lanes, step]
            digits = digits.astype(np.float64)
            nxt = fold_unit(pos / delta + digits / delta)
            return digits, nxt, cover(nxt)

        return self._dh_walk("dh", src, y, keep_paths, max_steps, pick)

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

    # ------------------------------------------------------- cost-aware dh
    def _cost_state(self):
        """The cost columns, or an actionable error on a plain router."""
        isp = getattr(self, "cost_isp", None)
        if isp is None:
            raise ValueError(
                "cost-aware routing needs cost columns; compile a "
                "CostAwareBatchRouter (repro.peer.routing) over the network "
                "instead of a plain BatchRouter"
            )
        return isp, self.cost_x, self.cost_y, self._isp_cost

    def _edge_cost_matrix(self, i_idx, j_idx) -> np.ndarray:
        """Network cost of edges i→j (point indices; broadcasts to (K, B))."""
        from ..peer.costmap import pair_costs

        isp, cx, cy, mat = self._cost_state()
        return pair_costs(isp[i_idx], isp[j_idx], cx[i_idx], cy[i_idx],
                          cx[j_idx], cy[j_idx], mat)

    def batch_cost_dh_lookup(
        self,
        sources,
        targets,
        choices: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        policy: str = "weighted",
        temperature: float = 1.0,
        keep_paths: "bool | str" = False,
        max_steps: int = MAX_WALK_STEPS,
    ) -> BatchLookupResult:
        """Two-phase dh lookup with cost-aware phase-I digit selection.

        Observation 2.3 halves the distance to the target image every
        phase-I step *whatever* digit is taken, so the digit choice is a
        free covering-edge choice: per step this method evaluates all Δ
        candidate positions ``pos/Δ + d/Δ``, gathers the network cost of
        hopping to each candidate's covering server (one vectorized
        gather over the snapshot's cost columns), and picks digits with
        the shared selection policy ("uniform" / "greedy" /
        "weighted"; see :mod:`repro.peer.policy`).

        Determinism is **tau-pinned**: the digits actually taken are
        recorded in ``result.tau_used`` (0-padded past each lookup's
        ``t``), and replaying them through :meth:`batch_dh_lookup`
        (``tau=result.tau_used``) or the scalar
        :func:`~repro.core.lookup.dh_lookup`
        (``tau=result.tau_used[i, :result.t[i]]``) reproduces owners,
        hop counts and full server paths bit-for-bit — the parity hook
        the tests and ``bench-cost`` gate on.  The randomized policies
        consume one uniform per (lookup, step) from ``choices``
        (shape ``(size, L)`` or ``(L,)``) or from ``rng``; "greedy"
        needs neither.  Requires the cost columns of a
        :class:`~repro.peer.routing.CostAwareBatchRouter`.
        """
        from ..peer.policy import check_policy, select_rows

        check_policy(policy)
        src, y = self._enter(sources, targets, keep_paths)
        self._cost_state()  # fail early on a plain (cost-less) router
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
            # expression the uniform rule's digit update applies, so the
            # chosen candidate's position and cover are where the
            # message goes
            cand_pos = fold_unit(pos[None, :] / delta + digs[:, None] / delta)
            cand_cov = cover(cand_pos.ravel())
            costs = self._edge_cost_matrix(cur,
                                           cand_cov.reshape(delta, lanes.size))
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
            digits = select_rows(costs, None, u_row, policy, temperature)
            d_step = np.zeros(size, dtype=np.int64)
            d_step[lanes] = digits
            tau_rows.append(d_step)
            at = digits * lanes.size + np.arange(lanes.size)
            return (digits.astype(np.float64), cand_pos.ravel().take(at),
                    cand_cov.take(at))

        res = self._dh_walk("dh-cost", src, y, keep_paths, max_steps, pick)
        res.tau_used = (
            np.ascontiguousarray(np.vstack(tau_rows).T)
            if tau_rows else np.zeros((size, 0), dtype=np.int64)
        )
        res.policy = policy
        return res
