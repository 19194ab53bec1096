"""Vectorized batch-lookup engine for the Distance Halving DHT.

The scalar algorithms in :mod:`repro.core.lookup` route one message at a
time through Python objects — perfect for validating the paper's theorems,
far too slow for the "heavy traffic" workloads the roadmap targets.  This
module routes *arrays* of lookups through the same continuous-discrete
scheme:

* the segment decomposition is frozen into sorted NumPy arrays (id
  points, segment bounds, midpoints, a CSR neighbour table) plus the
  bucket-grid :class:`~repro.core.segments.CoverIndex` derived from the
  point column, so a cover query for a whole batch is one table read
  plus O(ρ) compares per point — no binary search;
* the walk functions of §2.2 are evaluated in closed form per *routing
  level* instead of per hop per lookup — level ``t`` of the fast lookup
  is ``w(σ(z)_t, y) = (y + ⌊z·Δ^t⌋) / Δ^t`` for every pending lookup at
  once, and the backward descent (:meth:`BatchRouter._descend`) reuses
  ``⌊z·Δ^t⌋ mod Δ^j`` over the lanes still that deep, writing every
  cover straight into the ragged CSR path buffer;
* the two-phase Distance Halving lookup advances every in-flight message
  one level per iteration (`pos/Δ + d/Δ` elementwise) and resolves the
  "target image covered by me or a neighbour" test with a binary search
  over a sorted edge-key table.

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
batch — pending joins/leaves are replayed as O(affected-region) patches
to the sorted point/segment/midpoint arrays and the touched adjacency
rows, falling back to a full recompile only past a configurable churn
budget.  A plain ``net.compile_router()`` handle instead raises an
actionable stale-router error rather than silently serving an outdated
snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

import numpy as np

from .lookup import MAX_WALK_STEPS
from .segments import (CoverIndex, SegmentMap, arc_cover_ranges, check_finite,
                       fold_unit, normalize_array)
from .snapshot import ColumnarSnapshot, SnapshotRefreshStats

__all__ = ["BatchRouter", "BatchLookupResult", "RouterRefreshStats",
           "levels_to_csr"]

#: The router's refresh accounting is the shared snapshot layer's —
#: kept under its historical name for the churn-soak experiment and
#: the refresh test suite.
RouterRefreshStats = SnapshotRefreshStats

#: Fixed row stride of the sorted adjacency keys ``row·STRIDE + col``.
#: Independent of ``n`` so incremental insertions/deletions only have to
#: shift indices, never re-encode the whole table (requires n < 2^31).
_ROW_STRIDE = np.int64(1) << 31

#: One message for every stale-router raise site, so the guidance and the
#: substrings tests match on ("stale", "rebuild", "auto_refresh") cannot drift.
_STALE_ROUTER_ERROR = (
    "stale router: the network changed since compile_router() (membership "
    "version moved on); the router is a frozen snapshot — rebuild it "
    "(net.compile_router()) after joins or leaves, or compile with "
    "net.router(auto_refresh=True) to follow churn automatically"
)


def _isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``values`` in a *sorted* int table."""
    if len(table) == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(table, values)
    pos_c = np.minimum(pos, len(table) - 1)
    return (pos < len(table)) & (table[pos_c] == values)


def _check_keep_paths(keep_paths) -> None:
    """Reject anything but the three supported path-recording modes."""
    if keep_paths not in (False, True, "csr"):
        raise ValueError(
            f"keep_paths must be False, True, or 'csr'; got {keep_paths!r}"
        )


def levels_to_csr(size: int, level_mats) -> tuple:
    """Flatten per-level server matrices into CSR path arrays.

    ``level_mats`` lists ``(levels × size)`` int matrices whose rows are
    in path order for every lookup (column); ``-1`` marks "no server
    recorded at this level".  The result is the vectorized equivalent of
    running :func:`~repro.core.lookup.compress_path` per column: lookup
    ``i``'s compressed server-index path is
    ``path_servers[path_offsets[i]:path_offsets[i + 1]]``.

    One transpose + ``flatnonzero`` + shifted-compare does the whole
    batch — no per-lookup Python loop.  For the engines whose matrices
    have interior holes (:mod:`repro.faults.batch_ft`,
    :mod:`repro.baselines.base`); this module's own walks are hole-free
    and write their ragged paths directly (:meth:`BatchRouter._descend`).
    """
    offsets = np.zeros(size + 1, dtype=np.int64)
    mats = [m for m in level_mats if m is not None and m.size]
    if not mats or size == 0:
        return np.zeros(0, dtype=np.int32), offsets
    stacked = np.concatenate(mats, axis=0)
    depth = stacked.shape[0]
    flat = stacked.T.ravel()  # lookup-major; rows keep path order inside
    at = np.flatnonzero(flat >= 0)
    vals = flat[at]
    lane = at // depth
    keep = np.ones(vals.size, dtype=bool)
    if vals.size > 1:
        keep[1:] = (vals[1:] != vals[:-1]) | (lane[1:] != lane[:-1])
    np.cumsum(np.bincount(lane[keep], minlength=size), out=offsets[1:])
    return vals[keep].astype(np.int32), offsets


def _normalize_array(values, size: Optional[int] = None,
                     what: str = "targets") -> np.ndarray:
    """:func:`~repro.core.segments.normalize_array` with scalar broadcast.

    Scalars broadcast to ``size`` when given; arrays are flattened.
    Non-finite values raise ``ValueError`` naming ``what`` and the first
    offending lane (they have no cover).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(size if size is not None else 1, float(arr))
    arr = arr.ravel()
    check_finite(arr, what)
    return normalize_array(arr)


def _normalize_pair(sources, targets) -> tuple:
    """Normalized ``(sources, targets)`` of one common length.

    The entry preamble of every batch lookup: a scalar on either side
    broadcasts to the other side's length, both sides are checked finite
    and folded into ``[0, 1)``, and two arrays must agree in length.
    """
    src = np.asarray(sources, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    y = _normalize_array(y, size=src.size)
    src = _normalize_array(src, size=y.size, what="sources")
    if src.size != y.size:
        raise ValueError("sources and targets must have the same length")
    return src, y


@dataclass
class BatchLookupResult:
    """Array-of-structs outcome of a routed batch of lookups.

    Mirrors :class:`repro.core.lookup.LookupResult` field-for-field, but
    every per-lookup quantity is a NumPy array of length ``size``.
    ``owner_idx``/``source_idx`` index into ``points`` (the router's
    sorted id vector).

    Paths are stored flattened (CSR) whenever the batch call was asked
    to keep them (``keep_paths="csr"``, or ``True``, which means the
    same): ``path_servers`` (``int32``, one entry per path segment,
    indices into ``points``) and ``path_offsets`` (``int64``, length
    ``size + 1``) — the storage the vectorized accounting layer
    (:class:`~repro.core.routing_stats.BatchCongestion`) consumes with
    one ``np.bincount`` per batch.  Lookup ``i``'s path is
    ``path_servers[path_offsets[i]:path_offsets[i + 1]]`` — a lossless
    re-encoding of the scalar ``LookupResult.server_path``; decode to id
    points with :meth:`path_points` or :meth:`server_path`.
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
        return int(self.targets.size)

    @property
    def owner(self) -> np.ndarray:
        """Id points of the servers owning each target."""
        return self.points[self.owner_idx]

    @property
    def keeps_paths(self) -> bool:
        return self.path_servers is not None

    def to_csr(self) -> tuple:
        """The ``(path_servers, path_offsets)`` CSR arrays.

        Requires the batch to have been routed with paths
        (``keep_paths=True`` or ``"csr"``).
        """
        if self.path_servers is None:
            raise ValueError("batch was routed with keep_paths=False")
        return self.path_servers, self.path_offsets

    def path_points(self, i: int) -> np.ndarray:
        """Id points of lookup ``i``'s compressed server path (CSR decode)."""
        servers, offsets = self.to_csr()
        return self.points[servers[offsets[i]:offsets[i + 1]]]

    def path_lengths(self) -> np.ndarray:
        """Servers on each compressed path; the hop count is this minus 1."""
        return np.diff(self.to_csr()[1])

    def server_path(self, i: int) -> List[float]:
        """Compressed server path of lookup ``i`` (requires ``keep_paths``).

        Identical to ``LookupResult.server_path`` of the scalar engine
        for the same (source, target) — the parity tests compare them
        element-wise.
        """
        return self.path_points(i).tolist()

    def mean_hops(self) -> float:
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
        Precompute the neighbour table needed by
        :meth:`batch_dh_lookup`.  Costs one pass over all segment images
        (O(n·Δ) cover queries); skipped by default because
        :meth:`batch_fast_lookup` never consults adjacency.
    auto_refresh:
        Follow membership changes: before every batch, pending
        joins/leaves are replayed from the network's membership log as
        O(affected-region) array patches (see :meth:`refresh`).  When
        ``False`` (the :meth:`~repro.core.network.DistanceHalvingNetwork
        .compile_router` default) a stale router raises instead.
    churn_budget:
        Maximum number of pending ops an incremental refresh will
        replay; beyond it the router recompiles from scratch, which is
        cheaper for bulk changes.  ``None`` means ``max(16, n // 16)``.
    """

    #: Frozen aligned arrays the snapshot layer registers and the shard
    #: backend exports (the variable-length ``_edge_keys`` table rides
    #: along separately — see :meth:`shard_spec` in the shard module).
    #: ``cover_index`` is a derived column of ``points`` (not n-aligned,
    #: so not registered): rebuilt and patched with it, never on its own.
    COLUMNS = ("points", "seg_start", "seg_end", "midpoints")

    def __init__(self, net, build_adjacency: bool = False,
                 auto_refresh: bool = False,
                 churn_budget: Optional[int] = None) -> None:
        if net.n == 0:
            raise LookupError("cannot compile a router over an empty network")
        if net.n >= int(_ROW_STRIDE):  # pragma: no cover - 2^31 servers
            raise ValueError("network too large for the adjacency encoding")
        self._net = net
        super().__init__(journal=net.membership_log,
                         auto_refresh=auto_refresh,
                         budget=churn_budget,
                         stale_error=_STALE_ROUTER_ERROR)
        if build_adjacency:
            self._build_adjacency()

    @property
    def churn_budget(self) -> Optional[int]:
        """The refresh budget, under its membership-flavoured name."""
        return self.budget

    # ------------------------------------------------------------- snapshot
    def _rebuild(self) -> None:
        """(Re)build every frozen array from the live network.

        Keeps the neighbour table through full rebuilds (when one was
        built) so the cost lands in ``refresh_stats``, not in the next
        dh batch.
        """
        net = self._net
        self.delta = int(net.delta)
        self.with_ring = bool(net.with_ring)
        self.n = int(net.n)
        self.cover_index = CoverIndex(net.segments.as_array())
        self.points = points = self.cover_index.points
        self.seg_start = points
        self.seg_end = np.roll(points, -1)
        # float ids compile from the point column alone; exact (Fraction)
        # ids go through the scalar oracles, whose exact comparisons the
        # float column cannot replay
        self.midpoints = (SegmentMap.midpoints_from_array(points)
                          if net.segments.is_float()
                          else net.segments.midpoints_array())
        had_adjacency = getattr(self, "_edge_keys", None) is not None
        self._edge_keys: Optional[np.ndarray] = None
        if had_adjacency:
            self._build_adjacency()

    def _build_adjacency(self) -> None:
        """Sorted ``i·STRIDE + j`` keys of every directed neighbour pair.

        Row ``i`` is ``neighbor_points(x_i)`` of §2.1: the servers whose
        segments meet an image ``f_d(s(x_i))`` or the preimage
        ``b(s(x_i))``, plus the ring neighbours, self excluded.  Every
        image of a segment piece is an arc, so its covering set is a
        contiguous index range of the sorted point column
        (:func:`~repro.core.segments.arc_cover_ranges`); the arc ends
        are computed with the float operations of
        ``ContinuousGraph.image_arcs`` / ``preimage_arcs``, which keeps
        the table bit-identical to the one encoded from the scalar
        oracle ``net.adjacency_arrays()``.
        """
        if not self._net.segments.is_float():
            indptr, indices = self._net.adjacency_arrays()
            rows = np.repeat(np.arange(self.n, dtype=np.int64),
                             np.diff(indptr))
            self._edge_keys = np.sort(rows * _ROW_STRIDE + indices)
            return
        pts, n, delta = self.points, self.n, self.delta
        if n == 1:  # the only server covers every image itself
            self._edge_keys = np.zeros(0, dtype=np.int64)
            return
        # Arc.pieces of every segment: row i is [x_i, x_{i+1}); the seam
        # row is [x_{n-1}, 1) plus [0, x_0) when that is not empty
        row = np.arange(n)
        a, b = pts, np.append(pts[1:], 1.0)
        if pts[0] > 0.0:
            row = np.append(row, n - 1)
            a, b = np.append(a, 0.0), np.append(b, pts[0])
        ranges = []  # (row, first, count): cols (first + k) % n, k < count
        factor = 1.0 / delta
        for d in range(delta):
            offset = d / delta
            arc, first, count = arc_cover_ranges(
                pts, normalize_array(a * factor + offset),
                normalize_array(b * factor + offset))
            ranges.append((row[arc], first, count))
        # b(s): one piece of length >= 1/Δ pulls the whole row back to the
        # full ring, which an arc spells start == end
        length = (b - a) * delta
        full = np.zeros(n, dtype=bool)
        full[row[length >= 1]] = True
        start = normalize_array(a * delta)
        arc, first, count = arc_cover_ranges(
            pts, start,
            np.where(full[row], start, normalize_array(start + length)))
        ranges.append((row[arc], first, count))
        if self.with_ring:  # predecessor, (self,) successor
            ranges.append((np.arange(n), np.arange(n) - 1, np.full(n, 3)))
        rows, first, count = (np.concatenate(col) for col in zip(*ranges))
        ends = np.cumsum(count)
        cols = np.repeat(first - (ends - count), count) + np.arange(ends[-1])
        cols %= n
        rows = np.repeat(rows, count)
        other = rows != cols
        keys = np.sort(rows[other] * _ROW_STRIDE + cols[other])
        # an image range, the preimage range and the ring can name a pair twice
        keep = np.ones(keys.size, dtype=bool)
        keep[1:] = keys[1:] != keys[:-1]
        self._edge_keys = keys[keep]

    def _edge_member(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Vectorized ``col[i] in neighbours(row[i])`` membership test."""
        if self._edge_keys is None:
            self._build_adjacency()
        keys = self._edge_keys
        if len(keys) == 0:
            return np.zeros(row.shape, dtype=bool)
        q = row.astype(np.int64) * _ROW_STRIDE + col.astype(np.int64)
        return _isin_sorted(q, keys)

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
        """Patch the arrays by replaying ``pending``; False to bail to full.

        Per op the point/bound/midpoint arrays get one ``np.insert`` /
        ``np.delete``, the cover grid one slice add, and the adjacency
        table (when built) drops the keys incident to the affected
        region — {ring predecessor, ring successor, the touched point}
        plus the predecessor's neighbour row — with the surviving keys
        renumbered in place.  Affected rows are only *recomputed* once,
        after the whole suffix is applied, against the live (final)
        decomposition; correctness rests on the §2.1 locality argument:
        a neighbour set can only change if one of its covering arcs
        intersects the split/merged segment, which makes its server a
        logged point's neighbour.
        """
        n = self.n
        for kind, _p, _idx in pending:
            if n < 4:
                return False
            n += 1 if kind == "join" else -1
        if n < 4:
            return False

        # the point column is edited with its cover-index sentinel attached
        # (indices stay below it), so index and column share one copy per op
        ext = self.cover_index.ext
        mids = self.midpoints
        keys = self._edge_keys
        dirty_rows: Set[int] = set()
        dirty_mids: Set[int] = set()
        moved = []  # (float64 id as stored, ±1) for the cover index
        for kind, p, idx in pending:
            n_old = len(ext) - 1
            if kind == "join":
                n_new = n_old + 1
                if keys is not None:
                    pred_old = (idx - 1) % n_old
                    affected = {pred_old, idx % n_old}
                    affected.update(self._row_cols(keys, pred_old))
                    keys = self._drop_keys(keys, affected)
                    keys = self._renumber_join(keys, idx)
                    dirty_rows = {d + (d >= idx) for d in dirty_rows}
                    dirty_rows.update(a + (a >= idx) for a in affected)
                    dirty_rows.add(idx)
                ext = np.insert(ext, idx, p)
                moved.append((ext[idx], 1))
                mids = np.insert(mids, idx, 0.0)
                dirty_mids = {d + (d >= idx) for d in dirty_mids}
                dirty_mids.update({idx, (idx - 1) % n_new})
            else:
                n_new = n_old - 1
                if keys is not None:
                    affected = {idx, (idx - 1) % n_old, (idx + 1) % n_old}
                    affected.update(self._row_cols(keys, idx))
                    keys = self._drop_keys(keys, affected)
                    keys = self._renumber_leave(keys, idx)
                    dirty_rows = {d - (d > idx) for d in dirty_rows
                                  if d != idx}
                    dirty_rows.update(a - (a > idx) for a in affected
                                      if a != idx)
                moved.append((ext[idx], -1))
                ext = np.delete(ext, idx)
                mids = np.delete(mids, idx)
                dirty_mids = {d - (d > idx) for d in dirty_mids if d != idx}
                dirty_mids.add((idx - 1) % n_new)

        net = self._net
        self.cover_index.follow(ext, moved)
        points = self.cover_index.points
        self.points = points
        self.n = len(points)
        self.seg_start = points
        self.seg_end = np.roll(points, -1)
        segs = net.segments
        for i in dirty_mids:
            mids[i] = float(segs.segment(i).midpoint)
        self.midpoints = mids
        if keys is not None:
            keys = self._recompute_rows(keys, dirty_rows)
        self._edge_keys = keys
        return True

    @staticmethod
    def _row_cols(keys: np.ndarray, row: int) -> np.ndarray:
        """Neighbour columns of one row in the sorted key table."""
        lo = np.searchsorted(keys, np.int64(row) * _ROW_STRIDE)
        hi = np.searchsorted(keys, np.int64(row + 1) * _ROW_STRIDE)
        return (keys[lo:hi] & (_ROW_STRIDE - 1)).astype(np.int64)

    @staticmethod
    def _drop_keys(keys: np.ndarray, affected: Iterable[int]) -> np.ndarray:
        """Delete every key incident to an affected row (either endpoint).

        By symmetry of the undirected neighbour relation this only ever
        removes keys *between* affected rows' sets, so unaffected rows
        stay complete — the invariant the replay loop relies on when it
        reads the next op's neighbour row from the shrinking table.
        """
        aff = np.fromiter(affected, dtype=np.int64)
        aff.sort()
        rows = keys >> 31
        cols = keys & (_ROW_STRIDE - 1)
        keep = ~(_isin_sorted(rows, aff) | _isin_sorted(cols, aff))
        return keys[keep]

    @staticmethod
    def _renumber_join(keys: np.ndarray, idx: int) -> np.ndarray:
        """Shift indices ≥ idx up by one (order-preserving, in bulk)."""
        rows = keys >> 31
        cols = keys & (_ROW_STRIDE - 1)
        rows = rows + (rows >= idx)
        cols = cols + (cols >= idx)
        return rows * _ROW_STRIDE + cols

    @staticmethod
    def _renumber_leave(keys: np.ndarray, idx: int) -> np.ndarray:
        """Shift indices > idx down by one (idx itself is already gone)."""
        rows = keys >> 31
        cols = keys & (_ROW_STRIDE - 1)
        rows = rows - (rows > idx)
        cols = cols - (cols > idx)
        return rows * _ROW_STRIDE + cols

    def _recompute_rows(self, keys: np.ndarray, dirty: Set[int]) -> np.ndarray:
        """Rebuild the dirty rows against the live net and merge them in.

        Every key incident to a dirty row was dropped during the replay,
        so inserting ``(r, c)`` for each recomputed neighbour — plus the
        mirror ``(c, r)`` when ``c`` itself is clean — restores exactly
        the table a fresh ``_build_adjacency`` would produce.
        """
        if not dirty:
            return keys
        segs = self._net.segments
        stride = int(_ROW_STRIDE)
        fresh: List[int] = []
        for r in sorted(dirty):
            for q in self._net.neighbor_points(segs.point_at(r)):
                c = segs.index_of(q)
                fresh.append(r * stride + c)
                if c not in dirty:
                    fresh.append(c * stride + r)
        fresh_arr = np.asarray(fresh, dtype=np.int64)
        fresh_arr.sort()
        if (np.diff(fresh_arr) == 0).any() or _isin_sorted(fresh_arr, keys).any():
            raise AssertionError(
                "incremental adjacency patch produced duplicate edges"
            )  # pragma: no cover - guarded invariant
        return np.insert(keys, np.searchsorted(keys, fresh_arr), fresh_arr)

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
                     keep_paths: "bool | str" = False,
                     policy: Optional[str] = None,
                     choices: Optional[np.ndarray] = None,
                     rng: Optional[np.random.Generator] = None,
                     temperature: float = 1.0) -> BatchLookupResult:
        """Route a batch, optionally sharded and/or cost-aware.

        ``workers=1`` (the default) is exactly
        :meth:`batch_fast_lookup`; ``workers>=2`` routes contiguous
        slices through the cached sharded executor and merges — the
        result is bit-identical either way.

        Passing ``policy=`` ("uniform", "greedy", "weighted") switches
        to the cost-aware two-phase lookup
        (:meth:`batch_cost_dh_lookup`); it needs the cost columns of a
        :class:`~repro.peer.routing.CostAwareBatchRouter` plus, for the
        randomized policies, shared per-step uniforms via ``choices=``
        (required when sharding) or an ``rng``.
        """
        if policy is not None:
            if workers <= 1:
                return self.batch_cost_dh_lookup(
                    sources, targets, choices=choices, rng=rng,
                    policy=policy, temperature=temperature,
                    keep_paths=keep_paths)
            return self.sharded_executor(workers).batch_cost_dh_lookup(
                sources, targets, choices, policy=policy,
                temperature=temperature, keep_paths=keep_paths)
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
        return self.points[self.cover(ys)]

    def _segment_test(self, idx: np.ndarray):
        """``p -> (p in segment(idx))`` with the bounds gathered once.

        Vector version of the wrap-aware half-open membership test; the
        returned callable reuses the gathered bounds, so a loop over
        walk levels with fixed ``idx`` pays for them once.
        """
        if self.n == 1:
            return lambda p: np.ones(p.shape, dtype=bool)
        start = self.seg_start[idx]
        end = self.seg_end[idx]
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

    def _in_segment(self, p: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Vector version of ``p in segment(idx)`` (wrap-aware half-open)."""
        return self._segment_test(idx)(p)

    # ------------------------------------------------------- shared pieces
    def _enter(self, sources, targets, keep_paths) -> tuple:
        """Entry guard of every batch lookup; the normalized pair."""
        _check_keep_paths(keep_paths)
        self.ensure_fresh()
        return _normalize_pair(sources, targets)

    def _descend(self, y, off, depth, order, head_rows) -> tuple:
        """Backward descent ``w(σ[:j], y)``, ``j = depth_i − 1 … 0``, as CSR.

        The one kernel under every walk.  Lane ``i``'s raw path is its
        head — entry ``s`` from ``head_rows[s]``, each a per-lane row
        with ``-1`` past the lane's end, so hole-free per lane — then
        ``cover((y_i + off_i mod Δ^j) / Δ^j)`` for ``j`` descending.
        ``off`` holds integer-valued floats, ``order`` lists the lanes by
        ``depth`` descending: the lanes live at level ``j`` are then a
        prefix of the sorted arrays — no mask — and each level's covers
        are scattered to their final slot of a lane-major ragged buffer.
        One shifted compare over that buffer merges repeated servers
        (the vectorized :func:`~repro.core.lookup.compress_path`) and
        gives ``(path_servers, path_offsets)``.
        """
        delta = self.delta
        cover = self.cover_index.cover
        lens = depth.copy()
        for row in head_rows:
            lens += row >= 0
        ends = np.cumsum(lens)
        starts = ends - lens
        buf = np.empty(ends[-1] if ends.size else 0, dtype=np.int32)
        for s, row in enumerate(head_rows):
            held = np.flatnonzero(row >= 0)
            buf[starts[held] + s] = row[held]

        ys, offs, deep = y[order], off[order], depth[order]
        level0 = ends[order] - 1  # slot of each lane's last (j = 0) cover
        tmax = int(deep[0]) if deep.size else 0
        live = np.searchsorted(-deep, -np.arange(tmax))  # lanes deeper than j
        exact_float = delta & (delta - 1) == 0
        if not exact_float:
            # the callers' level caps keep every offset below 2^53
            offs = offs.astype(np.int64)
        for j in range(tmax - 1, -1, -1):
            o = offs[:live[j]]
            scale = float(delta) ** j
            if exact_float:
                # a power-of-two scale only shifts exponents, so the low
                # digits come out exact at any depth (offsets pass 2^63
                # on segments shorter than 2^-63)
                low = o - scale * np.floor(o / scale)
            else:
                low = (o % delta ** j).astype(np.float64)
            p = fold_unit((ys[:o.size] + low) / scale)
            buf.put(level0[:o.size] - j, cover(p))

        first = np.zeros(buf.size, dtype=bool)
        first[starts] = True
        keep = first.copy()
        keep[1:] |= buf[1:] != buf[:-1]
        kept = np.flatnonzero(keep)
        # the kept entries that open a lane are the CSR row starts
        return buf[kept], np.append(np.flatnonzero(first[kept]), kept.size)

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
        size = y.size
        ci = cover(src)
        t = np.zeros(size, dtype=np.int64)
        s_final = np.zeros(size, dtype=np.float64)  # ⌊z·Δ^t⌋ at the chosen t
        if self.delta & (self.delta - 1) == 0:
            level_cap = max_levels
        else:
            level_cap = min(max_levels, int(52 / math.log2(self.delta)))

        # forward search over the carried lanes: a lane that finds its
        # level retires with z = NaN, so its later walk points fail the
        # segment test, and once half the carried lanes have retired the
        # rest are compacted — the work follows Σ t_i, not size · max t
        lanes = np.arange(size)
        yp, zp, in_own = y, self.midpoints[ci], self._segment_test(ci)
        finished = []  # lanes per level, in the order the levels ran
        retired = 0
        for level in range(level_cap + 1):
            if retired == lanes.size:
                break
            scale = float(self.delta) ** level
            s_level = np.trunc(zp * scale)
            p = fold_unit((yp + s_level) / scale)
            hit = np.flatnonzero(in_own(p))
            if not hit.size:
                continue
            newly = lanes[hit]
            t[newly] = level
            s_final[newly] = s_level[hit]
            finished.append(newly)
            retired += hit.size
            zp[hit] = np.nan
            if retired < lanes.size <= 2 * retired:
                rest = np.flatnonzero(zp == zp)
                lanes, yp, zp = lanes[rest], yp[rest], zp[rest]
                in_own = self._segment_test(ci[lanes])
                retired = 0
        if retired < lanes.size:
            raise RuntimeError("batch_fast_lookup failed to converge")

        # levels ran shallow to deep, so reversed they list the lanes by
        # depth descending — the order the descent walks prefixes of
        order = np.concatenate(finished[::-1] or [lanes])
        servers, offsets = self._descend(y, s_final, t, order, [ci])
        return BatchLookupResult(
            algorithm="fast",
            points=self.points,
            targets=y,
            sources=src,
            source_idx=ci,
            owner_idx=cover(y),
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
        by a neighbour" is a segment-bound comparison plus one binary
        search in the sorted edge-key table.  Phase II descends the
        closed-form backward walk one level per iteration, exactly like
        the fast path.

        Supply ``tau`` (shape ``(size, L)`` or ``(L,)``, digits in
        ``[0, Δ)``) to fix the random strings — with the same ``tau`` the
        result is bit-identical to scalar ``dh_lookup``.  With ``rng``
        the *distribution* matches but digits are drawn batch-wise, so
        individual paths differ from a scalar replay of the same
        generator.  ``keep_paths`` behaves as in
        :meth:`batch_fast_lookup` (``"csr"`` for flattened paths).
        """
        src, y = self._enter(sources, targets, keep_paths)
        cover = self.cover_index.cover
        if rng is None and tau is None:
            raise ValueError("batch_dh_lookup needs an rng or explicit tau")
        size = y.size
        tau_arr: Optional[np.ndarray] = None
        if tau is not None:
            tau_arr = np.asarray(tau, dtype=np.int64)
            if tau_arr.ndim == 1:
                tau_arr = np.broadcast_to(tau_arr, (size, tau_arr.size))
            if tau_arr.shape[0] != size:
                raise ValueError("tau must have one digit string per lookup")
            if tau_arr.size and ((tau_arr < 0) | (tau_arr >= self.delta)).any():
                raise ValueError(f"tau digits out of range for delta={self.delta}")

        delta = self.delta
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
                raise RuntimeError("batch_dh_lookup phase I failed to converge")
            active = ~done
            done |= active & self._in_segment(image, cur)
            rem = active & ~done
            row = None
            if rem.any():
                holder = cover(image)
                via_neighbor = rem & self._edge_member(cur, holder)
                # the holder covers a point outside s(cur), so it is a
                # distinct server: appending it always costs one hop
                hops1 += via_neighbor
                if keep_paths:
                    row = np.full(size, -1, dtype=np.int64)
                    row[via_neighbor] = holder[via_neighbor]
                cur = np.where(via_neighbor, holder, cur)
                done |= via_neighbor
                cont = rem & ~via_neighbor
                if cont.any():
                    if tau_arr is not None:
                        if step >= tau_arr.shape[1]:
                            raise ValueError(
                                "supplied tau exhausted before lookup finished"
                            )
                        d = tau_arr[:, step].astype(np.float64)
                    else:
                        d = rng.integers(0, delta, size=size).astype(np.float64)
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
            if keep_paths and row is not None:
                p1_rows.append(row)
            step += 1

        owner_idx, hops, servers, offsets = self._dh_phase2(
            y, t, off, hops1, p1_rows or [cur], keep_paths)
        return BatchLookupResult(
            algorithm="dh",
            points=self.points,
            targets=y,
            sources=src,
            source_idx=src_idx,
            owner_idx=owner_idx,
            t=t,
            hops=hops,
            phase1_hops=hops1,
            path_servers=servers,
            path_offsets=offsets,
        )

    def _dh_phase2(self, y, t, off, hops1, head_rows, keep_paths):
        """Phase II: closed-form backward descent w(τ[:j], y) for j = t_i..0.

        Shared by the random and the cost-aware phase-I variants, so
        their phase-II halves are trivially bit-comparable.
        ``head_rows`` is what phase I hands the descent: every row it
        recorded when paths are kept, else only the server it stopped
        at — the hops before that one are then ``hops1``'s to add.
        Returns ``(owner_idx, hops, path_servers, path_offsets)``.
        """
        order = np.argsort(-t.astype(np.int16), kind="stable")
        servers, offsets = self._descend(y, off, t + 1, order, head_rows)
        owner_idx = self.cover_index.cover(y)
        hops = np.diff(offsets) - 1
        if keep_paths:
            return owner_idx, hops, servers, offsets
        return owner_idx, hops1 + hops, None, None

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
            u_mat = np.asarray(choices, dtype=np.float64)
            if u_mat.ndim == 1:
                u_mat = np.broadcast_to(u_mat, (size, u_mat.size))
            if u_mat.shape[0] != size:
                raise ValueError("choices must have one uniform row per lookup")
        elif rng is None and policy != "greedy":
            raise ValueError(
                f"policy {policy!r} needs shared uniforms: pass choices= or rng="
            )

        delta = self.delta
        digs = np.arange(delta, dtype=np.float64)
        cur = cover(src)
        src_idx = cur.copy()
        pos = src.copy()
        image = y.copy()
        t = np.zeros(size, dtype=np.int64)
        off = np.zeros(size, dtype=np.float64)  # Σ d_k Δ^k, exact in float64
        hops1 = np.zeros(size, dtype=np.int64)
        done = np.zeros(size, dtype=bool)
        p1_rows: List[np.ndarray] = [cur.copy()] if keep_paths else []
        tau_rows: List[np.ndarray] = []

        step_cap = min(max_steps, int(52 / math.log2(delta)))
        step = 0
        while not done.all():
            if step > step_cap:  # pragma: no cover - beyond Theorem 2.8
                raise RuntimeError(
                    "batch_cost_dh_lookup phase I failed to converge"
                )
            active = ~done
            done |= active & self._in_segment(image, cur)
            rem = active & ~done
            row = None
            if rem.any():
                holder = cover(image)
                via_neighbor = rem & self._edge_member(cur, holder)
                hops1 += via_neighbor
                if keep_paths:
                    row = np.full(size, -1, dtype=np.int64)
                    row[via_neighbor] = holder[via_neighbor]
                cur = np.where(via_neighbor, holder, cur)
                done |= via_neighbor
                cont = rem & ~via_neighbor
                if cont.any():
                    lanes = np.flatnonzero(cont)
                    # candidate next position per digit — the same float
                    # expression the digit update below applies, so the
                    # scored candidate is exactly where the message goes
                    cand_pos = fold_unit(
                        pos[lanes][None, :] / delta + digs[:, None] / delta
                    )
                    cand_cov = cover(cand_pos.ravel()).reshape(
                        delta, lanes.size
                    )
                    costs = self._edge_cost_matrix(cur[lanes], cand_cov)
                    if u_mat is not None:
                        if step >= u_mat.shape[1]:
                            raise ValueError(
                                "supplied choices exhausted before lookup "
                                "finished"
                            )
                        u_row = u_mat[lanes, step]
                    elif rng is not None:
                        u_row = rng.random(size)[lanes]
                    else:
                        u_row = None
                    ok = np.ones((delta, lanes.size), dtype=bool)
                    sel = select_rows(costs, ok, u_row, policy, temperature)
                    d_step = np.zeros(size, dtype=np.int64)
                    d_step[lanes] = sel
                    tau_rows.append(d_step)
                    d = d_step.astype(np.float64)
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
            if keep_paths and row is not None:
                p1_rows.append(row)
            step += 1

        tau_used = (
            np.ascontiguousarray(np.vstack(tau_rows).T)
            if tau_rows else np.zeros((size, 0), dtype=np.int64)
        )
        owner_idx, hops, servers, offsets = self._dh_phase2(
            y, t, off, hops1, p1_rows or [cur], keep_paths)
        return BatchLookupResult(
            algorithm="dh-cost",
            points=self.points,
            targets=y,
            sources=src,
            source_idx=src_idx,
            owner_idx=owner_idx,
            t=t,
            hops=hops,
            phase1_hops=hops1,
            tau_used=tau_used,
            policy=policy,
            path_servers=servers,
            path_offsets=offsets,
        )
