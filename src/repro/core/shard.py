"""Opt-in multicore sharded execution backend for the batch engines.

The batch spine is single-process by construction: one
:class:`~repro.core.batch.BatchRouter` routes one NumPy batch on one
core.  This module adds the parallel layer the ROADMAP calls "the piece
that lets benches scale past n=2^20": a :class:`ShardedExecutor` that

* exports the router's frozen snapshot **pickle-free** into
  ``multiprocessing.shared_memory`` blocks — exactly the arrays the
  :class:`~repro.core.snapshot.ColumnarSnapshot` column registry
  enumerates, plus the two adjacency range columns when built and any
  ``shard_extra_arrays()`` a router subclass declares (the cost-aware
  router ships its k×k ISP matrix this way) — so every worker process
  routes against the *same physical pages*, not a copy;
* splits a batch of lookups into ``workers`` contiguous slices and runs
  them through a persistent process pool; the per-lane routing math is
  elementwise (every IEEE-754 op of a lane depends only on that lane and
  the shared snapshot), so the concatenation of per-shard results is
  **bit-identical** to the single-process run — the property the
  hypothesis shard-parity suite asserts;
* merges per-shard results through the existing associative accumulator
  semantics: :func:`merge_results` re-assembles one
  :class:`~repro.core.batch.BatchLookupResult` (CSR paths concatenate
  with offset shifts), and downstream accumulators
  (:class:`~repro.core.routing_stats.BatchCongestion`,
  :class:`~repro.sim.scenario.SoakStats`) merge exactly.

Ownership of the shared-memory lifetime is strictly the executor's: the
parent creates and unlinks every block; workers only attach views and
never outlive the pool.  After membership churn the exported snapshot is
stale — :meth:`ShardedExecutor.sync` re-exports and restarts the pool
(the router's journal/patch machinery keeps *its* arrays fresh; the
executor only mirrors the result).

One batch kind is deliberately **not** sharded: the caching engine's
``serve_batch`` (its replication fixpoint is order-dependent across the
whole batch, so slicing would change results).
"""

from __future__ import annotations

import multiprocessing as mp
import os
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .batch import BatchLookupResult, BatchRouter
from .segments import CoverIndex
from .walk import normalize_pair, per_lane_matrix

__all__ = ["ShardedExecutor", "available_workers", "merge_results",
           "slice_bounds"]

#: Scalar attributes a worker needs besides the shared columns.
_SCALARS = ("delta", "with_ring", "n")


def slice_bounds(size: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` slice bounds splitting ``size`` lanes.

    Remainder lanes go to the leading slices (``np.array_split``
    convention), and empty slices are dropped — every returned slice is
    non-empty, so a batch smaller than the worker count simply uses
    fewer workers.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    edges = np.linspace(0, size, min(workers, max(size, 1)) + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def merge_results(parts: Sequence[BatchLookupResult],
                  points: Optional[np.ndarray] = None) -> BatchLookupResult:
    """Concatenate per-shard results into one :class:`BatchLookupResult`.

    Pure re-assembly — lane order is preserved, CSR offsets are shifted
    by the running path-entry count, and no float is recomputed, so the
    merge of a sliced batch equals the unsliced result bit-for-bit.
    ``points`` re-attaches the id-point array when the shards stripped
    it (the executor does, to keep result pickles O(batch/workers)).
    """
    if not parts:
        raise ValueError("nothing to merge")
    first = parts[0]
    if points is None:
        points = first.points
    cat = np.concatenate
    phase1 = None
    if all(p.phase1_hops is not None for p in parts):
        phase1 = cat([p.phase1_hops for p in parts])
    tau_used = None
    if all(p.tau_used is not None for p in parts):
        # shards stop at their own deepest phase-I step; right-pad the
        # narrower digit matrices with zeros (digits past a lookup's
        # ``t`` are never consumed by a replay) before stacking
        width = max(p.tau_used.shape[1] for p in parts)
        padded = []
        for p in parts:
            tu = p.tau_used
            if tu.shape[1] < width:
                pad = np.zeros((tu.shape[0], width - tu.shape[1]),
                               dtype=tu.dtype)
                tu = np.concatenate([tu, pad], axis=1)
            padded.append(tu)
        tau_used = cat(padded)
    servers = offsets = None
    if all(p.path_servers is not None for p in parts):
        servers = cat([p.path_servers for p in parts])
        offsets = np.zeros(sum(p.size for p in parts) + 1, dtype=np.int64)
        at = 0
        base = 0
        for p in parts:
            offsets[at + 1: at + p.size + 1] = p.path_offsets[1:] + base
            at += p.size
            base += int(p.path_offsets[-1])
    return BatchLookupResult(
        algorithm=first.algorithm,
        points=points,
        targets=cat([p.targets for p in parts]),
        sources=cat([p.sources for p in parts]),
        source_idx=cat([p.source_idx for p in parts]),
        owner_idx=cat([p.owner_idx for p in parts]),
        t=cat([p.t for p in parts]),
        hops=cat([p.hops for p in parts]),
        phase1_hops=phase1,
        tau_used=tau_used,
        policy=first.policy,
        path_servers=servers,
        path_offsets=offsets,
    )


class _ShardRouter(BatchRouter):
    """A worker-side router over shared-memory column views.

    Never constructed through ``__init__``: :func:`_init_worker` builds
    it with ``__new__`` and wires the attributes straight onto the
    attached views.  There is no live network behind it — the snapshot
    is frozen for the lifetime of the pool — so the freshness guard is
    a no-op and anything that would need the live object graph raises.
    """

    def ensure_fresh(self) -> None:
        """No-op: the exported snapshot is frozen for the pool's lifetime."""
        return

    def refresh(self, force_full: bool = False) -> "BatchRouter":
        """Always an error: refresh happens in the parent process."""
        raise RuntimeError("shard workers hold a frozen snapshot; "
                           "refresh happens in the parent process")

    def _build_adjacency(self) -> None:
        raise RuntimeError("shard workers cannot reach the live network; "
                           "build adjacency before exporting the snapshot")


#: Worker-global state: (router, attached SharedMemory blocks).
_WORKER: Dict[str, object] = {}


def _init_worker(spec: Dict) -> None:
    """Pool initializer: build the frozen shard router from shm views.

    Workers share the parent's resource tracker, so their attachments
    re-register already-tracked names (a no-op) and the parent's single
    ``unlink`` unregisters them once — ownership stays with the parent.
    """
    blocks = []
    router = _ShardRouter.__new__(_ShardRouter)
    views = {}
    for attr, name, dtype, shape in spec["columns"]:
        shm = shared_memory.SharedMemory(name=name)
        blocks.append(shm)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        view.flags.writeable = False
        views[attr] = view
    for attr, value in spec["scalars"].items():
        setattr(router, attr, value)
    # the routing columns become the row buffers; the cover index is
    # derived from the shared point column, like in the parent (~0.5 ms)
    router._adopt(CoverIndex(views.pop("points")), views.pop("seg_end"),
                  views.pop("midpoints"))
    del views["seg_start"]  # the point column again
    for attr, view in views.items():
        setattr(router, attr, view)
    if not hasattr(router, "adj_first"):
        router.adj_first = router.adj_count = None
    _WORKER["router"] = router
    _WORKER["blocks"] = blocks


def _run_fast(task) -> BatchLookupResult:
    sources, targets, keep_paths = task
    router: _ShardRouter = _WORKER["router"]  # type: ignore[assignment]
    result = router.batch_fast_lookup(sources, targets,
                                      keep_paths=keep_paths)
    result.points = None  # re-attached by merge_results in the parent
    return result


def _run_dh(task) -> BatchLookupResult:
    sources, targets, tau, keep_paths = task
    router: _ShardRouter = _WORKER["router"]  # type: ignore[assignment]
    result = router.batch_dh_lookup(sources, targets, tau=tau,
                                    keep_paths=keep_paths)
    result.points = None
    return result


def _run_cost_dh(task) -> BatchLookupResult:
    sources, targets, choices, policy, temperature, keep_paths = task
    router: _ShardRouter = _WORKER["router"]  # type: ignore[assignment]
    result = router.batch_cost_dh_lookup(
        sources, targets, choices=choices, policy=policy,
        temperature=temperature, keep_paths=keep_paths)
    result.points = None
    return result


class ShardedExecutor:
    """Persistent worker pool routing batch slices against a shared snapshot.

    Parameters
    ----------
    router:
        The compiled :class:`~repro.core.batch.BatchRouter` to export.
        It must be fresh (the constructor and :meth:`sync` call its
        ``ensure_fresh``); build adjacency first if the workload uses
        :meth:`batch_dh_lookup`.
    workers:
        Worker process count (≥ 2; use the plain router for 1).

    Workers start with ``fork`` where available (cheapest on Linux),
    else with the platform default.

    Use as a context manager, or call :meth:`close` — the executor owns
    the shared-memory blocks and must outlive every in-flight batch.
    """

    def __init__(self, router: BatchRouter, workers: int) -> None:
        if workers < 2:
            raise ValueError("a sharded executor needs workers >= 2")
        self.router = router
        self.workers = int(workers)
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        self._pool = None
        self._blocks: List[shared_memory.SharedMemory] = []
        self.version: Optional[int] = None
        self.syncs = 0
        self.sync()

    # ------------------------------------------------------------- lifecycle
    def _export(self) -> Dict:
        """Copy the router's registered columns into fresh shm blocks."""
        router = self.router
        columns = []
        arrays = dict(router.snapshot_columns())
        self._exported_adjacency = router.adj_first is not None
        if self._exported_adjacency:
            arrays["adj_first"] = router.adj_first
            arrays["adj_count"] = router.adj_count
        # non-column extras (e.g. the cost-aware router's k×k ISP cost
        # matrix, which is not n-aligned and so not a registered column)
        extra = getattr(router, "shard_extra_arrays", None)
        if extra is not None:
            arrays.update(extra())
        for attr, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, arr.nbytes))
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            self._blocks.append(shm)
            columns.append((attr, shm.name, arr.dtype.str, arr.shape))
        scalars = {attr: getattr(router, attr) for attr in _SCALARS}
        return {"columns": columns, "scalars": scalars}

    def _teardown(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        for shm in self._blocks:
            shm.close()
            shm.unlink()
        self._blocks = []

    def sync(self) -> "ShardedExecutor":
        """Re-export the snapshot if the router moved past the export.

        Cheap no-op while versions agree; after churn it rebuilds the
        shm blocks and restarts the pool (workers hold views into the
        old blocks, so they cannot be reused).  Returns ``self``.
        """
        self.router.ensure_fresh()
        if self._pool is not None and self.version == self.router.version:
            return self
        self._teardown()
        spec = self._export()
        self._pool = self._ctx.Pool(self.workers, initializer=_init_worker,
                                    initargs=(spec,))
        self.version = self.router.version
        self.syncs += 1
        return self

    def _export_adjacency(self) -> None:
        """Make sure the workers hold the adjacency range columns."""
        if not self._exported_adjacency:
            if self.router.adj_first is None:
                self.router._build_adjacency()
            self.version = None  # restart the pool on an export with them
            self.sync()

    def close(self) -> None:
        """Terminate the pool and release every shared-memory block."""
        self._teardown()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc-order dependent
        try:
            self._teardown()
        except Exception:
            pass

    # ---------------------------------------------------------------- routing
    def _check(self) -> None:
        if self._pool is None:
            raise RuntimeError("executor is closed")

    def batch_fast_lookup(self, sources, targets,
                          keep_paths: "bool | str" = False,
                          ) -> BatchLookupResult:
        """Sharded §2.2.1 fast lookup, bit-identical to the plain router.

        Normalization happens once in the parent (it is elementwise, so
        it commutes with slicing); each worker routes one contiguous
        slice and the merged result preserves lane order.
        """
        self._check()
        self.sync()
        src, y = normalize_pair(sources, targets)
        bounds = slice_bounds(y.size, self.workers)
        if len(bounds) <= 1:
            res = self.router.batch_fast_lookup(src, y, keep_paths=keep_paths)
            return res
        tasks = [(src[lo:hi], y[lo:hi], keep_paths) for lo, hi in bounds]
        parts = self._pool.map(_run_fast, tasks)
        return merge_results(parts, points=self.router.points)

    def batch_dh_lookup(self, sources, targets, tau,
                        keep_paths: "bool | str" = False,
                        ) -> BatchLookupResult:
        """Sharded §2.2.2 two-phase lookup (explicit ``tau`` only).

        Random digit strings must be supplied: a shared ``rng`` draws
        digits batch-wise, which is inherently order-dependent across
        the whole batch and would break shard parity.
        """
        self._check()
        self.sync()
        self._export_adjacency()
        src, y = normalize_pair(sources, targets)
        tau_arr = per_lane_matrix(tau, y.size, np.int64, "tau")
        bounds = slice_bounds(y.size, self.workers)
        if len(bounds) <= 1:
            return self.router.batch_dh_lookup(src, y, tau=tau_arr,
                                               keep_paths=keep_paths)
        tasks = [(src[lo:hi], y[lo:hi], tau_arr[lo:hi], keep_paths)
                 for lo, hi in bounds]
        parts = self._pool.map(_run_dh, tasks)
        return merge_results(parts, points=self.router.points)

    def batch_cost_dh_lookup(self, sources, targets, choices,
                             policy: str = "weighted",
                             temperature: float = 1.0,
                             keep_paths: "bool | str" = False,
                             ) -> BatchLookupResult:
        """Sharded cost-aware dh lookup (explicit ``choices`` only).

        Mirrors :meth:`~repro.core.batch.BatchRouter
        .batch_cost_dh_lookup` over per-worker slices.  The per-step
        uniforms must be supplied up front (an ``rng`` would be consumed
        batch-wise and break shard parity, exactly like ``tau`` for the
        plain dh path; ``policy="greedy"`` accepts ``choices=None``).
        Requires a cost-aware router — the workers rebuild their shard
        routers from the exported cost columns plus the ``_isp_cost``
        extra array, so the merged result is bit-identical to the
        single-process call, ``tau_used`` included.
        """
        self._check()
        self.sync()
        self.router._cost_state()  # actionable error on a cost-less router
        self._export_adjacency()
        src, y = normalize_pair(sources, targets)
        u_mat = None
        if choices is not None:
            u_mat = per_lane_matrix(choices, y.size, np.float64, "choices")
        elif policy != "greedy":
            raise ValueError(
                f"sharded policy {policy!r} needs explicit choices= uniforms")
        bounds = slice_bounds(y.size, self.workers)
        if len(bounds) <= 1:
            return self.router.batch_cost_dh_lookup(
                src, y, choices=u_mat, policy=policy,
                temperature=temperature, keep_paths=keep_paths)
        tasks = [(src[lo:hi], y[lo:hi],
                  None if u_mat is None else u_mat[lo:hi],
                  policy, temperature, keep_paths)
                 for lo, hi in bounds]
        parts = self._pool.map(_run_cost_dh, tasks)
        return merge_results(parts, points=self.router.points)


def available_workers() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
