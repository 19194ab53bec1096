"""Sharded §2.2.1 fast lookups over a shared-memory snapshot.

The batch spine is single-process by construction: one
:class:`~repro.core.batch.BatchRouter` routes one NumPy batch on one
core.  This module routes the fast lookup of
:meth:`~repro.core.batch.BatchRouter.lookup_batch` (``workers >= 2``)
across worker processes — the one sharded path, measured by the spine's
``route_sharded`` workload:

* :class:`ShardedExecutor` exports the router's snapshot **pickle-free**
  into ``multiprocessing.shared_memory`` blocks — exactly the three
  arrays :meth:`~repro.core.batch.BatchRouter._adopt` takes (``points``,
  ``seg_end``, ``midpoints``) — so every worker routes against the
  *same physical pages*, not a copy;
* it splits a batch into ``workers`` contiguous slices and runs them
  through a persistent process pool; the per-lane routing math is
  elementwise (every IEEE-754 op of a lane depends only on that lane and
  the shared snapshot), so the concatenation of per-shard results is
  **bit-identical** to the single-process run — the property the
  hypothesis shard-parity suite asserts;
* :func:`merge_results` re-assembles one
  :class:`~repro.core.batch.BatchLookupResult` (CSR paths concatenate
  with offset shifts), which downstream accumulators
  (:class:`~repro.core.routing_stats.BatchCongestion`) book exactly.

Ownership of the shared-memory lifetime is strictly the executor's: the
parent creates and unlinks every block; workers only attach views and
never outlive the pool.  After membership churn the exported snapshot is
stale — :meth:`ShardedExecutor.sync` re-exports and restarts the pool
(the router's journal/patch machinery keeps *its* arrays fresh; the
executor only mirrors the result).  A worker that dies mid-batch breaks
the pool: the batch raises ``RuntimeError``, every block is unlinked,
and the next batch (or :meth:`ShardedExecutor.sync`) starts a new pool.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import checks
from .batch import BatchLookupResult, BatchRouter
from .segments import CoverIndex
from .walk import normalize_pair

__all__ = ["ShardedExecutor", "available_workers", "merge_results",
           "slice_bounds"]

#: The row arrays a worker routes against, in ``BatchRouter._adopt`` order.
_EXPORTED = ("points", "seg_end", "midpoints")

#: Scalar attributes a worker needs besides the shared arrays.
_SCALARS = ("delta", "with_ring", "n")


def slice_bounds(size: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` slice bounds splitting ``size`` lanes.

    Remainder lanes go to the leading slices (``np.array_split``
    convention), and empty slices are dropped — every returned slice is
    non-empty, so a batch smaller than the worker count simply uses
    fewer workers.
    """
    size, workers = checks.count(size, "size"), checks.count(workers, "workers", 1)
    edges = np.linspace(0, size, min(workers, max(size, 1)) + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def merge_results(parts: Sequence[BatchLookupResult],
                  points: Optional[np.ndarray] = None) -> BatchLookupResult:
    """Concatenate per-shard fast-lookup results into one result.

    Pure re-assembly — lane order is preserved, CSR offsets are shifted
    by the running path-entry count, and no float is recomputed, so the
    merge of a sliced batch equals the unsliced result bit-for-bit.
    ``points`` re-attaches the id-point array when the shards stripped
    it (the executor does, to keep result pickles O(batch/workers)).
    """
    if not parts:
        raise ValueError("nothing to merge")
    if points is None:
        points = parts[0].points
    cat = np.concatenate
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
        algorithm=parts[0].algorithm,
        points=points,
        targets=cat([p.targets for p in parts]),
        sources=cat([p.sources for p in parts]),
        source_idx=cat([p.source_idx for p in parts]),
        owner_idx=cat([p.owner_idx for p in parts]),
        t=cat([p.t for p in parts]),
        hops=cat([p.hops for p in parts]),
        path_servers=servers,
        path_offsets=offsets,
    )


class _ShardRouter(BatchRouter):
    """A worker-side router over shared-memory column views.

    Never constructed through ``__init__``: :func:`_init_worker` builds
    it with ``__new__`` and wires the attributes straight onto the
    attached views.  There is no live network behind it — the snapshot
    is frozen for the lifetime of the pool — so the freshness guard is
    a no-op and a refresh raises.
    """

    def ensure_fresh(self) -> None:
        """No-op: the exported snapshot is frozen for the pool's lifetime."""
        return

    def refresh(self, force_full: bool = False) -> "BatchRouter":
        """Always an error: refresh happens in the parent process."""
        raise RuntimeError("shard workers hold a frozen snapshot; "
                           "refresh happens in the parent process")


#: Worker-global state: (router, attached SharedMemory blocks).
_WORKER: Dict[str, object] = {}


def _init_worker(spec: Dict) -> None:
    """Pool initializer: build the frozen shard router from shm views.

    Workers share the parent's resource tracker, so their attachments
    re-register already-tracked names (a no-op) and the parent's single
    ``unlink`` unregisters them once — ownership stays with the parent.
    """
    blocks = []
    views = []
    for name, dtype, shape in spec["columns"]:
        shm = shared_memory.SharedMemory(name=name)
        blocks.append(shm)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        view.flags.writeable = False
        views.append(view)
    router = _ShardRouter.__new__(_ShardRouter)
    for attr, value in spec["scalars"].items():
        setattr(router, attr, value)
    # the cover index is derived from the shared point column, like in
    # the parent (~0.5 ms)
    points, seg_end, midpoints = views
    router._adopt(CoverIndex(points), seg_end, midpoints)
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


class ShardedExecutor:
    """Persistent worker pool routing fast-lookup slices on a shared snapshot.

    Parameters
    ----------
    router:
        The compiled :class:`~repro.core.batch.BatchRouter` to export.
        It must be fresh (the constructor and :meth:`sync` call its
        ``ensure_fresh``).
    workers:
        Worker process count, an integer ≥ 2 (use the plain router for 1).

    Workers start with ``fork`` where available (cheapest on Linux),
    else with the platform default.

    Use as a context manager, or call :meth:`close` — the executor owns
    the shared-memory blocks and must outlive every in-flight batch.
    """

    def __init__(self, router: BatchRouter, workers: int) -> None:
        self.router = router
        self.workers = checks.count(workers, "workers", 2)
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        self._pool = None
        self._blocks: List[shared_memory.SharedMemory] = []
        self._closed = False
        self.version: Optional[int] = None
        self.syncs = 0
        self.sync()

    # ------------------------------------------------------------- lifecycle
    def _export(self) -> Dict:
        """Copy the router's row arrays into fresh shm blocks."""
        router = self.router
        columns = []
        for attr in _EXPORTED:
            arr = np.ascontiguousarray(getattr(router, attr))
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, arr.nbytes))
            self._blocks.append(shm)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            columns.append((shm.name, arr.dtype.str, arr.shape))
        scalars = {attr: getattr(router, attr) for attr in _SCALARS}
        return {"columns": columns, "scalars": scalars}

    def _teardown(self) -> None:
        """Stop the pool and unlink every block; the next sync restarts."""
        pool, self._pool = self._pool, None
        self.version = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        blocks, self._blocks = self._blocks, []
        for shm in blocks:
            shm.close()
            shm.unlink()

    def sync(self) -> "ShardedExecutor":
        """Re-export the snapshot if the router moved past the export.

        Cheap no-op while versions agree; after churn (or a broken
        pool) it rebuilds the shm blocks and restarts the pool (workers
        hold views into the old blocks, so they cannot be reused).
        Returns ``self``.
        """
        # imported here: concurrent.futures pulls in logging and the
        # multiprocessing queues, which no unsharded run needs
        from concurrent.futures import ProcessPoolExecutor

        self.router.ensure_fresh()
        if self._pool is not None and self.version == self.router.version:
            return self
        self._teardown()
        spec = self._export()
        self._pool = ProcessPoolExecutor(
            self.workers, mp_context=self._ctx, initializer=_init_worker,
            initargs=(spec,))
        # the first task forks every worker: start them now, not in the
        # first batch
        self._pool.submit(os.getpid).result()
        self._closed = False
        self.version = self.router.version
        self.syncs += 1
        return self

    def close(self) -> None:
        """Stop the pool and release every shared-memory block."""
        self._closed = True
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
    def batch_fast_lookup(self, sources, targets,
                          keep_paths: "bool | str" = False,
                          ) -> BatchLookupResult:
        """Sharded §2.2.1 fast lookup, bit-identical to the plain router.

        Normalization happens once in the parent (it is elementwise, so
        it commutes with slicing); each worker routes one contiguous
        slice and the merged result preserves lane order.  A worker that
        dies mid-batch raises ``RuntimeError`` after the pool is stopped
        and every block unlinked; the next call starts a fresh pool.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        self.sync()
        src, y = normalize_pair(sources, targets)
        bounds = slice_bounds(y.size, self.workers)
        if len(bounds) <= 1:
            return self.router.batch_fast_lookup(src, y, keep_paths=keep_paths)
        from concurrent.futures.process import BrokenProcessPool

        tasks = [(src[lo:hi], y[lo:hi], keep_paths) for lo, hi in bounds]
        try:
            parts = list(self._pool.map(_run_fast, tasks))
        except BrokenProcessPool as exc:
            self._teardown()
            raise RuntimeError(
                "a shard worker died mid-batch; the pool is stopped and its "
                "shared memory released, the next batch starts a new pool"
            ) from exc
        return merge_results(parts, points=self.router.points)


def available_workers() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
