"""Shared columnar-snapshot + op-journal layer.

Two subsystems share one pattern — freeze a sorted decomposition into
NumPy arrays, follow the live structure through a bounded journal of
ops, patch the arrays in O(affected region) per op, and fall back to a
full rebuild when the replay would cost more than a recompile:

* the batch-lookup router (:class:`~repro.core.batch.BatchRouter`)
  following :class:`~repro.core.network.DistanceHalvingNetwork`
  membership;
* the §6.2 cover tables of
  :class:`~repro.faults.overlap.OverlappingDHNetwork` (static
  membership — a snapshot that is never stale).

This module holds the pattern once.  :class:`ColumnarSnapshot` owns
the *frozen sorted columns* (aligned NumPy arrays registered by name),
the version counter, the refresh decision (incremental patch within a
churn budget and journal window, full rebuild otherwise), the
:class:`SnapshotRefreshStats` accounting, and the stale-or-refresh
entry guard.  :class:`OpJournal` owns the bounded op log.  Subclasses
only say how to rebuild their columns from the source of truth
(:meth:`ColumnarSnapshot._rebuild`) and — optionally — how to replay a
pending-op suffix as array patches (:meth:`ColumnarSnapshot._patch`).

The column registry doubles as the export surface of the sharded
execution backend (:mod:`repro.core.shard`):
:meth:`ColumnarSnapshot.snapshot_columns` enumerates exactly the arrays
a worker process needs to route without the live Python object graph,
which is what makes pickle-free ``shared_memory`` sharing possible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ColumnarSnapshot", "OpJournal", "SnapshotRefreshStats",
           "StaleSnapshotError"]


class StaleSnapshotError(RuntimeError):
    """A frozen snapshot was queried after its source of truth moved on.

    Subclasses ``RuntimeError`` so pre-extraction callers that caught
    the router's stale error keep working unchanged.
    """


#: Default guidance when a snapshot subclass does not supply its own.
_DEFAULT_STALE_ERROR = (
    "stale snapshot: the underlying structure changed since this snapshot "
    "was frozen; rebuild it, or construct it with auto_refresh=True to "
    "follow changes automatically"
)


@dataclass
class SnapshotRefreshStats:
    """Cumulative accounting of a snapshot's re-sync work.

    Every pending op a refresh consumed is counted in exactly one
    bucket: ``ops_replayed`` when an incremental patch replayed it,
    ``ops_absorbed`` when a fallback full rebuild absorbed it (budget or
    journal window exceeded, tiny structure, ``force_full``).  Keeping
    the buckets separate is what makes incremental-refresh speedup
    claims honest — a single rebuild that swallows a 10⁴-op churn wave
    must not masquerade as 10⁴ cheap incremental replays.  ``seconds``
    covers the patching itself (both modes); the churn-soak experiment
    divides it by :meth:`ops_synced` to report refresh cost per op.
    ``copies`` counts the incremental patches that first copied the
    columns into fresh buffers — a subclass that edits its columns in
    place copies when they were handed out since its last edit, or have
    no room left; every other patch edited in place.
    """

    refreshes: int = 0
    incremental: int = 0
    full_rebuilds: int = 0
    ops_replayed: int = 0
    ops_absorbed: int = 0
    seconds: float = 0.0
    copies: int = 0

    def ops_synced(self) -> int:
        """Ops consumed by refreshes, over both buckets."""
        return self.ops_replayed + self.ops_absorbed

    def seconds_per_op(self) -> float:
        """Mean refresh seconds per consumed op (0.0 before any sync)."""
        total = self.ops_synced()
        return self.seconds / total if total else 0.0


class OpJournal:
    """Bounded journal of ops with a monotone version counter.

    Every mutation of the source structure appends one opaque op (the
    snapshot subclass defines its shape) and bumps :attr:`version`.  A
    snapshot synced at version ``v`` replays the suffix
    :meth:`ops_since`\\ ``(v)`` to patch its frozen arrays in
    O(affected region) instead of rebuilding.

    The journal is capped (``cap`` entries); a snapshot that fell
    further behind than the cap gets ``None`` from :meth:`ops_since`
    and must do a full rebuild.
    """

    def __init__(self, cap: int = 8192) -> None:
        self.cap = int(cap)
        self.version = 0
        self._ops: List[tuple] = []
        self._head = 0  # version just before the first retained entry

    def append(self, op: tuple) -> int:
        """Record one op; returns the new version."""
        self._ops.append(op)
        self.version += 1
        overflow = len(self._ops) - self.cap
        if overflow > 0:
            del self._ops[:overflow]
            self._head += overflow
        return self.version

    def ops_since(self, version: int) -> Optional[List[tuple]]:
        """Ops replaying ``version`` → current, or ``None`` if trimmed."""
        if version > self.version:
            raise ValueError(
                f"version {version} is ahead of the journal ({self.version})"
            )
        if version < self._head:
            return None
        return self._ops[version - self._head:]


class ColumnarSnapshot:
    """Frozen sorted NumPy columns following a journaled live structure.

    Subclasses declare their aligned arrays in :attr:`COLUMNS` (instance
    attributes or properties, one :class:`numpy.ndarray` per name, all
    the same length) and implement:

    * :meth:`_rebuild` — fill every column from the source of truth
      (the full-recompile path);
    * :meth:`_patch` *(optional)* — replay a pending-op suffix as
      O(affected-region) array edits; return ``False`` to bail out to a
      full rebuild.  The default always bails, so a subclass without a
      patch rule still gets correct (if slower) refresh semantics.

    A subclass may also keep *derived columns* — arrays computed from a
    registered column but not aligned with it (the router's adjacency
    ranges, the :class:`~repro.core.segments.CoverIndex` grid over its
    point column).  They share the snapshot's lifetime: ``_rebuild``
    rebuilds them and ``_patch`` keeps them current, never on their own.

    The base class owns everything the pre-extraction copies
    duplicated: the version counter against the journal, the
    stale-or-refresh entry guard (:meth:`ensure_fresh`), and the refresh
    decision (incremental within ``budget`` and the journal window,
    full rebuild otherwise, with :class:`SnapshotRefreshStats`
    accounting).

    A snapshot constructed with ``journal=None`` is *static*: it can
    never go stale (the §6.2 cover tables).
    """

    #: Names of the aligned frozen arrays; subclasses override.
    COLUMNS: Tuple[str, ...] = ()

    def __init__(
        self,
        journal: Optional[OpJournal] = None,
        auto_refresh: bool = False,
        budget: Optional[int] = None,
        stale_error: Optional[str] = None,
    ) -> None:
        if budget is not None and budget < 0:
            raise ValueError("refresh budget must be >= 0 pending ops, "
                             f"got {budget}")
        self._journal = journal
        self.auto_refresh = bool(auto_refresh)
        self.budget = budget
        self.refresh_stats = SnapshotRefreshStats()
        self._stale_error = stale_error or _DEFAULT_STALE_ERROR
        self._rebuild()
        self._version = self._journal_version()

    # --------------------------------------------------- subclass contract
    def _rebuild(self) -> None:
        """Fill every column from the source of truth (full recompile)."""
        raise NotImplementedError

    def _patch(self, pending: Sequence[tuple]) -> bool:
        """Replay ``pending`` as O(affected-region) edits; False = bail."""
        return False

    # ------------------------------------------------------------- columns
    def snapshot_columns(self) -> Dict[str, np.ndarray]:
        """The registered frozen arrays by name (the shard export surface)."""
        return {name: getattr(self, name) for name in self.COLUMNS}

    @property
    def n_rows(self) -> int:
        """Rows shared by every registered column (0 with no columns)."""
        if not self.COLUMNS:
            return 0
        return int(len(getattr(self, self.COLUMNS[0])))

    # ------------------------------------------------------------ freshness
    def _journal_version(self) -> int:
        return self._journal.version if self._journal is not None else 0

    @property
    def version(self) -> int:
        """The journal version this snapshot's arrays reflect."""
        return self._version

    @property
    def is_stale(self) -> bool:
        """Whether the journal moved past the frozen columns."""
        return self._version != self._journal_version()

    def ensure_fresh(self) -> None:
        """Entry guard of every query: sync or fail actionably."""
        if self._version == self._journal_version():
            return
        if not self.auto_refresh:
            raise StaleSnapshotError(self._stale_error)
        self.refresh()

    def _default_budget(self) -> int:
        """Pending ops an incremental refresh will replay at most."""
        return max(16, self.n_rows // 16)

    def refresh(self, force_full: bool = False) -> "ColumnarSnapshot":
        """Bring the columns up to date with the journal.

        Replays the journal suffix since :attr:`version` through
        :meth:`_patch`; rebuilds from scratch when ``force_full`` is
        set, the pending-op count exceeds the budget, the journal
        window was exceeded, or the subclass patch rule bails out.
        Every consumed op lands in exactly one stats bucket
        (``ops_replayed`` vs ``ops_absorbed``).  Returns ``self`` so
        calls chain.
        """
        target = self._journal_version()
        if target == self._version and not force_full:
            return self
        t0 = time.perf_counter()
        pending = (None if force_full or self._journal is None
                   else self._journal.ops_since(self._version))
        budget = (self.budget if self.budget is not None
                  else self._default_budget())
        ops = target - self._version
        if (pending is not None and len(pending) <= budget
                and self._patch(pending)):
            self.refresh_stats.incremental += 1
            self.refresh_stats.ops_replayed += ops
        else:
            self._rebuild()
            self.refresh_stats.full_rebuilds += 1
            self.refresh_stats.ops_absorbed += ops
        self._version = target
        self.refresh_stats.refreshes += 1
        self.refresh_stats.seconds += time.perf_counter() - t0
        return self
