"""Congestion and load accounting for routed lookups (paper §2.2, Def. 3).

The paper's congestion of a server is "the probability [it] is active in a
routing between a randomly chosen server and a random point"; empirically
we estimate it as (visits to the server) / (number of routed lookups).
Theorems 2.7 / 2.9 predict a maximum congestion of ``Θ(log n / n)`` for
smooth decompositions; Theorems 2.10 / 2.11 predict a maximum *load* of
``O(log n)`` messages per server when ``n`` lookups are routed at once
(permutation routing).

Two accounting backends share one ``summary()`` schema:

* :class:`CongestionCounter` — the scalar reference: a ``Counter`` fed
  one :class:`~repro.core.lookup.LookupResult` (or raw baseline-DHT
  path) at a time.  Serves the small cross-check sizes and the baseline
  comparisons.
* :class:`BatchCongestion` — the vectorized spine: a blocked
  ``np.bincount`` over the flattened CSR ``path_servers`` of a
  :class:`~repro.core.batch.BatchLookupResult` per batch.  Accumulators
  merge across batches, even batches routed on different snapshots of a
  churning network; for the same routed lookups both backends report
  ``max_load`` / ``mean_load`` / ``max_congestion`` bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from .lookup import LookupResult, compress_path

__all__ = ["CongestionCounter", "BatchCongestion"]

#: Path entries per ``np.bincount`` call of :meth:`BatchCongestion.record_batch`,
#: or the server count if that is larger (each call also returns an
#: ``n``-vector).  ``bincount`` copies its ``int32`` input to ``intp``, so
#: a block bounds that copy at ``8·max(_BLOCK, n)`` bytes whatever the
#: batch, as the accountants' ``_BLOCK`` in :mod:`repro.peer.itracker`
#: does.  Smaller blocks pay the ``n``-vector more often: at n = 16384
#: a ~1M-entry batch books in about the time of one unblocked call at
#: this size, and ~1.4x that at 8192.
_BLOCK = 1 << 16


class _CongestionStatsMixin:
    """The Definition-3 digest both accounting backends derive from
    ``max_load()`` / ``_visit_total()`` / ``lookups`` / ``total_messages``
    — one copy, so the shared ``summary()`` schema cannot drift."""

    def max_congestion(self) -> float:
        """Empirical max congestion: max visits / number of lookups (Def. 3)."""
        if self.lookups == 0:
            return 0.0
        return self.max_load() / self.lookups

    def mean_load(self, n_servers: int) -> float:
        """Average number of lookups handled per server."""
        if n_servers == 0:
            return 0.0
        return self._visit_total() / n_servers

    def summary(self, n_servers: int) -> Dict[str, float]:
        """Digest used by the experiment tables."""
        return {
            "lookups": float(self.lookups),
            "max_load": float(self.max_load()),
            "mean_load": self.mean_load(n_servers),
            "max_congestion": self.max_congestion(),
            "total_messages": float(self.total_messages),
        }


@dataclass
class CongestionCounter(_CongestionStatsMixin):
    """Accumulates per-server message counts over a batch of lookups."""

    visits: Counter = field(default_factory=Counter)
    lookups: int = 0
    total_messages: int = 0

    def record(self, result: LookupResult) -> None:
        """Count one routed lookup: every server on the path handles it once."""
        self.lookups += 1
        for p in result.server_path:
            self.visits[p] += 1
        self.total_messages += result.hops

    def record_path(self, server_points: Sequence[float]) -> None:
        """Count a raw server path (used by baseline DHTs).

        Consecutive duplicates are compressed away first, exactly as
        :class:`~repro.core.lookup.LookupResult` does when it builds
        ``server_path`` — so for the same underlying route this books
        the same visits and the same ``hops == len(path) - 1`` messages
        as :meth:`record`, keeping baseline-DHT comparisons
        apples-to-apples.
        """
        path = compress_path(list(server_points))
        self.lookups += 1
        for p in path:
            self.visits[p] += 1
        self.total_messages += max(0, len(path) - 1)

    def max_load(self) -> int:
        """Largest number of lookups any single server participated in."""
        return max(self.visits.values(), default=0)

    def _visit_total(self) -> int:
        return sum(self.visits.values())


@dataclass
class BatchCongestion(_CongestionStatsMixin):
    """Vectorized per-server load accounting over CSR path batches.

    The batch counterpart of :class:`CongestionCounter`: feeding it a
    :class:`~repro.core.batch.BatchLookupResult` routed with
    ``keep_paths="csr"`` costs a blocked ``np.bincount`` over the
    flattened ``path_servers`` array, instead of one dict update per
    path server.
    Totals are kept as a sorted ``(points, counts)`` pair keyed by
    server id — not by snapshot index — so one accumulator can absorb
    batches routed on *different* snapshots of a churning network
    (:meth:`merge`) and still report the exact quantities the scalar
    class reports: ``summary()`` matches key-for-key and, for the same
    routed lookups, bit-for-bit (the E4/E5 cross-check).
    """

    lookups: int = 0
    total_messages: int = 0
    _points: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64), repr=False)
    _counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64), repr=False)

    def record_batch(self, result) -> None:
        """Account one routed batch (CSR paths required).

        ``result`` must carry CSR paths — route with
        ``keep_paths="csr"``, or ``keep_paths=True`` plus an implicit
        :meth:`~repro.core.batch.BatchLookupResult.to_csr` here.
        """
        servers, _offsets = result.to_csr()
        n = len(result.points)
        block = max(_BLOCK, n)
        counts = np.zeros(n, dtype=np.int64)
        for lo in range(0, servers.size, block):
            counts += np.bincount(servers[lo:lo + block], minlength=n)
        nz = counts > 0
        self._merge_sorted(
            np.asarray(result.points, dtype=np.float64)[nz], counts[nz])
        self.lookups += result.size
        self.total_messages += int(result.hops.sum())

    def merge(self, other: "BatchCongestion") -> None:
        """Fold another accumulator into this one."""
        self._merge_sorted(other._points, other._counts)
        self.lookups += other.lookups
        self.total_messages += other.total_messages

    def _merge_sorted(self, points: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts`` keyed by sorted, distinct ``points`` into the totals.

        Keys already held add their counts in place; only the new keys
        are inserted, at their sorted positions, so nothing is re-sorted.
        """
        if self._points.size == 0:
            self._points = points.copy()
            self._counts = counts.astype(np.int64)
            return
        if np.array_equal(points, self._points):
            # a batch that visited every server of the snapshot held
            self._counts += counts
            return
        pos = np.searchsorted(self._points, points)
        # a key above every held one clips onto the largest: unequal
        held = self._points.take(pos, mode="clip") == points
        self._counts[pos[held]] += counts[held]
        new = ~held
        self._points = np.insert(self._points, pos[new], points[new])
        self._counts = np.insert(self._counts, pos[new], counts[new])

    # ---- same read API / summary schema as the scalar counter ----
    def max_load(self) -> int:
        """Largest number of lookups any single server participated in."""
        return int(self._counts.max()) if self._counts.size else 0

    def _visit_total(self) -> int:
        return int(self._counts.sum())

