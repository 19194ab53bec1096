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
* :class:`BatchCongestion` — the vectorized spine: one ``np.bincount``
  over the flattened CSR ``path_servers`` of a
  :class:`~repro.core.batch.BatchLookupResult` per batch.  Accumulators
  merge across batches (even batches routed on different snapshots of a
  churning network) and across scalar counters, so experiments E4/E5 and
  any message-accounting caller can mix both engines and still compare
  ``max_load`` / ``mean_load`` / ``max_congestion`` bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

import numpy as np

from .lookup import LookupResult, compress_path

__all__ = ["CongestionCounter", "BatchCongestion"]


def _lookup_sorted(keys: np.ndarray, vals: np.ndarray,
                   queries: np.ndarray) -> np.ndarray:
    """``vals`` at each query's position in sorted ``keys`` (0 on miss)."""
    out = np.zeros(queries.shape, dtype=vals.dtype if vals.size else float)
    if keys.size == 0:
        return out
    pos = np.searchsorted(keys, queries)
    pos_c = np.minimum(pos, keys.size - 1)
    hit = (pos < keys.size) & (keys[pos_c] == queries)
    out[hit] = vals[pos_c[hit]]
    return out


def _counter_arrays(visits: Counter) -> tuple:
    """Sorted unique ``(points, counts)`` arrays of a visits Counter.

    Exact (``Fraction``) server ids are cast to float64 — lossless for
    the dyadic ids the library constructs, and the only way the scalar
    and vectorized backends can share one key space.  Distinct exact ids
    that collide after the cast have their counts summed, so no visit is
    dropped from the shared key space.
    """
    keys = np.fromiter((float(k) for k in visits), dtype=np.float64,
                       count=len(visits))
    vals = np.fromiter(visits.values(), dtype=np.int64, count=len(visits))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    if first.all():
        return keys, vals
    return keys[first], np.add.reduceat(vals, np.flatnonzero(first))


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

    def load_of(self, point: float) -> int:
        """Lookups server ``point`` handled, keyed as recorded (0 if none)."""
        return self.visits.get(point, 0)

    def loads(self, all_points: Iterable[float]) -> np.ndarray:
        """Load vector over a given universe of servers (zeros included).

        One ``np.searchsorted`` over the sorted visited points instead
        of a per-point dict probe; ids are matched as float64 (exact for
        the library's dyadic ``Fraction`` ids).
        """
        queries = np.asarray(
            all_points if isinstance(all_points, np.ndarray)
            else [float(p) for p in all_points],
            dtype=np.float64,
        )
        if not self.visits:
            return np.zeros(queries.size)
        keys, vals = _counter_arrays(self.visits)
        return _lookup_sorted(keys, vals.astype(float), queries.ravel())

    def _visit_total(self) -> int:
        return sum(self.visits.values())


@dataclass
class BatchCongestion(_CongestionStatsMixin):
    """Vectorized per-server load accounting over CSR path batches.

    The batch counterpart of :class:`CongestionCounter`: feeding it a
    :class:`~repro.core.batch.BatchLookupResult` routed with
    ``keep_paths="csr"`` costs one ``np.bincount`` over the flattened
    ``path_servers`` array, instead of one dict update per path server.
    Totals are kept as a sorted ``(points, counts)`` pair keyed by
    server id — not by snapshot index — so one accumulator can absorb
    batches routed on *different* snapshots of a churning network
    (:meth:`merge`), fold in scalar counters (:meth:`merge_counter`),
    and still report the exact quantities the scalar class reports:
    ``summary()`` matches key-for-key and, for the same routed lookups,
    bit-for-bit (the E4/E5 cross-check).
    """

    lookups: int = 0
    total_messages: int = 0
    _points: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64), repr=False)
    _counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64), repr=False)

    @property
    def visited_points(self) -> np.ndarray:
        """Sorted ids of the servers that handled at least one message."""
        return self._points

    def record_batch(self, result) -> None:
        """Account one routed batch (CSR paths required).

        ``result`` must carry CSR paths — route with
        ``keep_paths="csr"``, or ``keep_paths=True`` plus an implicit
        :meth:`~repro.core.batch.BatchLookupResult.to_csr` here.
        """
        servers, _offsets = result.to_csr()
        counts = np.bincount(servers, minlength=len(result.points))
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

    def merge_counter(self, counter: CongestionCounter) -> None:
        """Fold a scalar :class:`CongestionCounter` into this one."""
        if counter.visits:
            keys, vals = _counter_arrays(counter.visits)
            self._merge_sorted(keys, vals)
        self.lookups += counter.lookups
        self.total_messages += counter.total_messages

    def to_counter(self) -> CongestionCounter:
        """Scalar view of the totals (for ``Counter``-based consumers)."""
        c = CongestionCounter(lookups=self.lookups,
                              total_messages=self.total_messages)
        c.visits.update(dict(zip(self._points.tolist(),
                                 self._counts.tolist())))
        return c

    def _merge_sorted(self, points: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts`` keyed by sorted ``points`` into the totals."""
        if points.size == 0:
            return
        if self._points.size == 0:
            self._points = points.copy()
            self._counts = counts.astype(np.int64)
            return
        if np.array_equal(points, self._points):
            # same visited set — a batch routed on the snapshot already
            # held: the keys stay, the counts add in place
            self._counts += counts
            return
        allp = np.concatenate([self._points, points])
        allc = np.concatenate([self._counts, counts])
        order = np.argsort(allp, kind="stable")
        p = allp[order]
        c = allc[order]
        first = np.ones(p.size, dtype=bool)
        first[1:] = p[1:] != p[:-1]
        self._points = p[first]
        self._counts = np.add.reduceat(c, np.flatnonzero(first))

    # ---- same read API / summary schema as the scalar counter ----
    def max_load(self) -> int:
        """Largest number of lookups any single server participated in."""
        return int(self._counts.max()) if self._counts.size else 0

    def load_of(self, point: float) -> int:
        """Lookups server ``point`` handled, matched as float64 (0 if none)."""
        return int(_lookup_sorted(self._points, self._counts,
                                  np.asarray([float(point)]))[0])

    def loads(self, all_points: Iterable[float]) -> np.ndarray:
        """Load vector over a given universe of servers (zeros included)."""
        queries = np.asarray(
            all_points if isinstance(all_points, np.ndarray)
            else [float(p) for p in all_points],
            dtype=np.float64,
        )
        return _lookup_sorted(self._points, self._counts.astype(float),
                              queries.ravel())

    def _visit_total(self) -> int:
        return int(self._counts.sum())

