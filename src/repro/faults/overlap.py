"""The Overlapping Distance Halving DHT (paper §6.2).

Same continuous graph as §2, different discretization: server ``V_i``
covers the *overlapping* segment ``[x_i, y_i]`` where ``y_i`` is chosen
so the segment contains ``α_i ≈ log n`` other id points — ``α_i`` comes
from the predecessor-gap estimator (Lemma 6.2), so every server sizes
its segment from purely local information.

Consequences (verified by the tests / experiment E13):

* every point of ``I`` is covered by ``Θ(log n)`` servers, so every data
  item lives in ``Θ(log n)`` replicas (the replica group is a clique —
  the erasure-coding hook the paper mentions);
* degree ``Θ(log n)`` — the §6 intro argues a logarithmic degree is
  *necessary* for resilience against constant-probability faults;
* the canonical continuous path of any lookup can be emulated through
  *any* alive covers of its points, which is what the two §6.3 lookup
  algorithms exploit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import checks
from ..core.continuous import ContinuousGraph
from ..core.interval import normalize
from ..core.segments import CoverIndex, normalize_array
from ..hashing.kwise import Key, PointHasher

__all__ = ["OverlappingDHNetwork", "COVER_NEVER", "COVER_DEFINITE",
           "COVER_BOUNDARY"]

#: Entries of :attr:`OverlappingDHNetwork.cover_class` — does the ``k``-th
#: ring predecessor of cell ``i`` cover the cell's points: none of them,
#: all of them, or only those the float segment test accepts.
COVER_NEVER, COVER_DEFINITE, COVER_BOUNDARY = 0, 1, 2


class OverlappingDHNetwork:
    """Static overlapping-segment Distance Halving network.

    Besides the scalar dict-based API, the constructor freezes the
    decomposition into **array-backed cover tables** (sorted id points,
    per-server overlap length ``α_i``, segment length and midpoint, and
    the per-cell :attr:`cover_class` table) so the batch fault-tolerance
    engine (:mod:`repro.faults.batch_ft`) can answer "all covers of each
    of these B points" with one cover-index read plus one
    ``(max α, B)`` gather of the cell's classes — no per-point scan, and
    the float segment test only where the cell alone cannot decide it.
    Membership never changes after construction, so the tables are
    built once and never go stale.
    """

    def __init__(
        self,
        n: int,
        rng: np.random.Generator,
        coverage_factor: float = 1.0,
    ):
        n = checks.count(n, "n", 8)
        self.coverage_factor = float(
            checks.real(coverage_factor, "coverage_factor", "(0, inf)"))
        self.graph = ContinuousGraph(2)
        self.points: List[float] = sorted(float(p) for p in rng.random(n))
        self.item_hash = PointHasher(rng)
        # α_i: local log-n estimate from the predecessor gap (§6.2), scaled
        self.alpha: Dict[float, int] = {}
        self.end: Dict[float, float] = {}
        for i, x in enumerate(self.points):
            gap = (x - self.points[i - 1]) % 1.0
            est = max(1, round(math.log2(1.0 / gap))) if gap > 0 else 1
            a = max(2, int(round(self.coverage_factor * est)))
            a = min(a, n - 2)
            self.alpha[x] = a
            self.end[x] = self.points[(i + a) % n]
        self.store: Dict[Key, Set[float]] = {}
        self._build_tables()

    def _build_tables(self) -> None:
        """Freeze the array-backed cover tables from the scalar dicts."""
        n = len(self.points)
        #: sorted id points, aligned with every per-server array below
        self.points_array = np.asarray(self.points, dtype=np.float64)
        #: bucket-grid cover index derived from the point column
        self.cover_index = CoverIndex(self.points_array)
        #: overlap parameter α_i per server (how many successors it covers)
        self.alpha_array = np.array(
            [self.alpha[x] for x in self.points], dtype=np.int64)
        #: closed-segment length (end_i - x_i) mod 1, same float ops as
        #: ``covers_point`` so the vectorized test cannot drift from it
        self.seg_len_array = np.mod(
            np.array([self.end[x] for x in self.points], dtype=np.float64)
            - self.points_array, 1.0)
        #: §6.3 canonical-path start z_i = segment midpoint, precomputed
        #: with the exact float ops of ``canonical_path``
        self.mid_array = np.mod(
            self.points_array + self.seg_len_array / 2.0, 1.0)
        #: how many ring predecessors a cover scan must visit (max α + 2,
        #: the same back-window the scalar ``covers`` walks)
        self.max_back = int(min(n, self.alpha_array.max() + 2))
        self._classify_cells()

    def _classify_cells(self) -> None:
        """Decide the segment test per ``(k, cell)`` wherever the cell can.

        Row ``k`` of :attr:`cover_class` is about server ``j = (i − k)
        mod n`` and the points of cell ``i`` (``[x_i, x_{i+1})``; the
        last cell runs through the seam to ``x_0``).  Along the ring
        from ``x_j`` the test's left side ``f_j(y) = np.mod(y − x_j,
        1.0)`` never decreases — the subtraction and the negative
        branch's ``+ 1.0`` both round monotonically — and its right side
        ``seg_len_j`` *is* ``f_j(end_j)``.  So ``k < α_j`` (the cell ends
        at or before ``end_j``) passes every point of the cell, and
        ``f_j(x_i) > seg_len_j`` fails every point from the cell's first
        on.  What is left are the servers whose segment ends at ``x_i``
        or float-ties with it (one per cell on average);
        :meth:`cover_table` runs the float test on those alone.
        """
        pts, n = self.points_array, self.n
        #: ``(max_back, n)`` uint8 of ``COVER_NEVER`` / ``COVER_DEFINITE`` /
        #: ``COVER_BOUNDARY``; built one row at a time, O(n) temporaries
        self.cover_class = np.empty((self.max_back, n), dtype=np.uint8)
        for k in range(self.max_back):
            # np.roll(col, k)[i] == col[(i - k) % n]: the columns of server j
            beyond = (np.mod(pts - np.roll(pts, k), 1.0)
                      > np.roll(self.seg_len_array, k))
            row = np.where(beyond, COVER_NEVER, COVER_BOUNDARY)
            row[k < np.roll(self.alpha_array, k)] = COVER_DEFINITE
            self.cover_class[k] = row

    # ------------------------------------------------------------- geometry
    @property
    def n(self) -> int:
        return len(self.points)

    def segment_of(self, x: float) -> Tuple[float, float]:
        """The closed overlapping segment ``[x_i, y_i]`` (may wrap)."""
        return (x, self.end[x])

    def covers_point(self, x: float, y: float) -> bool:
        """Does server ``x`` cover point ``y``? (closed segment, cyclic)."""
        a, b = x, self.end[x]
        return (checks.finite(y, "y") - a) % 1.0 <= (b - a) % 1.0

    def covers(self, y: float, alive: Optional[Set[float]] = None) -> List[float]:
        """All servers covering ``y`` (optionally restricted to alive ones).

        A cover's start point is one of the ~``max α`` predecessors of
        ``y``, so the scan is logarithmic.
        """
        y = normalize(float(checks.finite(y, "y")))
        n = self.n
        i = bisect_right(self.points, y) - 1
        out = []
        for k in range(self.max_back):
            x = self.points[(i - k) % n]
            if self.covers_point(x, y):
                if alive is None or x in alive:
                    out.append(x)
        return out

    def cover_table(self, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized cover query for a whole batch of points.

        Returns ``(cand, mask)``: ``cand`` is a ``(max_back, B)`` int64
        matrix of candidate server indices — row ``k`` holds the ``k``-th
        ring predecessor of each query point, the exact scan order of the
        scalar :meth:`covers` — and ``mask`` flags the candidates that
        really cover their point (closed cyclic segment test, same float
        ops as :meth:`covers_point`).  The mask is the cell's column of
        :attr:`cover_class`; only its boundary entries run the float
        test.  ``ys`` must already lie in ``[0, 1)``; use
        :func:`~repro.core.segments.normalize_array` first for raw ring
        points.
        """
        ys = np.asarray(ys, dtype=np.float64)
        i = self.cover_index.cover(ys)
        cand = i[None, :] - np.arange(self.max_back, dtype=np.int64)[:, None]
        seam = np.flatnonzero(i < self.max_back - 1)
        cand[:, seam] %= self.n
        mask = np.take(self.cover_class, i, axis=1)
        cls = mask.reshape(-1)
        flat = np.flatnonzero(cls == COVER_BOUNDARY)
        srv = cand.reshape(-1)[flat]
        cls[flat] = (
            np.mod(ys[flat % ys.size] - self.points_array[srv], 1.0)
            <= self.seg_len_array[srv])
        # every entry is now COVER_NEVER (0) or COVER_DEFINITE (1)
        return cand, mask.view(np.bool_)

    def coverage_counts(self, probes: np.ndarray) -> np.ndarray:
        """Number of covers of each probe point (Θ(log n) whp)."""
        _cand, mask = self.cover_table(normalize_array(probes))
        return mask.sum(axis=0)

    # ------------------------------------------------------------- topology

    # ------------------------------------------------------------ data items
    def store_item(self, key: Key, value) -> List[float]:
        """Replicate an item to every server covering its hash point."""
        pos = self.item_hash(key)
        owners = self.covers(pos)
        self.store[key] = set(owners)
        return owners

    def replica_group(self, key: Key) -> List[float]:
        """Servers holding the item — pairwise connected (a clique, §6.2)."""
        return self.covers(self.item_hash(key))
