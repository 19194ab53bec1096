"""The Bucket Solution for smoothness under deletions (paper §4.1).

Joins alone can be balanced by Multiple Choice, but deletions break it:
deleting each of ``2n`` smooth points with probability ½ leaves, w.h.p.,
``Ω(log n)`` consecutive gaps — a segment of length ``Ω(log n / n)``.
The paper's remedy (following Viceroy) groups ``Θ(log n)`` consecutive
servers into *buckets* that split/merge to stay logarithmic in size and
internally re-spread their ids when their local decomposition degrades.

:class:`BucketBalancer` maintains the bucket structure over a
:class:`~repro.core.segments.SegmentMap` and reports the *cost* of every
operation (how many servers changed id), so experiment E11 can verify
both the smoothness guarantee and the paper's remark that "it makes more
sense to rearrange only when the smoothness within the bucket exceeds
some tunable parameter".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..core.interval import normalize
from ..core.segments import SegmentMap

__all__ = ["BucketBalancer", "Bucket"]


@dataclass
class Bucket:
    """A contiguous chain of servers; ``points`` kept in ring order.

    The bucket's *territory* runs from its first point (inclusive) to the
    next bucket's first point (exclusive).
    """

    points: List[float] = field(default_factory=list)

    def size(self) -> int:
        return len(self.points)


class BucketBalancer:
    """Maintains smooth ids under joins *and* leaves via bucket coordination.

    Parameters mirror §4.1: bucket sizes are kept within
    ``[lo_factor·log2 n, hi_factor·log2 n]`` = ``[½ log2 n, 4 log2 n]``;
    a bucket whose internal smoothness (max/min gap within its
    territory) exceeds ``rebalance_threshold`` re-spreads its members
    evenly — each such rearrangement costs one id change per member,
    which the balancer records in ``total_id_changes``.
    """

    #: Bucket-size bounds as multiples of ``log2 n``.
    lo_factor = 0.5
    hi_factor = 4.0

    def __init__(self, rebalance_threshold: float = 4.0) -> None:
        if rebalance_threshold < 1:
            raise ValueError("rebalance threshold must be >= 1")
        self.segments = SegmentMap()
        self.buckets: List[Bucket] = []
        self.rebalance_threshold = rebalance_threshold
        self.total_id_changes = 0
        self.rebalances = 0
        # Rebalancing relocates servers, so clients address them by a
        # stable handle; the balancer tracks each handle's current id.
        self._next_handle = 0
        self._location: dict[int, float] = {}
        self._handle_at: dict[float, int] = {}

    # ------------------------------------------------------------- internals
    @property
    def n(self) -> int:
        return len(self.segments)

    def _log_n(self) -> float:
        return max(1.0, math.log2(max(2, self.n)))

    def _bucket_index_covering(self, z: float) -> int:
        """Bucket whose territory contains ``z``.

        The bucket list is a *rotation* of sorted ring order, so the
        territory test must wrap: z ∈ [start_i, start_{i+1}) mod 1.
        """
        if not self.buckets:
            raise LookupError("no buckets")
        if len(self.buckets) == 1:
            return 0
        for i in range(len(self.buckets)):
            start = self.buckets[i].points[0]
            nxt = self.buckets[(i + 1) % len(self.buckets)].points[0]
            if start <= nxt:
                if start <= z < nxt:
                    return i
            else:  # territory wraps through the seam
                if z >= start or z < nxt:
                    return i
        # z coincides with no half-open territory only through float quirks;
        # fall back to the bucket with the largest start <= z.
        best = max(range(len(self.buckets)), key=lambda i: self.buckets[i].points[0])
        return best

    def _territory(self, i: int) -> tuple[float, float]:
        """(start, end) of bucket ``i``'s territory; end may wrap past 1."""
        start = self.buckets[i].points[0]
        nxt = self.buckets[(i + 1) % len(self.buckets)].points[0]
        end = nxt if nxt > start or len(self.buckets) == 1 else nxt + 1.0
        if len(self.buckets) == 1:
            end = start + 1.0
        return start, end

    def _local_smoothness(self, i: int) -> float:
        start, end = self._territory(i)
        pts = sorted(p if p >= start else p + 1.0 for p in self.buckets[i].points)
        bounds = pts + [end]
        gaps = [b - a for a, b in zip(bounds, bounds[1:])]
        gaps.insert(0, pts[0] - start)  # zero when first point anchors the bucket
        gaps = [g for g in gaps if g > 0]
        if not gaps:
            return 1.0
        return max(gaps) / min(gaps)

    def _respread(self, i: int) -> None:
        """Evenly re-space bucket ``i``'s members over its territory."""
        bucket = self.buckets[i]
        start, end = self._territory(i)
        k = bucket.size()
        width = (end - start) / k
        new_points = [normalize(start + j * width) for j in range(k)]
        handles = [self._handle_at.pop(p) for p in bucket.points]
        for p in bucket.points:
            self.segments.remove(p)
        placed: List[float] = []
        for p in new_points:
            q = p
            while q in self.segments:  # avoid collisions with other buckets
                q = normalize(q + width * 1e-6)
            self.segments.insert(q)
            placed.append(q)
        bucket.points = placed
        for h, q in zip(handles, placed):
            self._handle_at[q] = h
            self._location[h] = q
        self.total_id_changes += k
        self.rebalances += 1

    def _maybe_rebalance(self, i: int) -> None:
        if self.buckets[i].size() >= 2 and (
            self._local_smoothness(i) > self.rebalance_threshold
        ):
            self._respread(i)

    def _split_if_needed(self, i: int) -> None:
        hi = self.hi_factor * self._log_n()
        b = self.buckets[i]
        if b.size() > hi:
            mid = b.size() // 2
            start = b.points[0]
            # Sort by ring position but keep the original float values:
            # round-tripping through ±1.0 would perturb points near 0.
            ordered = sorted(b.points, key=lambda p: p if p >= start else p + 1.0)
            b.points = ordered[:mid]
            self.buckets.insert(i + 1, Bucket(ordered[mid:]))

    def _merge_if_needed(self, i: int) -> None:
        lo = self.lo_factor * self._log_n()
        if len(self.buckets) <= 1:
            return
        b = self.buckets[i]
        if b.size() < lo:
            j = (i + 1) % len(self.buckets)
            if j == i:
                return
            other = self.buckets[j]
            # merge into ring order: i's territory precedes j's, so the
            # merged bucket keeps i's first point as its territory anchor.
            merged = Bucket(b.points + other.points)
            if j > i:
                self.buckets[i] = merged
                del self.buckets[j]
            else:  # i is last, j == 0: merged bucket stays last in the rotation
                self.buckets[i] = merged
                del self.buckets[0]
                i -= 1
            self._split_if_needed(i)

    # ------------------------------------------------------------ operations
    def join(self, rng: np.random.Generator) -> int:
        """Insert a server with a Single Choice id; bucket machinery rebalances.

        Returns a stable *handle* for the newcomer (its id point may later
        move when its bucket rebalances; use :meth:`location`).
        """
        z = float(rng.random())
        while z in self.segments:
            z = float(rng.random())
        handle = self._next_handle
        self._next_handle += 1
        if not self.buckets:
            self.segments.insert(z)
            self.buckets.append(Bucket([z]))
            self._handle_at[z] = handle
            self._location[handle] = z
            return handle
        i = self._bucket_index_covering(z)
        self.segments.insert(z)
        self._handle_at[z] = handle
        self._location[handle] = z
        start, _ = self._territory(i)
        b = self.buckets[i]
        b.points.append(z)
        b.points.sort(key=lambda p: p if p >= start else p + 1.0)
        self._split_if_needed(i)
        i = self._bucket_index_covering(self._location[handle])
        self._maybe_rebalance(i)
        return handle

    def location(self, handle: int) -> float:
        """Current id point of a server handle."""
        return self._location[handle]

    def leave(self, handle: int, rng: np.random.Generator) -> None:
        """Remove a server by handle; merge/rebalance to preserve smoothness."""
        if handle not in self._location:
            raise KeyError(f"unknown server handle {handle!r}")
        point = self._location.pop(handle)
        del self._handle_at[point]
        for i, b in enumerate(self.buckets):
            if point in b.points:
                b.points.remove(point)
                self.segments.remove(point)
                if b.size() == 0:
                    del self.buckets[i]
                    return
                self._merge_if_needed(i)
                i = min(i, len(self.buckets) - 1)
                self._maybe_rebalance(i)
                return
        raise AssertionError(
            f"point {point!r} tracked by handle {handle} but not in any bucket"
        )  # pragma: no cover

    # ------------------------------------------------------------- analytics
    def smoothness(self) -> float:
        """``ρ`` of the balancer's decomposition (Definition 1)."""
        return self.segments.smoothness()

    def check_invariants(self) -> None:
        """Buckets partition the point set and stay in ring order."""
        all_pts = sorted(p for b in self.buckets for p in b.points)
        assert all_pts == list(self.segments.points), "bucket/segment mismatch"
        assert sorted(self._handle_at) == all_pts, "handle map out of sync"
        assert sorted(self._location.values()) == all_pts, "location map out of sync"
        starts = [b.points[0] for b in self.buckets]
        if len(starts) > 1:
            rotation = starts.index(min(starts))
            rotated = starts[rotation:] + starts[:rotation]
            assert rotated == sorted(starts), "buckets out of ring order"
