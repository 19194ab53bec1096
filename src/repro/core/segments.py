"""Dynamic decomposition of ``[0, 1)`` into server segments (paper §2.1).

``n`` distinct points ``x_0 < x_1 < … < x_{n-1}`` divide the ring into
``n`` half-open segments; server ``V_i`` is *associated* with
``s(x_i) = [x_i, x_{i+1})`` and the last server owns the wrapping segment
``[x_{n-1}, 1) ∪ [0, x_0)``.  A point ``y ∈ s(x_i)`` is *covered* by
``V_i``.

:class:`SegmentMap` maintains this decomposition under joins (point
insertions split a segment) and leaves (removals merge a segment into its
ring predecessor), and answers the queries every protocol in the paper
needs:

* ``cover(y)``          — which segment covers a point (binary search;
  the batch layers answer the same query through :class:`CoverIndex`,
  a uniform bucket grid that is exact and O(ρ) per point);
* ``covering(arc)``     — all segments intersecting an arc (used to build
  the discrete graph's edges from continuous edges);
* ``smoothness()``      — ``ρ(x) = max_i |s(x_i)| / min_j |s(x_j)|``
  (Definition 1), the parameter controlling degree, path length and
  congestion throughout the paper.

The map keeps its ids twice, in lockstep.  A sorted Python list is the
source of truth: scalar queries ``bisect`` it, and it holds every id in
its own numeric type, exact :class:`~fractions.Fraction` ids included.
Beside it lives one float64 mirror of the same ids — a growable buffer
(capacity doubling) that ``insert`` / ``remove`` edit with one in-place
slice shift — read through :attr:`SegmentMap.column`.  Everything that
wants numbers reads that column instead of walking the list: the bulk
analytics (``lengths``, ``smoothness``, ``cover_array``), the §4 id
strategies' probes, and the batch router's compile and refresh.  Profiled
at n = 2^14, the per-element walks the column replaced were over half of
a soak day (``docs/perf-log/PR17.md``); :meth:`SegmentMap.check_invariants`
ties the column back to the list on every audit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import eq, lt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .. import checks
from .interval import Arc, Number, normalize

__all__ = ["CoverIndex", "SegmentMap", "arc_cover_ranges", "cover_grid",
           "cover_indices", "fold_unit", "normalize_array"]

#: Linear advances a :class:`CoverIndex` query makes past the grid's
#: answer before the lanes still moving finish with a binary search.  On
#: smooth ids (Definition 1: every segment ≥ 1/(ρn)) a bucket of width
#: ≤ 1/(2n) holds O(ρ) id points and no lane gets this far; clustered
#: ids do, and stay O(log n).
_ADVANCE_CAP = 8

#: The one refusal of every batch-side entry point — a router's compile
#: and refresh, a §4 strategy's ``grow`` and ``MultipleChoice.select`` —
#: on a map that holds an exact id.  Exact ids stay on the scalar side.
FLOAT_IDS_ONLY = (
    "the batch side takes float ids only, and this network holds an exact "
    "(Fraction) id: build the network on float ids; a dyadic id i/2^r "
    "converts exactly, e.g. net.join(i / n) for n a power of two")


def fold_unit(x: np.ndarray) -> np.ndarray:
    """In-place ``1.0 → 0.0`` fold on an array of ring points.

    Float rounding can land a value that is < 1 in exact arithmetic on
    exactly 1.0; :func:`repro.core.interval.normalize` folds that case,
    and every vectorised path must apply the same fold to stay
    bit-identical with the scalar engine.
    """
    x[x == 1.0] = 0.0
    return x


def normalize_array(ys) -> np.ndarray:
    """Vectorised :func:`repro.core.interval.normalize` (float64, 1-d).

    Always returns a fresh array (``np.mod`` copies), so in-place edits
    by callers never alias the input.
    """
    return fold_unit(np.atleast_1d(np.mod(np.asarray(ys, dtype=np.float64), 1.0)))


def cover_indices(points: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorised cover query over a sorted point vector.

    ``ys`` must already lie in ``[0, 1)``.  Matches :meth:`SegmentMap.cover`
    exactly: greatest ``x_i <= y``, wrapping below ``x_0`` to the last
    server.  This is the binary-search *oracle*: it backs
    :meth:`SegmentMap.cover_array`, and :class:`CoverIndex` (what the
    batch engines query) must agree with it bit-for-bit on every input.
    """
    idx = np.searchsorted(points, ys, side="right") - 1
    idx[idx < 0] = len(points) - 1
    return idx


def cover_grid(points: np.ndarray, size: int) -> np.ndarray:
    """``grid[b] = #{x_i <= b/size} - 1`` for ``b`` in ``[0, size)``.

    ``size`` must be a power of two, so every bucket edge ``b/size`` is
    an exact float64.  Entry ``b`` is the cover of the bucket's left
    edge, ``-1`` where the edge lies below ``x_0``.
    """
    edges = np.arange(size) / size
    return (np.searchsorted(points, edges, side="right") - 1).astype(np.int32)


def _grid_size(n: int) -> int:
    """A :class:`CoverIndex` resolution: the least power of two ≥ 2n."""
    return 1 << max(1, (2 * n - 1).bit_length())


def arc_cover_ranges(points: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray) -> tuple:
    """Vectorised :meth:`SegmentMap.covering` as contiguous index ranges.

    ``points`` is a sorted float64 column of ``n >= 2`` ids; arc ``k`` is
    ``[starts[k], ends[k])`` with both ends already normalised, read like
    :class:`~repro.core.interval.Arc` reads them (``start == end`` is the
    full ring, ``start > end`` wraps through the seam).  Returns
    ``(first, count)``: the segments meeting arc ``k`` are
    ``(first[k] + j) % n`` for ``j < count[k]``, ``first`` the cover of
    the arc's left end.  One modular range per arc — the same
    comparisons ``covering`` makes with ``bisect``, so the index sets are
    equal on every input: a wrapping arc's piece ``[start, 1)`` ends at
    index ``n - 1`` and its piece ``[0, end)`` starts there or at 0, so
    the two run on as one range.
    """
    n = len(points)
    wraps = starts > ends
    # {cover(start)} ∪ {i : start < x_i < end}; cover(start) = lo - 1,
    # wrapping to the last server below x_0
    lo = np.searchsorted(points, starts, side="right")
    count = np.searchsorted(points, np.where(wraps, 1.0, ends),
                            side="left") - lo + 1
    tail = np.flatnonzero(wraps & (ends > 0.0))  # second piece [0, end)
    count[tail] += np.searchsorted(points, ends[tail], side="left")
    count[starts == ends] = n
    return (lo - 1) % n, np.minimum(count, n)


class CoverIndex:
    """O(1) cover queries over a sorted point column (a bucket grid).

    The unit ring is cut into ``G`` equal buckets, ``G`` the smallest
    power of two ≥ 2n, and :attr:`grid` stores the cover of each
    bucket's left edge (:func:`cover_grid`).  A query ``y`` reads
    ``grid[⌊y·G⌋]`` — exact, because ``G`` is a power of two and
    ``y < 1``, so ``y·G`` only shifts the exponent — which can only
    undershoot the true cover by the id points inside ``[b/G, y]``, and
    steps right while the next point is still ``<= y``.  Definition 1's
    smoothness ρ bounds every segment below by 1/(ρn), so a bucket holds
    O(ρ) points (a constant under §4's Multiple-Choice ids) and the walk
    is O(1); on clustered ids the walk is capped and the lanes still
    moving finish with one ``searchsorted`` over just those lanes.

    Results equal :func:`cover_indices` bit-for-bit on *every* point
    set: the grid only chooses where the comparison against the points
    starts, never its outcome.  :attr:`ext` is the point column with a
    trailing ``+inf`` so "the next point" needs no bound check.
    """

    def __init__(self, points: np.ndarray) -> None:
        # a copy of exactly n + 1 rows: the index never aliases ``points``
        self.ext = np.append(points, np.inf)
        self.grid = cover_grid(points, _grid_size(len(points)))

    def follow(self, ext: np.ndarray, ids: np.ndarray,
               steps: np.ndarray) -> None:
        """Adopt ``ext``, the column after joins and leaves plus ``+inf``.

        ``ext`` is taken as is, not copied: the caller owns its buffer
        (the router edits one in place and passes a view of it).
        ``ids[k]`` is an id joined (``steps[k] == 1``) or left
        (``steps[k] == -1``) since the indexed state, the float64 stored
        in the column.  Each op shifts the buckets whose left edge is at
        or past its id; between two consecutive such edges the shifts of
        a whole refresh sum to one constant, so the grid is passed over
        once — one slice add per stretch, or, past ``G / 1024`` ops, one
        add of the stretches' shifts repeated out to the grid's length —
        however many ops are pending.  The resolution is re-chosen (a
        fresh grid) only when n has left ``[G/8, G/2]``.
        """
        self.ext = ext
        n, size = len(ext) - 1, len(self.grid)
        if not size // 8 <= n <= size // 2:
            self.grid = cover_grid(ext[:-1], _grid_size(n))
            return
        if len(ids) << 10 > size:
            edges = np.ceil(ids * size).astype(np.intp)
            order = edges.argsort(kind="stable")
            stretch = np.diff(edges[order], prepend=0, append=size)
            shifts = np.cumsum(steps[order]).astype(np.int32)
            self.grid += np.repeat(np.append(np.int32(0), shifts), stretch)
            return
        edges = sorted((math.ceil(p * size), step)
                       for p, step in zip(ids.tolist(), steps.tolist()))
        shift = 0
        for (lo, step), (hi, _) in zip(edges, edges[1:] + [(size, 0)]):
            shift += step
            if shift:
                self.grid[lo:hi] += shift

    def cover(self, ys: np.ndarray) -> np.ndarray:
        """:func:`cover_indices` of ``ys`` (already in ``[0, 1)``)."""
        ext = self.ext
        idx = self.grid[(ys * len(self.grid)).astype(np.intp)].astype(np.intp)
        lanes = np.flatnonzero(ext[idx + 1] <= ys)
        steps = 0
        while lanes.size:
            if steps == _ADVANCE_CAP:
                idx[lanes] = cover_indices(ext[:-1], ys[lanes])
                break
            idx[lanes] += 1
            lanes = lanes[ext[idx[lanes] + 1] <= ys[lanes]]
            steps += 1
        idx[idx < 0] = len(ext) - 2
        return idx

    def audit(self, points: np.ndarray) -> str:
        """The grid's consistency with ``points``, as a one-line report."""
        n, size = len(points), len(self.grid)
        fresh = cover_grid(points, size)
        return (
            f"cover grid len={size} for n={n} "
            f"(n in [G/8, G/2]: {size // 8 <= n <= size // 2}), "
            f"grid[-1]={int(self.grid[-1])} (fresh: {int(fresh[-1])}), "
            f"monotone={bool((np.diff(self.grid) >= 0).all())}, "
            f"{int((self.grid != fresh).sum())} buckets differ from a fresh "
            f"grid, ext follows points: "
            f"{np.array_equal(self.ext[:-1], points)}"
        )


class SegmentMap:
    """Sorted set of points decomposing the unit ring into segments."""

    def __init__(self, points: Iterable[Number] = ()) -> None:
        pts = sorted(normalize(p) for p in points)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"duplicate point {a!r}")
        self._points: list[Number] = pts
        # the float64 mirror of ``_points``: ``_buf[:n]`` is the column,
        # the rest spare capacity; ``_exact`` counts the non-float ids
        self._buf = np.empty(max(16, len(pts)), dtype=np.float64)
        self._buf[:len(pts)] = [float(p) for p in pts]
        self._exact = sum(not isinstance(p, float) for p in pts)

    def __getstate__(self) -> dict:
        """Pickle / deepcopy state: the buffer trimmed to the ids it holds."""
        state = self.__dict__.copy()
        state["_buf"] = self._buf[:len(self._points)].copy()
        return state

    # ------------------------------------------------------------- basic ops
    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Number]:
        return iter(self._points)

    def __contains__(self, point: Number) -> bool:
        p = normalize(point)
        i = bisect_left(self._points, p)
        return i < len(self._points) and self._points[i] == p

    @property
    def points(self) -> Sequence[Number]:
        """The sorted point vector ``x`` as a tuple — an O(n) copy per call.

        One id: :meth:`point_at`; all of them as float64: :attr:`column`.
        """
        return tuple(self._points)

    @property
    def column(self) -> np.ndarray:
        """The sorted ids as float64: a read-only view of the live mirror.

        O(1) — no copy.  Valid until the next :meth:`insert` or
        :meth:`remove`, which edit the buffer underneath in place; take
        :meth:`as_array` to keep the values.
        """
        view = self._buf[:len(self._points)]
        view.flags.writeable = False
        return view

    def as_array(self) -> np.ndarray:
        """Points as a fresh float64 array (one copy of :attr:`column`)."""
        return self.column.copy()

    def is_float(self) -> bool:
        """True when every id is a float, i.e. :attr:`column` is lossless.

        Exact (:class:`~fractions.Fraction`) ids decide edges and
        midpoints by exact comparisons a float column cannot replay, so
        the batch side refuses a map that holds one
        (:data:`FLOAT_IDS_ONLY`).
        """
        return self._exact == 0

    def cover_array(self, ys) -> np.ndarray:
        """Vectorised :meth:`cover`: one ``np.searchsorted`` for a batch.

        ``ys`` may be any array-like of points; values are normalised
        into ``[0, 1)`` first.  Returns an int array of segment indices
        equal element-wise to ``[self.cover(y) for y in ys]``.
        """
        if not self._points:
            raise LookupError("empty segment map covers nothing")
        return cover_indices(self.column, normalize_array(ys))

    def insert(self, point: Number) -> int:
        """Insert a new point (a server join); returns its index.

        Splits the segment that covered ``point`` exactly as step 3 of
        Algorithm Join: the new server takes ``[point, old_end)``.
        Duplicate points are rejected — two servers may not share an id,
        and so are NaN and ±inf, which have no place on the ring.
        """
        p = normalize(point)
        if p != p:  # NaN, which ±inf reduce to as well
            checks.finite(point, "point")
        pts = self._points
        n = len(pts)
        i = bisect_left(pts, p)
        if i < n and pts[i] == p:
            raise ValueError(f"point {p!r} already present")
        pts.insert(i, p)
        buf = self._buf
        if n == len(buf):
            self._buf = buf = np.concatenate([buf, np.empty(max(16, n))])
        buf[i + 1:n + 1] = buf[i:n]
        buf[i] = float(p)
        self._exact += not isinstance(p, float)
        return i

    def merge(self, ids: np.ndarray) -> list:
        """Insert the float ids ``ids`` in one step; returns them as stored.

        The list and its float64 mirror end as ``len(ids)`` :meth:`insert`
        calls leave them, after one sort and one buffer write.  Entry
        ``j`` of the result is the float object the list now holds for
        ``ids[j]``.  An id that is not finite, lies outside ``[0, 1)`` or
        is already present (here or earlier in ``ids``) raises
        ``ValueError`` before anything changes.
        """
        ids = checks.finite(np.asarray(ids, dtype=np.float64), "ids")
        outside = np.flatnonzero((ids < 0.0) | (ids >= 1.0))
        if outside.size:
            raise ValueError(f"id {float(ids[outside[0]])!r} lies outside [0, 1)")
        stored = (ids + 0.0).tolist()  # -0.0 + 0.0 is 0.0, as insert folds it
        pts = self._points + stored
        pts.sort()
        if any(map(eq, pts, pts[1:])):
            dup = next(a for a, b in zip(pts, pts[1:]) if a == b)
            raise ValueError(f"point {dup!r} already present")
        size = len(self._buf)
        while size < len(pts):  # the capacity the inserts' doubling reaches
            size += max(16, size)
        buf = np.empty(size)
        buf[:len(pts)] = pts
        self._points, self._buf = pts, buf
        return stored

    def remove(self, point: Number) -> int:
        """Remove a point (a server leave); returns its former index.

        The ring predecessor implicitly absorbs the vacated segment —
        the paper's simplest Leave rule (§2.1).  The returned index is
        what incremental router maintenance needs to patch its sorted
        arrays without a search.
        """
        i = self.index_of(point)
        n = len(self._points)
        self._exact -= not isinstance(self._points.pop(i), float)
        self._buf[i:n - 1] = self._buf[i + 1:n]
        return i

    # --------------------------------------------------------------- queries
    def point_at(self, i: int) -> Number:
        """The ``i``-th point in sorted order, ``-1`` the last (O(1), exact)."""
        n = len(self._points)
        return self._points[checks.count(i, "i", -n, n)]

    def index_of(self, point: Number) -> int:
        """Index of an existing point; raises ``KeyError`` if absent."""
        p = normalize(point)
        i = bisect_left(self._points, p)
        if i >= len(self._points) or self._points[i] != p:
            raise KeyError(f"point {p!r} not present")
        return i

    def cover(self, y: Number) -> int:
        """Index ``i`` of the segment ``s(x_i)`` covering point ``y``.

        The covering server is the one with the greatest ``x_i <= y``;
        points below ``x_0`` wrap to the last server's segment.
        """
        if not self._points:
            raise LookupError("empty segment map covers nothing")
        i = bisect_right(self._points, normalize(y)) - 1
        return i if i >= 0 else len(self._points) - 1

    def cover_point(self, y: Number) -> Number:
        """The point ``x_i`` of the server covering ``y``."""
        return self._points[self.cover(y)]

    def segment(self, i: int) -> Arc:
        """The arc ``s(x_i) = [x_i, x_{i+1 mod n})``."""
        n = len(self._points)
        if n == 0:
            raise LookupError("empty segment map has no segments")
        i = checks.count(i, "i", -n, n)
        if n == 1:
            return Arc(self._points[0], self._points[0])
        return Arc(self._points[i], self._points[(i + 1) % n])

    def segment_of(self, point: Number) -> Arc:
        """The segment owned by the server whose id point is ``point``."""
        return self.segment(self.index_of(point))

    def predecessor(self, point: Number) -> Number:
        """Ring predecessor of an existing point."""
        i = self.index_of(point)
        return self._points[(i - 1) % len(self._points)]

    def successor(self, point: Number) -> Number:
        """Ring successor of an existing point."""
        i = self.index_of(point)
        return self._points[(i + 1) % len(self._points)]

    def covering(self, arc: Arc) -> list[int]:
        """Indices of every segment intersecting ``arc`` (in ring order).

        This is the discretization query of §1.2: two cells are connected
        when they contain adjacent points of the continuous graph, so a
        server covering ``arc`` must link to every index returned here
        when ``arc`` is the image of its segment under an edge map.
        """
        n = len(self._points)
        if n == 0:
            raise LookupError("empty segment map covers nothing")
        if n == 1:
            return [0]
        seen: dict[int, None] = {}
        for a, b in arc.pieces():
            if b <= a:
                continue
            first = self.cover(a)
            seen.setdefault(first, None)
            # every point strictly inside (a, b) starts another intersecting segment
            lo = bisect_right(self._points, a)
            hi = bisect_left(self._points, b)
            for j in range(lo, hi):
                seen.setdefault(j, None)
        return list(seen.keys())

    def covering_points(self, arc: Arc) -> list[Number]:
        """Id points of the servers whose segments intersect ``arc``."""
        return [self._points[i] for i in self.covering(arc)]

    # ------------------------------------------------------------- analytics
    @staticmethod
    def lengths_from_array(pts: np.ndarray) -> np.ndarray:
        """Segment lengths of a frozen sorted point array (sums to 1).

        The IEEE-754 ops of :meth:`lengths` for any holder of a sorted
        column (:meth:`midpoints_from_array`, the router's compile).
        """
        if len(pts) == 0:
            return np.zeros(0)
        if len(pts) == 1:
            return np.ones(1)
        diffs = np.diff(pts)
        wrap = 1.0 - pts[-1] + pts[0]
        return np.append(diffs, wrap)

    @staticmethod
    def midpoints_from_array(pts: np.ndarray) -> np.ndarray:
        """Segment midpoints of a frozen sorted float64 point array.

        ``normalize(start + length / 2)`` per segment — the IEEE-754 ops
        of :attr:`Arc.midpoint` on arrays, so the result is bit-identical
        to each float segment's ``midpoint`` (``n = 1`` included: the
        full ring's midpoint is ``start + 0.5``), down to its fallback:
        a segment one ulp wide whose centre rounds onto its end takes
        its start.
        """
        mid = normalize_array(pts + SegmentMap.lengths_from_array(pts) / 2)
        return np.where(mid == np.roll(pts, -1), pts, mid)

    def lengths(self) -> np.ndarray:
        """All segment lengths as a float64 array (sums to 1)."""
        return self.lengths_from_array(self.column)

    def smoothness(self) -> float:
        """``ρ(x) = max_i |s(x_i)| / min_j |s(x_j)|`` (Definition 1)."""
        lens = self.lengths()
        if len(lens) == 0:
            raise LookupError("empty segment map has no smoothness")
        mn = lens.min()
        if mn <= 0:
            return math.inf
        # Python floats: a subnormal ``mn`` overflows to inf silently
        return float(lens.max()) / float(mn)

    def min_segment_length(self) -> float:
        """Length of the shortest segment; ``LookupError`` when empty."""
        lens = self.lengths()
        if len(lens) == 0:
            raise LookupError("empty segment map")
        return float(lens.min())

    def max_segment_length(self) -> float:
        """Length of the longest segment; ``LookupError`` when empty."""
        lens = self.lengths()
        if len(lens) == 0:
            raise LookupError("empty segment map")
        return float(lens.max())

    def check_invariants(self) -> None:
        """Assert structural invariants of the id list and its mirror.

        Sortedness and range are read off the list (the source of
        truth); then the float64 column must equal it id for id, so that
        whatever was compiled from the column was compiled from the
        truth; the lengths (read from the column) must sum to 1.
        """
        pts = self._points
        assert all(map(lt, pts, pts[1:])), "points not strictly sorted"
        assert not pts or (0 <= pts[0] and pts[-1] < 1), "point outside [0,1)"
        exact = sum(not isinstance(p, float) for p in pts)
        assert self.column.tolist() == (
            [float(p) for p in pts] if exact else pts
        ), "float64 column out of step with the id list"
        assert self._exact == exact, (
            f"{self._exact} non-float ids counted, the id list holds {exact}")
        if pts:
            total = self.lengths().sum()
            assert abs(float(total) - 1.0) < 1e-9, f"segment lengths sum to {total}"
