"""Id-selection (load balancing) algorithms of paper §4.

The smoothness ``ρ`` of the id decomposition drives every bound in the
paper (degree, path length, congestion), so §4 is about making joining
servers pick ids that keep ``ρ`` small:

* **Single Choice** — uniform id.  Lemma 4.1: longest segment
  ``Θ(log n / n)``, shortest ``Θ(1/n²)`` ⇒ ``ρ = Θ(n log n)``.
* **Improved Single Choice** — sample a point, split the *covering*
  segment at its midpoint.  Lemma 4.2: shortest ``Θ(1/(n log n))``,
  longest ``O(log n / n)`` ⇒ ``ρ = O(log² n)``.
* **Multiple Choice** — sample ``t·log n`` points, split the longest
  segment found.  Lemma 4.3: shortest ``≥ 1/4n`` w.h.p.; Theorem 4.4:
  inserting ``n`` points *self-corrects* any adversarial configuration to
  max segment ``O(1/n)``.

Each strategy is a callable ``(network, rng) -> point`` usable directly
as the ``selector`` of :meth:`repro.core.DistanceHalvingNetwork.join`,
and also exposes ``select(segments, rng)`` for raw
:class:`~repro.core.segments.SegmentMap` experiments, and
``grow(segments, rng, count)``: the ids ``count`` consecutive joins
choose, in join order, without touching ``segments`` — what
:meth:`~repro.core.DistanceHalvingNetwork.populate` commits in one step.

``grow`` is bit-identical to ``count`` rounds of ``select`` + ``insert``
(same ids, same insertion indices, same rng state afterwards) but works
in *windows* of joins.  A window draws all its probes with one
``rng.random`` (the stream per-join draws would read), covers them with
one :class:`~repro.core.segments.CoverIndex` over the ids as they stood
when the window opened, and takes each join's first-maximum probe, all
as arrays.  The first join of the window to choose a segment keeps that
choice: nothing earlier in the window split that segment, and a split
elsewhere only shortens a segment it beat (float subtraction is
monotone), so it is still the first maximum.  Every
later join that chose the same segment is *displaced*; only these walk
in Python, in join order, each against the ids the window put into the
segments it probed.  A displaced join that re-chooses a segment some
later join chose first splits it before that join, which is displaced
in turn.  Insertion indices come from one blocked count over the
window.  Windows never span a change of ``t·⌈log₂ n⌉``.  ``grow`` and
``MultipleChoice.select`` take float ids only: a map that holds an exact
(:class:`~fractions.Fraction`) id raises ``ValueError``, as the batch
router does; exact ids stay on the scalar side.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import checks
from ..core.interval import midpoint, normalize
from ..core.segments import (FLOAT_IDS_ONLY, CoverIndex, SegmentMap,
                             normalize_array)

__all__ = [
    "SingleChoice",
    "ImprovedSingleChoice",
    "MultipleChoice",
]


def _ceil_log2(n: int) -> int:
    """``⌈log₂ max(2, n)⌉``, exactly, for any int ``n``."""
    return (max(2, n) - 1).bit_length()


#: A window's joins: at most n / 16 of them (more would displace more
#: joins), at most 2^18 probes in all (its probe, cover and length arrays
#: stay ≤ 2 MB each at any n; 0.46 MB at n = 2^14) and at most 4096 (its
#: ranks are int16 and its rank table grows with the window squared).
_WINDOW_SHARE = 16
_WINDOW_PROBES = 1 << 18
_WINDOW_MAX = 4096
#: ... but never fewer than 32 where the ⌈log₂ n⌉ step allows: below
#: n = 512 a window's fixed cost outweighs the joins a larger one displaces.
_WINDOW_MIN = 32

#: A displaced join's longest probes listed up front; one that needs more
#: lists them all (at n = 2^14, 32 of 2387 joins do).
_CANDIDATES = 8

#: Joins ranked per block by :func:`_earlier_below`: its count table has
#: one row per block, its in-block comparison one block² per block.
_RANK_BLOCK = 64
_EARLIER = np.tri(_RANK_BLOCK, _RANK_BLOCK, -1, dtype=bool)  # [i, k]: k < i


def _window(n: int, probes: int) -> int:
    """Joins in a window that opens at ``n`` ids with ``probes`` per join.

    Never past the last join before ``⌈log₂ n⌉`` steps up.
    """
    return max(1, min(max(_WINDOW_MIN, n // _WINDOW_SHARE),
                      _WINDOW_PROBES // max(1, probes),
                      _WINDOW_MAX, (1 << _ceil_log2(n)) - n + 1))


def _piece(col: np.ndarray, g: int, y: float,
           cut: List[float]) -> Tuple[float, float, float]:
    """``(start, length, end)`` of the piece of segment ``g`` of ``col`` covering ``y``.

    ``cut`` lists (sorted) the ids a window put inside the segment; the
    arithmetic is :meth:`MultipleChoice.select`'s over the union.
    """
    last = len(col) - 1
    s = col.item(g)
    e = col.item(g + 1 if g < last else 0)
    r = bisect_right(cut, y)
    lo = cut[r - 1] if r else -1.0  # the ids beside y the window added
    hi = cut[r] if r < len(cut) else 2.0
    if g < last:  # a segment inside the ring: no piece wraps
        a, b = max(s, lo), min(e, hi)
        return a, b - a, b
    if y >= s:  # the seam segment, at or above x_{n-1}
        a = max(s, lo)
        if hi < 2.0:
            return a, hi - a, hi
        b = min(e, cut[0])
        return a, 1.0 - a + b, b
    if lo >= 0.0:  # the seam segment, below x_0
        b = min(e, hi)
        return lo, b - lo, b
    a, b = max(s, cut[-1]), min(e, hi)
    return a, 1.0 - a + b, b


def _reevaluate(col: np.ndarray, split: np.ndarray, j: int,
                cuts: Dict[int, List[float]], got: np.ndarray,
                probes: Tuple[list, list, list, list], rows: range,
                whole: bool) -> Optional[Tuple[float, int]]:
    """Join ``j``'s id against the pieces as they are, and the segment it splits.

    ``probes`` are four flat lists, as :func:`_probe_lists` makes them;
    entries ``rows`` of them are the join's probes, longest segment first
    (ties in probe order): probe index, segment in ``col``, point and
    segment length.  ``split[g] < j`` marks a segment an earlier join of
    the window split; ``cuts[g]`` lists (sorted) the ids the window put
    inside it, made here from its first chooser's id in ``got`` while
    that join is the only one.  A piece is never longer than its
    segment, so the walk stops at the first probe that cannot beat the
    best piece so far.  Returns ``None`` when the entries end before that
    probe and are not ``whole`` (they may hold only the longest few).
    """
    ks, gs, ys, ls = probes
    best = -1.0
    for t in rows:
        full = ls[t]
        k = ks[t]
        if full < best or full == best and k > pick:
            return midpoint(a, best, b), seg
        g = gs[t]
        f = split.item(g)
        if f < j:
            cut = cuts.get(g)
            if cut is None:
                cut = cuts[g] = [got.item(f)]
            start, length, end = _piece(col, g, ys[t], cut)
        else:
            start, length = col.item(g), full
            end = col.item(g + 1 if g < len(col) - 1 else 0)
        if length > best or length == best and k < pick:
            best, pick, a, b, seg = length, k, start, end, g
    return (midpoint(a, best, b), seg) if whole else None


def _probe_lists(lengths: np.ndarray, cover: np.ndarray, z: np.ndarray,
                 rows: np.ndarray, keep: int) -> Tuple[list, list, list, list]:
    """The probes of joins ``rows``, each row's longest segment first.

    Four flat lists, ``keep`` entries per row (ties in probe order), as
    :func:`_reevaluate` takes them: probe index, segment, point and
    segment length.
    """
    order = np.argsort(-lengths[rows], axis=1, kind="stable")[:, :keep]
    flat = order + (rows * z.shape[1])[:, None]
    return (order.ravel().tolist(), cover.take(flat).ravel().tolist(),
            z.take(flat).ravel().tolist(), lengths.take(flat).ravel().tolist())


def _row_lists(lengths: np.ndarray, cover: np.ndarray, z: np.ndarray,
               j: int) -> Tuple[list, list, list, list]:
    """:func:`_probe_lists` of the one join ``j``, every probe listed."""
    row = lengths[j]
    order = (-row).argsort(kind="stable")
    return (order.tolist(), cover[j].take(order).tolist(),
            z[j].take(order).tolist(), row.take(order).tolist())


def _walk(col: np.ndarray, z: np.ndarray, cover: np.ndarray) -> np.ndarray:
    """The ids of a window's joins, in join order, over the ids ``col``.

    Row ``j`` of ``z`` holds join ``j``'s probes and of ``cover`` their
    segments in ``col``.  Each join first takes its first-maximum probe
    over the segments as the window opened.  The first join to choose a
    segment keeps that choice; every later one is *displaced* and walks,
    in join order, through :func:`_reevaluate`.  A displaced join that
    re-chooses a segment some later join chose first splits it before
    that join, which is displaced in turn.
    """
    w, per = z.shape
    joins = np.arange(w)
    lengths = SegmentMap.lengths_from_array(col)[cover]
    pick = lengths.argmax(axis=1)
    choice = cover[joins, pick]
    start = col[choice]
    got = normalize_array(start + lengths[joins, pick] / 2)
    got = np.where(got == col.take(choice + 1, mode="wrap"), start, got)
    split = np.full(len(col), w)  # the join that splits each segment first
    np.minimum.at(split, choice, joins)
    rows = np.flatnonzero(split[choice] != joins)
    if not rows.size:
        return got
    keep = min(_CANDIDATES, per)
    slot = dict(zip(rows.tolist(), range(0, len(rows) * keep, keep)))
    top = _probe_lists(lengths, cover, z, rows, keep)
    queue = rows.tolist()  # sorted: a heap already
    cuts: Dict[int, List[float]] = {}
    while queue:
        j = heappop(queue)
        i = slot.get(j)
        if i is None:  # a demoted first chooser
            chosen = None
        else:
            chosen = _reevaluate(col, split, j, cuts, got, top,
                                 range(i, i + keep), keep == per)
        if chosen is None:  # ... or too few probes listed
            chosen = _reevaluate(col, split, j, cuts, got,
                                 _row_lists(lengths, cover, z, j),
                                 range(per), True)
        p, g = chosen
        got[j] = p
        k = split.item(g)
        if k > j:  # j splits g first; its first chooser, if any, is displaced
            if k < w:
                heappush(queue, k)
            split[g] = j
            cuts[g] = [p]
        else:
            cut = cuts.get(g)
            if cut is None:
                cut = cuts[g] = [got.item(k)]
            insort(cut, p)
    return got


def _earlier_below(ids: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per entry of ``ids`` (distinct), how many earlier entries are smaller.

    ``order`` is ``ids.argsort()``.  Counted by blocks of
    :data:`_RANK_BLOCK` entries: the entries of earlier blocks by one
    cumulative count over (block, rank), those of an entry's own block
    by one comparison of the block with itself.  ``len(ids)`` must stay
    below 2^15 (:data:`_WINDOW_MAX`): ranks and counts are int16.
    """
    w = len(ids)
    rank = np.empty(w, dtype=np.int16)
    rank[order] = np.arange(w, dtype=np.int16)
    blocks = -(-w // _RANK_BLOCK)
    tile = np.full(blocks * _RANK_BLOCK, w, dtype=np.int16)
    tile[:w] = rank
    tile = tile.reshape(blocks, _RANK_BLOCK)
    inside = tile[:, None, :] < tile[:, :, None]
    inside &= _EARLIER
    below = inside.view(np.int8).sum(axis=2, dtype=np.int16).ravel()[:w]
    if blocks > 1:
        block = np.arange(w) // _RANK_BLOCK
        # before[b, r]: entries of blocks < b whose rank is <= r
        before = np.cumsum(block[order] < np.arange(blocks)[:, None], axis=1,
                           dtype=np.int16)
        below += before[block, rank]
    return below


def _merge_sorted(col: np.ndarray, ids: np.ndarray,
                  slots: np.ndarray) -> np.ndarray:
    """Sorted ``col`` and sorted, disjoint ``ids`` as one sorted ``ext``.

    ``slots[k]`` is ``ids[k]``'s index in the union.  ``ext`` is the
    union plus a trailing ``+inf``, the layout
    :meth:`~repro.core.segments.CoverIndex.follow` takes.
    """
    ext = np.empty(len(col) + len(ids) + 1)
    rest = np.ones(len(ext), dtype=bool)
    rest[slots] = False
    rest[-1] = False
    ext[slots] = ids
    ext[rest] = col
    ext[-1] = np.inf
    return ext


def _grow_windows(col: np.ndarray, rng: np.random.Generator, count: int,
                  probes: Callable[[int], int]) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`_Strategy.grow` over a float column, a window at a time.

    ``probes(n)`` is the probe count of a join at ``n`` ids; 0 means
    the draw itself is the id (Single Choice).  One cover index follows
    the column from window to window.
    """
    ids = np.empty(count)
    at = np.empty(count, dtype=np.intp)
    done = 0
    if count and not len(col):  # the first id is one draw under every rule
        ids[0] = rng.random()
        at[0] = 0
        col = ids[:1].copy()
        done = 1
    index = None
    while done < count:
        n = len(col)
        per = probes(n)
        w = min(count - done, _window(n, per))
        if per:
            if index is None:
                index = CoverIndex(col)
            z = rng.random(w * per).reshape(w, per)
            got = _walk(col, z, index.cover(z.ravel()).reshape(w, per))
        else:
            got = rng.random(w)
        pos = col.searchsorted(got)
        order = got.argsort(kind="stable")
        added = got[order]
        slots = pos[order] + np.arange(w)
        ext = _merge_sorted(col, added, slots)
        if (ext[slots + 1] == added).any():  # a duplicate sits beside its twin
            # the first join whose id an earlier join, or the column, took
            clash = np.concatenate([
                order[1:][added[1:] == added[:-1]],
                np.flatnonzero(col[np.minimum(pos, n - 1)] == got)])
            raise ValueError(f"point {got[clash.min()]!r} already present")
        ids[done:done + w] = got
        at[done:done + w] = pos + _earlier_below(got, order)
        col = ext[:-1]
        if index is not None:
            index.follow(ext, added, np.ones(w, dtype=np.intp))
        done += w
    return ids, at


class _Strategy:
    """What the three §4 strategies share: ``grow`` and the selector call.

    A strategy defines ``select(segments, rng)``, one join's id, and
    ``_probes(n)``, the uniform probes of a join at ``n`` ids (0: the
    draw itself is the id).
    """

    def grow(self, segments: SegmentMap, rng: np.random.Generator,
             count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, indices)`` of ``count`` joins over ``segments``, in join order.

        ``ids[j]`` is the float id join ``j`` chooses and ``indices[j]``
        its insertion index at that join, exactly as ``count`` rounds of
        ``p = select(segments, rng); segments.insert(p)`` would produce,
        and ``rng`` ends in the same state.  ``segments`` itself is not
        changed.  An id the loop's ``insert`` would refuse as a
        duplicate raises that ``ValueError``, and so do a ``count``
        that is not an int ``>= 0`` and a map that holds an exact id.
        """
        checks.count(count, "count")
        if not segments.is_float():
            raise ValueError(FLOAT_IDS_ONLY)
        return _grow_windows(segments.column, rng, count, self._probes)

    def __call__(self, net, rng: np.random.Generator) -> float:
        return self.select(net.segments, rng)


class SingleChoice(_Strategy):
    """Algorithm Single Choice: a uniformly random id (§4)."""

    name = "single"

    def select(self, segments: SegmentMap, rng: np.random.Generator) -> float:
        """One uniform draw from ``rng``; ``segments`` is not consulted."""
        return float(rng.random())

    def _probes(self, n: int) -> int:
        return 0


class ImprovedSingleChoice(_Strategy):
    """Improved Single Choice: split the covering segment at its midpoint (§4).

    The Multiple Choice rule with one probe a join.
    """

    name = "improved"

    def select(self, segments: SegmentMap, rng: np.random.Generator) -> float:
        """Midpoint of the segment covering one uniform probe.

        With no segments yet the probe itself is the id.
        """
        z = float(rng.random())
        if len(segments) == 0:
            return z
        seg = segments.segment(segments.cover(z))
        return float(seg.midpoint)

    def _probes(self, n: int) -> int:
        return 1


class MultipleChoice(_Strategy):
    """Multiple Choice Algorithm: probe ``t·log n`` segments, split the longest.

    ``t`` is the paper's constant (Lemma 4.3 needs ``t ≥ 2``; the
    self-correction proof of Theorem 4.4 uses ``t = 20``; we default to 4
    which already exhibits both behaviours at experiment sizes).
    """

    name = "multiple"

    def __init__(self, t: int = 4):
        self.t = checks.count(t, "t", 1)

    def _probes(self, n: int) -> int:
        return self.t * _ceil_log2(n)

    def select(self, segments: SegmentMap, rng: np.random.Generator) -> float:
        """Midpoint of the longest segment among ``t·log n`` uniform probes.

        Ties go to the first probe that found the longest segment.  With
        no segments yet one uniform draw is the id.  A map that holds an
        exact id raises ``ValueError`` before ``rng`` is drawn from.
        """
        if not segments.is_float():
            raise ValueError(FLOAT_IDS_ONLY)
        n = len(segments)
        if n == 0:
            return float(rng.random())
        samples = rng.random(self._probes(n))
        # every probe at once over the float64 column, with the IEEE ops
        # of ``Arc.length`` / ``Arc.midpoint``; ``argmax`` takes the first
        # maximum, as a per-probe loop's strict ``>`` does
        col = segments.column
        if n == 1:  # the full ring, whatever the probes hit
            return normalize(float(col[0]) + 0.5)
        # cover(z) = above - 1; index -1 and ``mode="wrap"`` close the
        # ring, and the seam row is the one whose end lies below its start
        above = col.searchsorted(samples, side="right")
        start = col[above - 1]
        length = col.take(above, mode="wrap") - start
        length[length < 0] = 1.0 - float(col[-1]) + float(col[0])
        k = int(length.argmax())
        return midpoint(float(start[k]), float(length[k]),
                        float(col.take(above[k], mode="wrap")))
