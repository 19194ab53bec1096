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
when the window opened, and takes each join's first-maximum probe.  It
then walks the window in join order: a join keeps that choice unless an
earlier join of the same window split the segment it chose, and such a
join is re-evaluated against the pieces as they are by then.  This is
exact because a split only shortens a segment (float subtraction is
monotone): a probed segment that was split and not chosen can never
overtake the chosen one, and a tie still goes to the first probe.
Windows never span a change of ``t·⌈log₂ n⌉``.  Exact
(:class:`~fractions.Fraction`) ids and ``MultipleChoice(estimate=True)``
— whose probe count reads the state each join — keep the per-join rule.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, List, Tuple

import numpy as np

from ..core.interval import normalize
from ..core.segments import CoverIndex, SegmentMap, normalize_array

__all__ = [
    "SingleChoice",
    "ImprovedSingleChoice",
    "MultipleChoice",
    "estimate_log_n",
]


def estimate_log_n(segments: SegmentMap, point: float) -> int:
    """Estimate ``log2 n`` from the gap to the ring predecessor (§6.2).

    Viceroy's lemma (quoted as the display before Lemma 6.2):
    ``log n − log log n − 1 ≤ log(1/d(x_i, x_{i-1})) ≤ 3 log n`` w.h.p.,
    so ``round(log2(1/gap))`` is a multiplicative estimate of ``log n``.
    For the *current* point the predecessor gap is measured after its own
    insertion.
    """
    n = len(segments)
    if n <= 1:
        return 1
    pred = segments.predecessor(point)
    gap = (point - pred) % 1.0
    if gap <= 0:
        return 1
    return max(1, round(math.log2(1.0 / gap)))


def _ceil_log2(n: int) -> int:
    """``⌈log₂ max(2, n)⌉``, exactly, for any int ``n``."""
    return (max(2, n) - 1).bit_length()


#: A window's joins: at most n / 16 of them (more would re-evaluate more
#: joins), at most 2^18 probes in all (its probe, cover and length arrays
#: stay ≤ 2 MB each at any n; 0.46 MB at n = 2^14) and at most 4096 (the
#: walk ranks each id into a sorted list of them).
_WINDOW_SHARE = 16
_WINDOW_PROBES = 1 << 18
_WINDOW_MAX = 4096


def _window(n: int, probes: int) -> int:
    """Joins in a window that opens at ``n`` ids with ``probes`` per join.

    Never past the last join before ``⌈log₂ n⌉`` steps up.
    """
    return max(1, min(n // _WINDOW_SHARE, _WINDOW_PROBES // max(1, probes),
                      _WINDOW_MAX, (1 << _ceil_log2(n)) - n + 1))


def _reevaluate(col: np.ndarray, lens: np.ndarray, z: np.ndarray,
                cover: np.ndarray, split: np.ndarray,
                added: List[float]) -> Tuple[float, int]:
    """One join's id against the current pieces, and the segment it splits.

    ``col`` holds the ids as the window opened and ``added`` (sorted)
    the ids its joins chose since; ``z`` are the join's probes and
    ``cover`` their segments in ``col``.  A probe in a segment marked in
    ``split`` sees the piece of it that covers the probe now, measured
    with :meth:`MultipleChoice.select`'s arithmetic over the union.
    """
    start = col[cover]
    length = lens[cover]
    hit = split[cover].nonzero()[0]
    last = len(col) - 1
    for k, g, y in zip(hit.tolist(), cover[hit].tolist(), z[hit].tolist()):
        s = col.item(g)
        e = col.item(g + 1 if g < last else 0)
        r = bisect_right(added, y)
        lo = added[r - 1] if r else -1.0  # the ids beside y added since
        hi = added[r] if r < len(added) else 2.0
        if g < last:  # a segment inside the ring: no piece wraps
            start[k] = a = max(s, lo)
            length[k] = min(e, hi) - a
        elif y >= s:  # the seam segment, at or above x_{n-1}
            start[k] = a = max(s, lo)
            length[k] = hi - a if hi < 2.0 else 1.0 - a + min(e, added[0])
        elif lo >= 0.0:  # the seam segment, below x_0
            start[k] = lo
            length[k] = min(e, hi) - lo
        else:
            start[k] = a = max(s, added[-1])
            length[k] = 1.0 - a + min(e, hi)
    k = int(length.argmax())
    return normalize(float(start[k]) + float(length[k]) / 2), int(cover[k])


def _merge_sorted(col: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Sorted ``col`` and sorted, disjoint ``ids`` as one sorted ``ext``.

    ``ext`` is the union plus a trailing ``+inf``, the layout
    :meth:`~repro.core.segments.CoverIndex.follow` takes.
    """
    slots = col.searchsorted(ids) + np.arange(len(ids))
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
            cover = index.cover(z.ravel()).reshape(w, per)
            lens = SegmentMap.lengths_from_array(col)
            choice = cover[np.arange(w), lens[cover].argmax(axis=1)]
            new = normalize_array(col[choice] + lens[choice] / 2).tolist()
            seg = choice.tolist()
        else:
            new = rng.random(w).tolist()
        split = bytearray(n)
        flags = np.frombuffer(split, dtype=np.uint8)
        added: List[float] = []
        ranks = []
        clash = w  # the first join whose id an earlier one already took
        for j in range(w):
            if per:
                g = seg[j]
                if split[g]:
                    new[j], g = _reevaluate(col, lens, z[j], cover[j], flags,
                                            added)
                split[g] = 1
            p = new[j]
            r = bisect_left(added, p)
            if r < len(added) and added[r] == p:
                clash = min(clash, j)
            added.insert(r, p)
            ranks.append(r)
        got = np.array(new)
        pos = col.searchsorted(got)
        taken = np.flatnonzero(col[np.minimum(pos, n - 1)] == got)
        if taken.size:
            clash = min(clash, int(taken[0]))
        if clash < w:
            raise ValueError(f"point {new[clash]!r} already present")
        ids[done:done + w] = got
        at[done:done + w] = pos + ranks
        ext = _merge_sorted(col, np.array(added))
        col = ext[:-1]
        if index is not None:
            index.follow(ext, [(p, 1) for p in added])
        done += w
    return ids, at


class _Strategy:
    """What the three §4 strategies share: ``grow`` and the selector call.

    A strategy defines ``select(segments, rng)``, one join's id, and
    ``_probes(n)``, the uniform probes of a join at ``n`` ids (0: the
    draw itself is the id).
    """

    #: per-join probe counts read the state (``MultipleChoice`` only)
    estimate = False

    def grow(self, segments: SegmentMap, rng: np.random.Generator,
             count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, indices)`` of ``count`` joins over ``segments``, in join order.

        ``ids[j]`` is the float id join ``j`` chooses and ``indices[j]``
        its insertion index at that join, exactly as ``count`` rounds of
        ``p = select(segments, rng); segments.insert(p)`` would produce,
        and ``rng`` ends in the same state.  ``segments`` itself is not
        changed.  An id the loop's ``insert`` would refuse as a
        duplicate raises that ``ValueError``.
        """
        if self.estimate or not segments.is_float():
            return _grow_per_join(self, segments, rng, count)
        return _grow_windows(segments.column, rng, count, self._probes)

    def __call__(self, net, rng: np.random.Generator) -> float:
        return self.select(net.segments, rng)


def _grow_per_join(strategy: _Strategy, segments: SegmentMap,
                   rng: np.random.Generator,
                   count: int) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`_Strategy.grow` one ``select`` at a time, on a copy."""
    work = SegmentMap(segments)
    ids = np.empty(count)
    at = np.empty(count, dtype=np.intp)
    for j in range(count):
        ids[j] = p = strategy.select(work, rng)
        at[j] = work.insert(p)
    return ids, at


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
    which already exhibits both behaviours at experiment sizes).  When
    ``log n`` cannot be read off the decomposition size (a real system
    would not know ``n``), :func:`estimate_log_n` on a random probe is
    used — set ``estimate=True`` to exercise that mode.
    """

    name = "multiple"

    def __init__(self, t: int = 4, estimate: bool = False):
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise ValueError(f"probe multiplier t must be an int, got {t!r}")
        if t < 1:
            raise ValueError("probe multiplier t must be >= 1")
        self.t = int(t)
        self.estimate = estimate

    def _log_n(self, segments: SegmentMap, rng: np.random.Generator) -> int:
        if not self.estimate:
            return _ceil_log2(len(segments))
        z = float(rng.random())
        return estimate_log_n(segments, segments.cover_point(z))

    def _probes(self, n: int) -> int:
        return self.t * _ceil_log2(n)

    def select(self, segments: SegmentMap, rng: np.random.Generator) -> float:
        """Midpoint of the longest segment among ``t·log n`` uniform probes.

        Ties go to the first probe that found the longest segment.  With
        no segments yet one uniform draw is the id.
        """
        n = len(segments)
        if n == 0:
            return float(rng.random())
        samples = rng.random(self.t * self._log_n(segments, rng))
        if segments.is_float():
            # every probe at once over the float64 column, with the IEEE
            # ops of ``segment_length`` / ``Arc.midpoint``; ``argmax``
            # takes the first maximum, as the loop's strict ``>`` does
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
            return normalize(float(start[k]) + float(length[k]) / 2)
        # exact (Fraction) ids: lengths compare exactly, probe by probe
        best_idx = None
        best_len = -1.0
        seen: set[int] = set()
        for z in samples:
            i = segments.cover(float(z))
            if i in seen:
                continue
            seen.add(i)
            length = float(segments.segment_length(i))
            if length > best_len:
                best_len = length
                best_idx = i
        assert best_idx is not None
        return float(segments.segment(best_idx).midpoint)
