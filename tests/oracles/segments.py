"""Oracles of the segment map, the §4 id rules and ring arithmetic."""

from typing import Sequence

import numpy as np

from repro.balance import MultipleChoice
from repro.core import DistanceHalvingNetwork
from repro.core.interval import Arc, Number
from repro.core.segments import SegmentMap


def midpoints_array(self: SegmentMap) -> np.ndarray:
    """Per-segment midpoints as a float64 array.

    Computed through :attr:`Arc.midpoint` segment by segment so the
    values are bit-identical to what the scalar lookup engine sees —
    the batch fast lookup derives its approach digits from these.

    Deviation from the frozen body's values: it reads
    :attr:`Arc.midpoint`, which now returns a segment's start where a
    segment one float wide would round its centre onto its own end (ids
    ``[0, 0.5, 1 - 2**-53]``: the seam row's midpoint was ``0.0``, the
    next segment's start, and is ``1 - 2**-53``).  Every other value
    is unchanged.
    """
    n = len(self._points)
    if n == 0:
        raise LookupError("empty segment map has no segments")
    return np.asarray(
        [float(self.segment(i).midpoint) for i in range(n)], dtype=np.float64
    )


def scalar_select(strategy: MultipleChoice, segments: SegmentMap,
                  rng: np.random.Generator) -> float:
    """``MultipleChoice.select`` as the per-probe loop (the parent's body)."""
    if len(segments) == 0:
        return float(rng.random())
    samples = rng.random(strategy._probes(len(segments)))
    best_idx = None
    best_len = -1.0
    seen = set()
    for z in samples:
        i = segments.cover(float(z))
        if i in seen:
            continue
        seen.add(i)
        length = float(segments.segment(i).length)
        if length > best_len:
            best_len = length
            best_idx = i
    return float(segments.segment(best_idx).midpoint)


def loop_grow(strategy, segments: SegmentMap, rng, count: int):
    """``count`` rounds of ``select`` + ``insert`` on a copy of ``segments``."""
    work = SegmentMap(segments)
    ids, at = [], []
    for _ in range(count):
        p = strategy.select(work, rng)
        at.append(work.insert(p))
        ids.append(p)
    return ids, at


def loop_populate(net: DistanceHalvingNetwork, n: int, selector=None) -> None:
    """The parent's ``populate``: one ``join`` per server."""
    for _ in range(n):
        net.join(selector=selector)


def arcs_cover_ring(arcs: Sequence[Arc]) -> bool:
    """Check whether the union of ``arcs`` covers every point of ``[0, 1)``.

    Used by the fault-tolerance experiments (§6, Claim 6.5) to verify that
    after fail-stop deletions every point of ``I`` is still covered by at
    least one surviving server's (overlapping) segment.
    """
    events: list[tuple[Number, int]] = []
    for arc in arcs:
        for a, b in arc.pieces():
            events.append((a, 1))
            events.append((b, -1))
    if not events:
        return False
    events.sort(key=lambda e: (e[0], -e[1]))
    # Sweep; coverage must stay positive over [0,1). Start coverage counts
    # arcs that straddle 0 (their piece starting at 0 handles that).
    depth = 0
    prev = 0
    for pos, delta in events:
        if pos > prev and depth <= 0:
            return False
        prev = max(prev, pos)
        depth += delta
    # tail [last event, 1): covered iff some piece ends at 1 only when depth>0
    last = max(pos for pos, _ in events)
    if last < 1 and depth <= 0:
        return False
    return True


def intersection_length(self: Arc, other: Arc) -> Number:
    """Total length of the intersection with ``other``."""
    total = None
    for a1, b1 in self.pieces():
        for a2, b2 in other.pieces():
            lo = max(a1, a2)
            hi = min(b1, b2)
            if hi > lo:
                total = (hi - lo) if total is None else total + (hi - lo)
    if total is None:
        return 0 if isinstance(self.start, int) else type(self.start)(0)
    return total


def linear_distance(x: Number, y: Number) -> Number:
    """Paper metric ``d(x, y) = |x - y|`` on ``[0, 1)`` (no wrap-around).

    Observation 2.3 (the distance-halving property) is stated for this
    *linear* distance: both ``l`` and ``r`` halve it exactly.  The ring
    metric would not be halved exactly, which is why the paper uses this
    one throughout §2.2.
    """
    return abs(x - y)
