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
:class:`~repro.core.segments.SegmentMap` experiments.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.interval import normalize
from ..core.segments import SegmentMap

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


class SingleChoice:
    """Algorithm Single Choice: a uniformly random id (§4)."""

    name = "single"

    def select(self, segments: SegmentMap, rng: np.random.Generator) -> float:
        """One uniform draw from ``rng``; ``segments`` is not consulted."""
        return float(rng.random())

    def __call__(self, net, rng: np.random.Generator) -> float:
        return self.select(net.segments, rng)


class ImprovedSingleChoice:
    """Improved Single Choice: split the covering segment at its midpoint (§4)."""

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

    def __call__(self, net, rng: np.random.Generator) -> float:
        return self.select(net.segments, rng)


class MultipleChoice:
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
        if t < 1:
            raise ValueError("probe multiplier t must be >= 1")
        self.t = int(t)
        self.estimate = estimate

    def _log_n(self, segments: SegmentMap, rng: np.random.Generator) -> int:
        if not self.estimate:
            return max(1, math.ceil(math.log2(max(2, len(segments)))))
        z = float(rng.random())
        return estimate_log_n(segments, segments.cover_point(z))

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

    def __call__(self, net, rng: np.random.Generator) -> float:
        return self.select(net.segments, rng)
