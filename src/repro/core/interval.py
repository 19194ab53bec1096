"""Arithmetic on the unit ring ``I = [0, 1)``.

The continuous-discrete approach (Naor & Wieder, SPAA 2003) works over a
continuous space ``I``; for the Distance Halving DHT this is the half-open
unit interval treated as a ring.  This module provides the two primitives
everything else is built on:

* point arithmetic — normalisation and linear distance
  ``d(x, y) = |x - y|`` (the metric used by the distance-halving
  analysis, Observation 2.3);
* :class:`Arc` — a half-open arc ``[start, end)`` of the ring, possibly
  wrapping through 1.0, with containment, length, midpoint, splitting and
  intersection.

All functions are generic over the numeric type: they work with ``float``
coordinates (the fast path) and with :class:`fractions.Fraction` (the exact
path used by property-based tests, mirroring the paper's remark in §2.2.3
that enough precision must be allocated).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

Number = Union[int, float, Fraction]

__all__ = [
    "Number",
    "normalize",
    "linear_distance",
    "Arc",
    "arcs_cover_ring",
]


def normalize(x: Number) -> Number:
    """Map ``x`` into ``[0, 1)`` by reducing modulo 1.

    Works for floats and :class:`~fractions.Fraction` alike.  ``x % 1``
    already has the right semantics for both types in Python (the result
    carries the sign of the divisor, hence is non-negative), but a float
    ``x`` that is a tiny negative number can round to exactly ``1.0`` after
    the modulo; we fold that case back to ``0.0``.
    """
    r = x % 1
    if r == 1:  # float rounding artefact, e.g. (-1e-18) % 1 == 1.0 - eps -> 1.0
        return r - 1
    return r


def linear_distance(x: Number, y: Number) -> Number:
    """Paper metric ``d(x, y) = |x - y|`` on ``[0, 1)`` (no wrap-around).

    Observation 2.3 (the distance-halving property) is stated for this
    *linear* distance: both ``l`` and ``r`` halve it exactly.  The ring
    metric would not be halved exactly, which is why the paper uses this
    one throughout §2.2.
    """
    return abs(x - y)


@dataclass(frozen=True)
class Arc:
    """A half-open arc ``[start, end)`` on the unit ring.

    ``start == end`` denotes the *full* ring (length 1), matching the
    single-server degenerate case of the Distance Halving construction
    where one server covers all of ``I``.  An arc with ``start > end``
    wraps through 1.0, e.g. ``Arc(0.9, 0.1)`` covers ``[0.9, 1) ∪ [0, 0.1)``
    exactly like the last server's segment ``s(x_n)`` in §2.1.
    """

    start: Number
    end: Number

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", normalize(self.start))
        object.__setattr__(self, "end", normalize(self.end))

    @property
    def wraps(self) -> bool:
        """True when the arc crosses the 1.0 -> 0.0 seam."""
        return self.start > self.end

    @property
    def length(self) -> Number:
        """Arc length; the full ring has length 1."""
        if self.start == self.end:
            return 1 if isinstance(self.start, int) else type(self.start)(1)
        if self.wraps:
            return 1 - self.start + self.end
        return self.end - self.start

    def __contains__(self, point: Number) -> bool:
        p = normalize(point)
        if self.start == self.end:
            return True
        if self.wraps:
            return p >= self.start or p < self.end
        return self.start <= p < self.end

    @property
    def midpoint(self) -> Number:
        """The centre point of the arc (on the ring)."""
        if self.start == self.end:
            return normalize(self.start + Fraction(1, 2)
                             if isinstance(self.start, Fraction)
                             else self.start + 0.5)
        return normalize(self.start + self.length / 2)

    def pieces(self) -> Iterator[tuple[Number, Number]]:
        """Decompose into at most two non-wrapping intervals ``[a, b)``.

        A wrapping arc yields ``(start, 1)`` and ``(0, end)``; the full ring
        yields ``(start, 1)`` and ``(0, start)`` (or a single ``(0, 1)`` when
        anchored at zero).  Useful for interval-tree style queries over the
        sorted point set.
        """
        one = 1 if isinstance(self.start, int) else type(self.start)(1)
        zero = one - one
        if self.start == self.end:
            if self.start == zero:
                yield (zero, one)
            else:
                yield (self.start, one)
                yield (zero, self.start)
        elif self.wraps:
            yield (self.start, one)
            if self.end > zero:  # an arc ending exactly at the seam has no second piece
                yield (zero, self.end)
        else:
            yield (self.start, self.end)

    def split(self, at: Number) -> tuple["Arc", "Arc"]:
        """Split into ``[start, at)`` and ``[at, end)``.

        This is exactly the Join operation's segment division (§2.1,
        Algorithm Join step 3): the new server takes the suffix of the
        old segment.  Raises :class:`ValueError` if ``at`` is not an
        interior point of the arc.
        """
        at = normalize(at)
        if at not in self or at == self.start:
            raise ValueError(f"split point {at!r} not interior to {self!r}")
        return Arc(self.start, at), Arc(at, self.end)

    def overlaps(self, other: "Arc") -> bool:
        """True when the two arcs share at least one point."""
        return self.intersection_length(other) > 0 or any(
            a in other for a, _ in self.pieces()
        )

    def intersection_length(self, other: "Arc") -> Number:
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

    def scaled(self, factor: Number, offset: Number) -> "Arc":
        """Image of this arc under the affine contraction ``p -> p*factor + offset``.

        Used to push a server's segment through the continuous-graph edge
        maps ``f_i(y) = y/Δ + i/Δ`` (§2.3): the image of ``[a, b)`` is
        ``[f_i(a), f_i(b))``.  Only meaningful for ``0 < factor <= 1``
        where the image cannot self-overlap.
        """
        # The image of an arc that crosses the seam with mass on *both*
        # sides is two disjoint arcs — not representable as one Arc; use
        # :meth:`repro.core.continuous.ContinuousGraph.image_arcs`, which
        # maps each piece separately.  An arc ending exactly at the seam
        # (stored ``end == 0``) is a single piece: scale ``end + 1``.
        if self.start == self.end:  # full ring contracts to one arc
            s = normalize(self.start * factor + offset)
            return Arc(s, normalize(s + factor))
        if self.wraps:
            zero = self.end - self.end
            if self.end > zero:
                raise ValueError(
                    "image of a two-piece wrapping arc under a contraction is "
                    "disconnected; scale each piece (see ContinuousGraph.image_arcs)"
                )
            return Arc(
                normalize(self.start * factor + offset),
                normalize((self.end + 1) * factor + offset),
            )
        return Arc(
            normalize(self.start * factor + offset),
            normalize(self.end * factor + offset),
        )


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
