"""Arithmetic on the unit ring ``I = [0, 1)``.

The continuous-discrete approach (Naor & Wieder, SPAA 2003) works over a
continuous space ``I``; for the Distance Halving DHT this is the half-open
unit interval treated as a ring.  This module provides the two primitives
everything else is built on:

* point arithmetic — normalisation and linear distance
  ``d(x, y) = |x - y|`` (the metric used by the distance-halving
  analysis, Observation 2.3);
* :class:`Arc` — a half-open arc ``[start, end)`` of the ring, possibly
  wrapping through 1.0, with containment, length, midpoint and its
  non-wrapping pieces.

All functions are generic over the numeric type: they work with ``float``
coordinates (the fast path) and with :class:`fractions.Fraction` (the exact
path used by property-based tests, mirroring the paper's remark in §2.2.3
that enough precision must be allocated).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

Number = Union[int, float, Fraction]

#: The largest float below 1.0: the midpoint of a seam arc whose centre
#: lies below the seam but rounds onto it (:attr:`Arc.midpoint`).
BELOW_ONE = 1.0 - 2.0 ** -53

__all__ = [
    "BELOW_ONE",
    "Number",
    "normalize",
    "Arc",
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
        """The centre point of the arc (on the ring).

        A float arc one ulp wide can round its centre onto its own end,
        which the half-open arc does not hold; its start, the one float
        it holds, is the midpoint then.  A seam arc whose piece below
        1.0 is the longer has its centre there, but a float centre
        within half an ulp of 1.0 rounds onto 1.0, which folds into the
        shorter piece at 0.0; :data:`BELOW_ONE`, the last float of the
        longer piece, is the midpoint then.  Exact arithmetic never
        meets either case.
        """
        if self.start == self.end:
            return normalize(self.start + Fraction(1, 2)
                             if isinstance(self.start, Fraction)
                             else self.start + 0.5)
        mid = self.start + self.length / 2
        if mid == 1 and 1 - self.start > self.end:
            mid = BELOW_ONE
        mid = normalize(mid)
        return self.start if mid == self.end else mid

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
