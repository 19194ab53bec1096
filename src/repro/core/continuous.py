"""The continuous Distance Halving graph ``G_c`` (paper §2.1 and §2.3).

The vertex set of ``G_c`` is the unit interval ``I = [0, 1)``.  For the
binary construction the edge maps are::

    l(y) = y/2          ("left"  — shifts a 0 into the binary fraction)
    r(y) = y/2 + 1/2    ("right" — shifts a 1 into the binary fraction)
    b(y) = 2y mod 1     ("backward" — the single incoming edge)

Section 2.3 generalises to alphabet size ``Δ``::

    f_i(y) = y/Δ + i/Δ      for i in {0, .., Δ-1}
    b(y)   = Δ·y mod 1

which emulates the De Bruijn graph of degree ``Δ`` and gives the optimal
degree/path-length trade-off of Theorem 2.13.

Walks.  For a digit string ``σ_t = (s_1, …, s_t)`` the walk function
``w(σ_t, y)`` (paper Eq. 1–3) applies ``f_{s_1}`` first and ``f_{s_t}``
last.  Two facts drive every routing algorithm:

* **Observation 2.3** (distance halving):
  ``d(w(σ_t, y), w(σ_t, z)) = Δ^{-t} · d(y, z)`` — any common digit string
  pulls two points together geometrically.
* **Claim 2.4** (approach walk): walking from any ``z`` according to the
  *reversed* first ``t`` digits of ``y`` lands within ``Δ^{-t}`` of ``y``.
  (Reversed because the walk applies its first digit deepest; see
  :func:`approach_digits`.)

Numerical note (paper §2.2.3): forward walks are contractions, so float64
error stays bounded; *backward* walks double the error per step, so
backward paths are recomputed in closed form by
:meth:`ContinuousGraph.walk` from the digit prefix instead of iterating
``b``.  An exact mode using :class:`fractions.Fraction` is available for
property tests via ``exact=True`` digit extraction helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .. import checks
from .interval import Arc, Number, normalize

__all__ = ["ContinuousGraph", "Digits", "binary_digits"]

Digits = tuple[int, ...]


def binary_digits(y: Number, t: int, delta: int = 2) -> Digits:
    """First ``t`` base-``Δ`` digits of ``y``'s fractional expansion.

    Digit ``k`` (0-based) is ``floor(y · Δ^{k+1}) mod Δ``, i.e. the string
    ``σ(y)_t`` of Claim 2.4 read most-significant first.  Exact for
    :class:`~fractions.Fraction` inputs; for floats it uses integer scaling
    (``floor(y * Δ**t)``), which is exact while ``Δ**t`` fits the mantissa.
    """
    t, delta = checks.count(t, "t"), checks.count(delta, "delta", 2)
    y = normalize(y)
    scaled = int(y * delta**t)
    out = []
    for k in range(t - 1, -1, -1):
        out.append((scaled // delta**k) % delta)
    return tuple(out)


@dataclass(frozen=True)
class ContinuousGraph:
    """The degree-``Δ`` continuous De Bruijn-style graph over ``[0, 1)``.

    ``delta=2`` is the Distance Halving graph of §2.1; larger ``delta``
    gives the §2.3 construction whose smooth discretization has degree
    ``Θ(Δ)`` and path length ``Θ(log_Δ n)`` (Theorem 2.13).
    """

    delta: int = 2

    def __post_init__(self) -> None:
        checks.count(self.delta, "delta", 2)

    # ------------------------------------------------------------------ maps
    def child(self, y: Number, digit: int) -> Number:
        """Edge map ``f_digit(y) = y/Δ + digit/Δ``.

        For ``Δ = 2``, ``child(y, 0) = l(y)`` and ``child(y, 1) = r(y)``.
        """
        checks.count(digit, "digit", 0, self.delta)
        y = normalize(y)
        if isinstance(y, Fraction):
            return y / self.delta + Fraction(digit, self.delta)
        return y / self.delta + digit / self.delta

    def left(self, y: Number) -> Number:
        """``l(y) = y/2`` (binary construction only)."""
        return self.child(y, 0)

    def right(self, y: Number) -> Number:
        """``r(y) = y/2 + 1/2`` (binary construction only)."""
        if self.delta != 2:
            raise ValueError("right() is defined for the binary graph; use child()")
        return self.child(y, 1)

    def backward(self, y: Number) -> Number:
        """The unique incoming edge ``b(y) = Δ·y mod 1``.

        Inverse of every ``child``: ``backward(child(y, i)) == y``.
        Numerically this *doubles* float error, so long backward paths
        should be generated via :meth:`walk` on digit prefixes instead.
        """
        return normalize(normalize(y) * self.delta)

    # ----------------------------------------------------------------- walks
    def walk(self, digits: Sequence[int], y: Number) -> Number:
        """``w(σ_t, y)``: apply ``f_{digits[0]}`` first, ``f_{digits[-1]}`` last.

        Computed in closed form
        ``y/Δ^t + 0.d_t d_{t-1} … d_1 (base Δ)`` so that float error does
        not accumulate: the result is a single division plus a dyadic
        offset.
        """
        t = len(digits)
        if t == 0:
            return normalize(y)
        scale = self.delta**t
        offset_num = 0
        for k, d in enumerate(digits):  # offset = sum_k d_k Δ^k (digit k applied first)
            if not 0 <= d < self.delta:
                raise ValueError(f"digit {d} out of range for delta={self.delta}")
            offset_num += d * self.delta**k
        # an int scale keeps a Fraction y exact
        return normalize((normalize(y) + offset_num) / scale)

    def walk_points(self, digits: Sequence[int], y: Number) -> list[Number]:
        """All intermediate walk points ``[w(σ_0,y), w(σ_1,y), …, w(σ_t,y)]``.

        ``w(σ_0, y) = y``; element ``j`` is the position after applying the
        first ``j`` digits.  Each element is computed in closed form (no
        error accumulation), and consecutive elements are connected by a
        continuous-graph edge, so this is exactly a path in ``G_c``.
        """
        return [self.walk(digits[:j], y) for j in range(len(digits) + 1)]

    def approach_digits(self, target: Number, t: int) -> Digits:
        """Digit string that makes any walk land within ``Δ^{-t}`` of ``target``.

        Claim 2.4: a walk according to the binary representation of the
        target approaches it.  Because :meth:`walk` applies its *first*
        digit deepest (it ends up least significant in the offset), the
        correct string is the **reversed** ``t``-digit prefix of
        ``target``'s expansion: ``(b_t, …, b_1)``.  Then for every ``z``::

            d(walk(approach_digits(y, t), z), y) <= Δ^{-t}
        """
        return tuple(reversed(binary_digits(target, t, self.delta)))

    # ------------------------------------------------------------- intervals
    def image_arcs_by_digit(self, arc: Arc) -> list[list[Arc]]:
        """Images of a segment under every edge map, grouped per digit.

        Entry ``i`` is ``f_i(arc)`` as a list of arcs: one arc when the
        segment is contiguous, two when it crosses the seam (the image of
        a two-piece wrapping segment is disconnected, since ``f_i``
        contracts each piece into ``[i/Δ, (i+1)/Δ)`` separately).
        """
        exact = isinstance(arc.start, Fraction)
        out: list[list[Arc]] = []
        for i in range(self.delta):
            factor = Fraction(1, self.delta) if exact else 1.0 / self.delta
            offset = Fraction(i, self.delta) if exact else i / self.delta
            if arc.start == arc.end:  # full ring: one contiguous image
                s = normalize(arc.start * factor + offset)
                out.append([Arc(s, normalize(s + factor))])
                continue
            imgs = []
            for a, b in arc.pieces():
                imgs.append(
                    Arc(normalize(a * factor + offset), normalize(b * factor + offset))
                )
            out.append(imgs)
        return out

    def image_arcs(self, arc: Arc) -> list[Arc]:
        """All image arcs of a segment under every edge map (flattened).

        Used when discretizing: server ``V`` covering ``arc`` must link to
        every server whose segment intersects some ``f_i(arc)`` (§2.1).
        The images of one digit have total length ``|arc|/Δ`` (the lower
        diagram of Figure 1).
        """
        return [img for per_digit in self.image_arcs_by_digit(arc) for img in per_digit]

    def preimage_arcs(self, arc: Arc) -> list[Arc]:
        """Preimage of a segment under the edge maps, i.e. ``b(arc)``.

        The preimage of ``s(x)`` is a contiguous arc of length
        ``Δ·|s(x)|`` (proof of Theorem 2.2) — possibly the full ring when
        ``|arc| >= 1/Δ``.  Returned as a list of non-wrapping arcs.
        """
        pieces: list[Arc] = []
        for a, b in arc.pieces():
            length = (b - a) * self.delta
            if length >= 1:
                return [Arc(0.0, 0.0)]
            start = normalize(a * self.delta)
            pieces.append(Arc(start, normalize(start + length)))
        return pieces
