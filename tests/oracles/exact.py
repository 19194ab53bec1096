"""§2.2's lookups in exact ``Fraction`` arithmetic over float ids.

Float ids convert to ``Fraction`` exactly, so this is the paper's
arithmetic on the very network the float engines route, and a lane they
route differently is a deviation of the engine, or a float semantic it
names.

:func:`exact_fast_lookup` is §2.2.1: the source segment's exact
midpoint ``z``, the candidates ``w(σ(z)_m, y) = ⌊z·Δ^m⌋/Δ^m + y/Δ^m``
of Claim 2.4's approach walk (the first ``m`` digits of ``z`` with ``y``
appended), the smallest ``t`` whose candidate lies in the source
segment, and the server covering each point of the backward traversal
``Δ^k·w(σ_t, y) mod 1``, ``k = 0 … t``, which ends at ``y`` (consecutive
repeats compressed).

:func:`exact_dh_lookup` is §2.2.2 on a pinned ``τ``: phase I steps the
source ``w(τ_t, x)`` and the image ``w(τ_t, y)`` forward a digit at a
time until the image is covered by the current server or one of its
§2.1 neighbours, whose sets it derives exactly from the segments' images
``f_d(s(x_i))``; phase II walks the images back to ``y``.
"""

import functools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import List, Sequence, Set, Tuple

from repro.core.lookup import MAX_WALK_STEPS, compress_path

#: How near a boundary an exact walk point must lie for a float rounding
#: to cross it: a few ulps of 1.
NEAR = Fraction(1, 2 ** 50)


def digits_to_point(digits: Sequence[int], delta: int = 2) -> Fraction:
    """Exact point ``0.d_1 d_2 …`` (base ``Δ``) as a Fraction."""
    assert all(0 <= d < delta for d in digits), digits
    return sum((Fraction(d, delta ** k) for k, d in enumerate(digits, 1)),
               Fraction(0))


def preimage(point: float, delta: int, level: int, offset: int) -> Fraction:
    """``y`` in ``[0, 1)`` whose walk ``(y + offset) / Δ^level`` is ``point``.

    That walk is ``w(σ, y)`` for the ``level`` digits ``σ`` with
    ``Σ_k σ_k Δ^k = offset`` (``σ_0`` applied first): Fast Lookup's
    ``σ(z)`` has offset ``⌊z·Δ^level⌋``.
    """
    return (Fraction(point) * delta ** level - offset) % 1


def near_a_boundary(walk: Sequence[Fraction], points: Sequence[float]) -> bool:
    """Whether some walk point lies within :data:`NEAR` of a segment start."""
    bounds = [Fraction(p) for p in points] + [Fraction(1)]
    return any(abs(p - b) <= NEAR for p in walk for b in bounds)


def _cover(pts: Sequence[Fraction], p: Fraction) -> int:
    return (bisect_right(pts, p) - 1) % len(pts)


def exact_fast_lookup(points: Sequence[float], delta: int, source: int,
                      target: float) -> Tuple[int, List[int], List[Fraction]]:
    """``(owner, server path, walk points)`` of one Fast Lookup, exactly.

    ``points`` are the sorted float ids, ``source`` the index of the
    server that starts the lookup, ``target`` a float in ``[0, 1)``.
    The walk points are every candidate the stop test read, then the
    backward traversal after the last candidate.
    """
    pts = [Fraction(p) for p in points]
    n = len(pts)
    start = pts[source]
    length = (pts[(source + 1) % n] - start) % 1 if n > 1 else Fraction(1)
    z = (start + length / 2) % 1
    y = Fraction(target)

    def point(m: int) -> Fraction:
        scale = delta ** m
        return (Fraction(int(z * scale)) + y) / scale

    t = next(m for m in range(MAX_WALK_STEPS + 1)
             if n == 1 or (point(m) - start) % 1 < length)
    walk = [point(m) for m in range(t)]
    walk += [point(t) * delta ** k % 1 for k in range(t + 1)]
    return _cover(pts, y), compress_path([_cover(pts, p) for p in walk[t:]]), walk


@functools.lru_cache(maxsize=None)
def _neighbours(points: Tuple[float, ...], delta: int,
                with_ring: bool) -> List[Set[int]]:
    """§2.1's neighbour sets, exactly: ``i ~ j`` when some ``f_d(s(x_i))``
    meets ``s(x_j)`` or the reverse, plus the ring edges."""
    pts = [Fraction(p) for p in points]
    n = len(pts)
    out: List[Set[int]] = [set() for _ in range(n)]
    for i in range(n if n > 1 else 0):
        a, b = pts[i], pts[(i + 1) % n]
        pieces = [(a, b)] if a < b else [(a, Fraction(1)), (Fraction(0), b)]
        for lo, hi in (piece for piece in pieces if piece[0] < piece[1]):
            for d in range(delta):
                # the half-open image [lo', hi') meets the segment
                # holding lo' and each one starting inside it
                img_lo, img_hi = (lo + d) / delta, (hi + d) / delta
                out[i].add(_cover(pts, img_lo))
                out[i].update(range(bisect_right(pts, img_lo),
                                    bisect_left(pts, img_hi)))
    sets = [set(s) for s in out]
    for i in range(n):
        for j in out[i]:
            sets[j].add(i)
        if with_ring and n > 1:
            sets[i] |= {(i - 1) % n, (i + 1) % n}
        sets[i].discard(i)
    return sets


def exact_dh_lookup(points: Sequence[float], delta: int, with_ring: bool,
                    source: float, target: float, tau: Sequence[int]
                    ) -> Tuple[int, List[int], List[Fraction]]:
    """``(owner, server path, walk points)`` of one dh lookup on ``tau``.

    ``points`` are the sorted float ids; ``source`` and ``target`` are
    floats in ``[0, 1)``.  The walk points are each step's
    ``w(τ_t, x)`` and ``w(τ_t, y)``.  A lookup that outruns ``tau``
    raises ``ValueError``, as the float one does.
    """
    pts = [Fraction(p) for p in points]
    neighbours = _neighbours(tuple(points), delta, with_ring)
    position = Fraction(source)
    images = [Fraction(target)]
    servers = [_cover(pts, position)]
    walk = [position, images[0]]
    t = 0
    while True:
        if t > MAX_WALK_STEPS:
            raise RuntimeError("dh_lookup phase I failed to converge")
        holder = _cover(pts, images[-1])
        if holder == servers[-1] or holder in neighbours[servers[-1]]:
            break
        if t == len(tau):
            raise ValueError("supplied tau exhausted before lookup finished")
        position = (position + tau[t]) / delta
        images.append((images[-1] + tau[t]) / delta)
        servers.append(_cover(pts, position))
        walk += [position, images[-1]]
        t += 1
    path = compress_path(servers + [_cover(pts, p) for p in reversed(images)])
    return _cover(pts, images[0]), path, walk
