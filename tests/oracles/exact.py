"""§2.2.1 Fast Lookup in exact ``Fraction`` arithmetic over float ids.

Float ids convert to ``Fraction`` exactly, so this is the paper's
arithmetic on the very network the batch engine routes: the source
segment's exact midpoint ``z``, the candidates
``w(σ(z)_m, y) = ⌊z·Δ^m⌋/Δ^m + y/Δ^m`` of Claim 2.4's approach walk (the
first ``m`` digits of ``z`` with ``y`` appended), the smallest ``t`` whose
candidate lies in the source segment, and the server covering each point
of the backward traversal ``Δ^k·w(σ_t, y) mod 1``, ``k = 0 … t``, which
ends at ``y`` (consecutive repeats compressed).  No float rounds
anywhere, so a lane the float engine routes differently is a deviation
of the engine, or a float semantic it names.
"""

from bisect import bisect_right
from fractions import Fraction
from typing import List, Sequence, Tuple

from repro.core.lookup import MAX_WALK_STEPS


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

    def cover(p: Fraction) -> int:
        return (bisect_right(pts, p) - 1) % n

    t = next(m for m in range(MAX_WALK_STEPS + 1)
             if n == 1 or (point(m) - start) % 1 < length)
    walk = [point(m) for m in range(t)]
    walk += [point(t) * delta ** k % 1 for k in range(t + 1)]
    path: List[int] = []
    for p in walk[t:]:
        if not path or path[-1] != cover(p):
            path.append(cover(p))
    return cover(y), path, walk
