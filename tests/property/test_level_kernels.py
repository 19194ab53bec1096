"""The fast path's level kernels against the dividing bodies they replaced.

``level_points`` and ``forward_levels`` now scale a power-of-two level
by the exact reciprocal ``1 / Δ^j`` where they divided by ``Δ^j``,
``normalize_array`` folds by ``y − ⌊y⌋`` where it called ``np.mod(y,
1.0)``, and ``CoverIndex.cover`` gathers through ``take``.  Each must
return the frozen parent's bits (:mod:`oracles.walk`,
:mod:`oracles.segments`) on every input class that could tell a
multiply from a divide or one fold from the other: Δ ∈ {2, 3, 4, 5, 8,
16}, levels up to the largest finite scale ``Δ^j ≤ 2^1023``, offsets
past ``2^63``, walk points that underflow into the subnormals, per-lane
scales, the adversarial ``oracles.inputs.point_sets()``, and for the
fold ``−0.0``, subnormals, near-integers, ``±2^53`` and random finite
bit patterns.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.inputs import BELOW_ONE, point_sets
from oracles.segments import parent_cover, parent_normalize_array
from oracles.walk import parent_forward_levels, parent_level_points

from repro.core.lookup import MAX_WALK_STEPS
from repro.core.segments import (CoverIndex, SegmentMap, cover_indices,
                                 normalize_array)
from repro.core.walk import exact_digits, forward_levels, level_points

DELTAS = (2, 3, 4, 5, 8, 16)
TINY = 5e-324  # the least subnormal


def top_level(delta: int) -> int:
    """The deepest level a kernel can be asked for at ``delta``."""
    if delta & (delta - 1):
        return exact_digits(delta)
    return 1023 // (delta.bit_length() - 1)  # Δ^j ≤ 2^1023, finite


def ring_points(rng, size: int, pts: np.ndarray) -> np.ndarray:
    """Targets in ``[0, 1)``: the ids, their float neighbours, the ends,
    subnormals and uniforms."""
    picks = [pts, np.nextafter(pts, 1.0), np.nextafter(pts, 0.0),
             np.array([0.0, BELOW_ONE, TINY, 1e-310, 2.0**-1022]),
             rng.random(size)]
    ys = np.concatenate(picks)
    ys = ys[(ys >= 0.0) & (ys < 1.0)]
    return rng.permutation(ys)[:size] if ys.size > size else ys


def offsets(rng, size: int, scale: float, delta: int) -> np.ndarray:
    """Integer-valued walk offsets: below, at and far past the scale.

    A third are ``k·scale`` (the low digits vanish, so a subnormal
    ``y`` underflows), a third cross ``2^63`` and beyond, the rest are
    below the scale.  Non-power-of-two Δ get ``int64`` offsets below
    ``2^53``, as the callers' level caps keep them.
    """
    if delta & (delta - 1):
        return rng.integers(0, 2**53, size, dtype=np.int64)
    kind = rng.integers(0, 3, size)
    below = np.floor(rng.random(size) * scale)
    at = scale * rng.integers(0, 1 << 20 if scale < 2.0**1000 else 2, size)
    far = np.floor(np.ldexp(rng.random(size), rng.integers(63, 1024, size)))
    return np.where(kind == 0, below, np.where(kind == 1, at, far))


@settings(max_examples=200, deadline=None)
@given(pts=point_sets(), delta=st.sampled_from(DELTAS),
       depth=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       per_lane=st.booleans())
def test_level_points_equal_the_dividing_parent(pts, delta, depth, seed,
                                                per_lane):
    rng = np.random.default_rng(seed)
    top = top_level(delta)
    j = int(round(depth * top))
    ys = ring_points(rng, 64, pts)
    if per_lane and delta & (delta - 1) == 0:  # the §6 engines' form
        scale = float(delta) ** rng.integers(0, top + 1, ys.size)
    else:
        scale = float(delta) ** j
    off = offsets(rng, ys.size, float(np.max(scale, initial=1.0)), delta)
    got = level_points(ys, off, scale, delta)
    assert_same(got, parent_level_points(ys, off, scale, delta))
    assert ((got >= 0.0) & (got < 1.0)).all()


@pytest.mark.parametrize("delta", [2, 4, 8, 16])
def test_the_largest_finite_scale_and_its_underflow(delta):
    """At ``Δ^j = 2^1023`` (or the last power below it) the reciprocal is
    subnormal, and a subnormal ``y`` over zero low digits lands on 0."""
    scale = float(delta) ** top_level(delta)
    with pytest.raises(OverflowError):
        float(delta) ** (top_level(delta) + 1)
    ys = np.array([TINY, 1e-310, 2.0**-1022, 0.5, BELOW_ONE, 0.0])
    for off in (np.zeros(ys.size), np.full(ys.size, scale),
                np.full(ys.size, 2.0**63), np.full(ys.size, scale - 2.0**970)):
        got = level_points(ys, off, scale, delta)
        assert_same(got, parent_level_points(ys, off, scale, delta))
        assert ((got >= 0.0) & (got < 1.0)).all()
    zero_low = level_points(ys, np.zeros(ys.size), scale, delta)
    assert_same(zero_low[:3], np.zeros(3))  # underflowed to +0.0


def segment_test(pts: np.ndarray, ci: np.ndarray):
    """``lanes -> (p -> p in segment(ci[lanes]))``, half-open and
    wrap-aware, from the sorted ids alone."""
    start = pts[ci]
    end = np.append(pts, 1.0)[ci + 1]
    wraps = ci == pts.size - 1

    def for_lanes(lanes):
        a, b, w = start[lanes], end[lanes], wraps[lanes]
        lo = pts[0]
        return lambda p: ((p >= a) & (p < b)) | (w & (p < lo))

    return for_lanes


@settings(max_examples=150, deadline=None)
@given(pts=point_sets(), delta=st.sampled_from(DELTAS),
       seed=st.integers(0, 2**32 - 1))
def test_forward_levels_equal_the_dividing_parent(pts, delta, seed):
    """Same levels, same ``⌊z·Δ^t⌋`` bits, same lane order; a search that
    cannot converge fails in both."""
    rng = np.random.default_rng(seed)
    src, y = rng.random(200), ring_points(rng, 200, pts)
    ci = cover_indices(pts, src)
    z = SegmentMap.midpoints_from_array(pts)[ci]
    test = segment_test(pts, ci)
    cap = MAX_WALK_STEPS if delta & (delta - 1) == 0 else exact_digits(delta)
    try:
        want = parent_forward_levels(y, z.copy(), delta, test, cap)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="failed to converge"):
            forward_levels(y, z.copy(), delta, test, cap)
        return
    assert_same(forward_levels(y, z.copy(), delta, test, cap), want)


@pytest.mark.parametrize("delta", [3, 5])
def test_a_non_power_of_two_level_still_divides(delta):
    """``1/3`` and ``1/5`` are not exact: where ``(y + s)·(1/Δ)`` is one
    ulp off ``(y + s)/Δ`` and a segment one ulp wide holds the quotient,
    only the division finds the lane at level 1."""
    rng = np.random.default_rng(delta)
    y = next(v for v in rng.random(10_000) * 0.25
             if (v + 1.0) * (1.0 / delta) != (v + 1.0) / delta)
    start = (y + 1.0) / delta  # above y, and z gives s = 1 at level 1
    end = np.nextafter(start, 1.0)
    y, z = np.array([y, y]), np.full(2, 1.5 / delta)
    test = lambda lanes: lambda p: (p >= start) & (p < end)  # noqa: E731
    for kernel in (forward_levels, parent_forward_levels):
        t, s_final, _ = kernel(y, z.copy(), delta, test, 3)
        assert t.tolist() == [1, 1] and s_final.tolist() == [1.0, 1.0]


def fold_inputs(rng, pts: np.ndarray) -> np.ndarray:
    """Every class the two folds could round apart."""
    ints = rng.integers(-2**20, 2**20, 64).astype(np.float64)
    near = np.concatenate([np.nextafter(ints, np.inf),
                           np.nextafter(ints, -np.inf), ints])
    big = np.array([2.0**53, -2.0**53, 2.0**53 + 2, -(2.0**53) - 2,
                    2.0**52 + 0.5, -(2.0**52) - 0.5, 1e300, -1e300])
    tiny = np.array([0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, 2.0**-1022,
                     -(2.0**-1022), 1.0, -1.0, BELOW_ONE, -BELOW_ONE])
    bits = rng.integers(0, 2**64, 256, dtype=np.uint64,
                        endpoint=False).view(np.float64)
    bits = bits[np.isfinite(bits)]
    return np.concatenate([near, big, tiny, bits, pts, -pts, pts + 3.0,
                           pts - 7.0, rng.normal(0.0, 1e6, 64)])


@settings(max_examples=150, deadline=None)
@given(pts=point_sets(), seed=st.integers(0, 2**32 - 1))
def test_floor_fold_equals_the_mod_fold(pts, seed):
    ys = fold_inputs(np.random.default_rng(seed), pts)
    got = normalize_array(ys)
    assert_same(got, parent_normalize_array(ys))
    assert ((got >= 0.0) & (got < 1.0)).all()
    assert not np.signbit(got).any()  # −0.0 and the integers fold to +0.0


def test_the_fold_is_fresh_and_takes_scalars_and_lists():
    ys = np.array([-0.0, 1.0, 2.5])
    got = normalize_array(ys)
    assert got is not ys and ys[0] == 0.0 and np.signbit(ys[0])
    assert_same(got, np.array([0.0, 0.0, 0.5]))
    for raw in (-0.0, 3, [1.0, -2.25], math.pi):
        assert_same(normalize_array(raw), parent_normalize_array(raw))


@settings(max_examples=200, deadline=None)
@given(pts=point_sets(), seed=st.integers(0, 2**32 - 1))
def test_take_gathered_cover_equals_the_parent(pts, seed):
    rng = np.random.default_rng(seed)
    index = CoverIndex(pts)
    size = len(index.grid)
    edges = np.arange(size) / size
    ys = np.concatenate([ring_points(rng, 300, pts), edges,
                         np.nextafter(edges[1:], 0.0)])
    got = index.cover(ys)
    assert_same(got, parent_cover(index, ys))
    assert_same(got, cover_indices(pts, ys))
