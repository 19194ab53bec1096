"""The §6.3 canonical path against the paper's exact arithmetic, at boundaries.

The fault-tolerant slice of ``test_exact_fast_lookup.py``.  A lane picks
a source server ``i`` of an overlapping network, a level ``m`` and one
end of the source's closed overlapping segment ``[x_i, end_i]``, sets
``y`` to the preimage of that end under the approach walk
``w(σ(z)_m, ·)`` (``z`` the segment's exact midpoint) and rounds it to
the float below, nearest and above: the stop test of level ``m`` then
reads a candidate on the segment's boundary.
:meth:`~repro.faults.batch_ft.FTBatchEngine.canonical_walks` and the
``Fraction`` oracle :func:`oracles.exact.exact_canonical_path` walk
every lane.

Where both find the same ``t`` and ``⌊z·2^t⌋``, every level point
:func:`~repro.core.walk.level_points` returns is the exact point
correctly rounded: ``y + (s mod 2^j)`` rounds once and the power-of-two
scale is exact.  Where they differ, the float candidate
``fl(fl(y + offset) / 2^m)`` rounded across a segment end it lies
within a few ulps of — the walk-point rounding the Fast Lookup suite
names — and every deviating lane must be of that kind: one exact
candidate within ``2^-50`` of the source segment's ends.  The segment
lengths are exact on these networks, and the float midpoints, rounded
in a quarter of the segments, keep the exact midpoints' digits on every
lane drawn here.  Each example records its ``deviations`` and ``lanes``
as test properties.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.exact import exact_canonical_path, near_a_boundary, preimage

from repro.core.walk import level_points
from repro.faults import FTBatchEngine, OverlappingDHNetwork


@functools.lru_cache(maxsize=None)
def overlapping(n: int, seed: int) -> tuple:
    """``(engine, ids, segment ends)`` of one overlapping network."""
    net = OverlappingDHNetwork(n, np.random.default_rng(seed))
    return FTBatchEngine(net), net.points, [net.end[x] for x in net.points]


def exact_midpoint(ids, ends, i: int) -> Fraction:
    start = Fraction(ids[i])
    return (start + ((Fraction(ends[i]) - start) % 1) / 2) % 1


@st.composite
def boundary_lanes(draw):
    """``(engine, ids, ends, sources, targets)``: candidates on a segment end."""
    engine, ids, ends = overlapping(draw(st.sampled_from([8, 32, 128])),
                                    draw(st.integers(0, 7)))
    sources, targets = [], []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(ids) - 1))
        m = draw(st.integers(0, 40))
        bound = draw(st.sampled_from([ids[i], ends[i]]))
        y = preimage(bound, 2, m, int(exact_midpoint(ids, ends, i) * 2 ** m))
        for side in (-np.inf, None, np.inf):
            near = float(y) if side is None else float(
                np.nextafter(float(y), side))
            if 0.0 <= near < 1.0:
                sources.append(i)
                targets.append(near)
    return engine, ids, ends, sources, targets


def walk_both(engine, ids, ends, sources, targets) -> tuple:
    """``(deviating lanes, those no boundary rounding explains)``; every
    agreeing lane's level points are checked correctly rounded."""
    t, s = engine.canonical_walks(np.asarray(sources, dtype=np.int64),
                                  np.asarray(targets, dtype=np.float64))
    deviating, unexplained = [], []
    for k, (i, y) in enumerate(zip(sources, targets)):
        t_exact, s_exact, points, candidates = exact_canonical_path(
            ids, ends, i, y)
        if (t_exact, s_exact) != (int(t[k]), int(s[k])):
            deviating.append((i, y))
            if not near_a_boundary(candidates, [ids[i], ends[i]]):
                unexplained.append((i, y))
            continue
        got = level_points(np.full(t_exact + 1, y), np.full(t_exact + 1, s[k]),
                           2.0 ** np.arange(t_exact + 1), 2)
        want = [float(p) % 1.0 for p in points]  # 1.0 folds to 0.0
        assert got.tolist() == want, (i, y)
    return deviating, unexplained


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lanes=boundary_lanes())
def test_every_deviation_is_a_boundary_rounding(lanes, record_property):
    deviating, unexplained = walk_both(*lanes)
    assert not unexplained, (
        f"{len(unexplained)} of {len(lanes[3])} lanes deviate from the exact "
        f"canonical path away from every segment end: {unexplained[:3]}")
    record_property("deviations", len(deviating))
    record_property("lanes", len(lanes[3]))


@pytest.mark.parametrize("n", [8, 32, 128])
def test_generic_lanes_walk_exactly(n):
    """Off every boundary the float walk and the exact one agree, lane for
    lane: the same ``t``, the same digits, correctly rounded points."""
    engine, ids, ends = overlapping(n, 0)
    rng = np.random.default_rng(n)
    sources = rng.integers(0, n, 40).tolist()
    targets = rng.random(40).tolist()
    assert walk_both(engine, ids, ends, sources, targets) == ([], [])


def test_the_deviation_is_the_walk_point_rounding():
    """One named deviation: a target a float above the preimage of the
    source segment's end under the level-``m`` approach walk.  The exact
    candidate lies outside the closed segment, less than an ulp of 1
    past its end, and the float candidate rounds back onto the end, so
    the float walk stops at level ``m`` while the exact one goes on (at
    a segment's start, a float below the preimage does the same)."""
    engine, ids, ends = overlapping(128, 0)
    found = None
    for i in range(len(ids)):
        z = exact_midpoint(ids, ends, i)
        for m in range(1, 41):
            y = float(np.nextafter(float(preimage(ends[i], 2, m,
                                                  int(z * 2 ** m))), np.inf))
            t, _ = engine.canonical_walks(np.array([i]), np.array([y]))
            t_exact, _, _, candidates = exact_canonical_path(ids, ends, i, y)
            if int(t[0]) != t_exact:
                found = i, m, int(t[0]), t_exact, candidates
                break
        if found:
            break
    assert found, "no lane a float above a segment end deviates"
    i, m, t, t_exact, candidates = found
    start, end = Fraction(ids[i]), Fraction(ends[i])
    overshoot = (candidates[m] - start) % 1 - (end - start) % 1
    assert t == m < t_exact and 0 < overshoot < Fraction(1, 2 ** 52)
