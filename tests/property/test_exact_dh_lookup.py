"""The Distance Halving Lookup against the paper's exact arithmetic, at boundaries.

The dh slice of ``test_exact_fast_lookup.py``, on its networks and Δ.  A
lane pins ``τ``, sets ``y`` to the preimage of a segment start ``b``
under ``w(τ_j, ·)`` and rounds it to the float below, nearest and above:
once phase I is ``j`` digits deep, the image ``w(τ_j, y)`` is read on a
boundary by the phase-I stop test and again by phase II.  ``dh_lookup``
and the ``Fraction`` oracle :func:`oracles.exact.exact_dh_lookup` route
every lane.  A float image ``fl(fl(y + offset) / Δ^t)`` or position can
round across a boundary it lies within a few ulps of, the walk-point
rounding the Fast Lookup suite names, and every deviating lane must be
of that kind: one exact walk point within ``2^-50`` of a boundary.  Each
example records its ``deviations`` and ``lanes`` as test properties.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.exact import exact_dh_lookup, near_a_boundary, preimage
from oracles.inputs import KINDS, boundary_network

from repro.core import dh_lookup

#: Digits pinned per lane: more than the deepest walk on these networks.
TAU = 96


@st.composite
def boundary_lanes(draw, delta: int):
    """``(net, lanes)``: ``(source, target, τ)`` with ``w(τ_j, y)`` on a boundary."""
    net = boundary_network(draw(st.sampled_from(KINDS)), delta,
                           draw(st.integers(0, 7)))
    points = net.segments.column
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lanes = []
    for _ in range(draw(st.integers(1, 8))):
        # a source off every boundary: the walk's positions stay generic
        source = float(rng.random())
        tau = [int(d) for d in rng.integers(0, delta, size=TAU)]
        level = draw(st.integers(0, 6))
        y = preimage(points[draw(st.integers(0, points.size - 1))], delta,
                     level, sum(d * delta ** k
                                for k, d in enumerate(tau[:level])))
        for side in (-np.inf, None, np.inf):
            near = float(y) if side is None else float(
                np.nextafter(float(y), side))
            if 0.0 <= near < 1.0:
                lanes.append((source, near, tau))
    return net, lanes


@pytest.mark.parametrize("delta", [2, 3, 4])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_deviation_is_a_boundary_rounding(delta, data, record_property):
    net, lanes = data.draw(boundary_lanes(delta))
    points = net.segments.column
    deviating, unexplained = [], []
    for source, target, tau in lanes:
        ref = dh_lookup(net, source, target, None, tau=tau)
        owner, path, walk = exact_dh_lookup(points.tolist(), delta,
                                            net.with_ring, source, target, tau)
        got = np.searchsorted(points, ref.server_path).tolist()
        if owner != np.searchsorted(points, ref.owner) or path != got:
            deviating.append((source, target))
            if not near_a_boundary(walk, points):
                unexplained.append((source, target))
    assert not unexplained, (
        f"{len(unexplained)} of {len(lanes)} lanes deviate from the exact "
        f"dh lookup away from every boundary: {unexplained[:3]}")
    record_property("deviations", len(deviating))
    record_property("lanes", len(lanes))


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_generic_lanes_route_exactly(delta):
    """Off every boundary the float walk and the exact one agree, lane for
    lane: the oracle's stop test and covers are the lookup's."""
    rng = np.random.default_rng(delta)
    for kind in KINDS:
        net = boundary_network(kind, delta, 0)
        points = net.segments.column
        for _ in range(20):
            source, target = (float(x) for x in rng.random(2))
            tau = [int(d) for d in rng.integers(0, delta, size=TAU)]
            ref = dh_lookup(net, source, target, None, tau=tau)
            owner, path, walk = exact_dh_lookup(
                points.tolist(), delta, net.with_ring, source, target, tau)
            assert not near_a_boundary(walk, points)
            assert owner == np.searchsorted(points, ref.owner)
            assert path == np.searchsorted(points, ref.server_path).tolist()
