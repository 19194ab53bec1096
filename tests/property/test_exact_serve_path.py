"""§3's cache-shortened path against the paper's exact arithmetic, at boundaries.

The path-tree slice of ``test_exact_dh_lookup.py``, on its networks and
Δ.  A lane pins ``τ`` and aims the item's tree root ``h(i)``: it is the
preimage of a segment start ``b`` under ``w(τ_j, ·)``, rounded to the
float below, nearest and above, so the path's phase-II point at level
``j`` is read on a boundary.  Each lane is requested three times in one
batch of a threshold-1 :class:`~repro.core.batch_cache.BatchCacheEngine`:
the second request replicates the root, so the third is served from a
cached node one level down and its path stops short of the root.  The
``Fraction`` oracle :func:`oracles.exact.exact_serve_path` rebuilds each
request's path from the same ``τ`` and the serving depth the engine
reports (the tree's state, which the arithmetic does not model; the
scalar-parity suite pins that), and the engine's ``path_servers`` row
must equal it.  A float walk point ``fl(fl(x + offset) / Δ^j)`` can
round across a boundary it lies within a few ulps of, the walk-point
rounding the Fast Lookup suite names, and every deviating request must be
of that kind: one exact walk point within ``2^-50`` of a boundary.  Each
example records its ``deviations`` and ``lanes`` as test properties.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.exact import exact_serve_path, near_a_boundary, preimage
from oracles.inputs import KINDS, boundary_network

from repro.core import BatchCacheEngine

#: Digits pinned per lane: more than the deepest walk on these networks.
TAU = 96
#: Requests per lane: the second replicates the root, the third is
#: served one level down.
COPIES = 3


def serve(net, lanes):
    """The engine's result for ``lanes``, each requested :data:`COPIES` times.

    Item ``i`` is rooted at lane ``i``'s root: the network's item hash
    is swapped for the lane table while the engine reads the roots.
    """
    roots = [root for _, root, _ in lanes]
    hashed, net.item_hash = net.item_hash, roots.__getitem__
    try:
        engine = BatchCacheEngine(net, list(range(len(lanes))), threshold=1)
    finally:
        net.item_hash = hashed
    rows = [k for k in range(len(lanes)) for _ in range(COPIES)]
    return rows, engine.serve_batch(
        np.asarray(rows), [lanes[k][0] for k in rows],
        tau=np.asarray([lanes[k][2] for k in rows]))


def walk_both(net, lanes) -> tuple:
    """``(requests, deviating, unexplained, deepest serving depth)``."""
    points = net.segments.column
    rows, res = serve(net, lanes)
    deviating, unexplained = [], []
    for r, k in enumerate(rows):
        source, root, tau = lanes[k]
        got = res.path_servers[res.path_offsets[r]:res.path_offsets[r + 1]]
        t, path, walk = exact_serve_path(
            points.tolist(), net.delta, net.with_ring, source, root, tau,
            int(res.serving_depth[r]))
        if (t, path) != (int(res.t[r]), got.tolist()):
            deviating.append((source, root))
            if not near_a_boundary(walk, points):
                unexplained.append((source, root))
    return len(rows), deviating, unexplained, int(res.serving_depth.max())


@st.composite
def boundary_lanes(draw, delta: int):
    """``(net, lanes)``: ``(source, root, τ)`` with ``w(τ_j, h(i))`` on a boundary."""
    net = boundary_network(draw(st.sampled_from(KINDS)), delta,
                           draw(st.integers(0, 7)))
    points = net.segments.column
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lanes = []
    for _ in range(draw(st.integers(1, 6))):
        # a source off every boundary: the phase-I points stay generic
        source = float(rng.random())
        tau = [int(d) for d in rng.integers(0, delta, size=TAU)]
        level = draw(st.integers(0, 6))
        root = preimage(points[draw(st.integers(0, points.size - 1))], delta,
                        level, sum(d * delta ** k
                                   for k, d in enumerate(tau[:level])))
        for side in (-np.inf, None, np.inf):
            near = float(root) if side is None else float(
                np.nextafter(float(root), side))
            if 0.0 <= near < 1.0:
                lanes.append((source, near, tau))
    return net, lanes


@pytest.mark.parametrize("delta", [2, 3, 4])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_deviation_is_a_boundary_rounding(delta, data, record_property):
    net, lanes = data.draw(boundary_lanes(delta))
    requests, deviating, unexplained, _ = walk_both(net, lanes)
    assert not unexplained, (
        f"{len(unexplained)} of {requests} requests deviate from the exact "
        f"serve path away from every boundary: {unexplained[:3]}")
    record_property("deviations", len(deviating))
    record_property("lanes", requests)


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_generic_lanes_serve_exactly(delta):
    """Off every boundary the engine's paths are the exact ones, request
    for request, and some are cut short by a cached node."""
    rng = np.random.default_rng(delta)
    for kind in KINDS:
        net = boundary_network(kind, delta, 0)
        lanes = [(float(rng.random()), float(rng.random()),
                  [int(d) for d in rng.integers(0, delta, size=TAU)])
                 for _ in range(12)]
        _, deviating, _, deepest = walk_both(net, lanes)
        assert deviating == []
        if kind != "tiny":
            assert deepest >= 1


def test_the_deviation_is_the_walk_point_rounding():
    """One named deviation: a root a float below the preimage of a segment
    start ``x_b`` under ``w(τ_j, ·)``.  The exact phase-II point
    ``(h + o_j) / 2^j`` lies less than an ulp of 1 below ``x_b``, and
    ``fl(h + o_j)`` rounds up onto the preimage, so the float point is
    ``x_b`` itself: the engine books server ``b`` where the exact path
    has ``b − 1``, at that level only."""
    net = boundary_network("smooth", 2, 0)
    points = net.segments.column
    rng = np.random.default_rng(0)
    for _ in range(200):
        source, level = float(rng.random()), int(rng.integers(1, 7))
        tau = [int(d) for d in rng.integers(0, 2, size=TAU)]
        offset = sum(d * 2 ** k for k, d in enumerate(tau[:level]))
        b = int(rng.integers(1, points.size))
        root = float(np.nextafter(float(preimage(points[b], 2, level, offset)),
                                  -np.inf))
        _, res = serve(net, [(source, root, tau)])
        t, path, _ = exact_serve_path(points.tolist(), 2, net.with_ring,
                                      source, root, tau, 0)
        got = res.path_servers[:res.path_offsets[1]].tolist()
        if path != got:
            break
    else:
        pytest.fail("no root a float below a boundary preimage deviates")
    exact = (Fraction(root) + offset) / 2 ** level
    assert res.t[0] == t >= level and res.serving_depth[0] == 0
    assert (root + offset) / 2.0 ** level == points[b]
    assert 0 < Fraction(points[b]) - exact < Fraction(1, 2 ** 52)
    swapped = [b - 1 if s == b else s for s in got]
    assert swapped == path and got.count(b) == 1
