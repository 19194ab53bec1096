"""The batch Fast Lookup against the paper's exact arithmetic, at boundaries.

Every other parity suite compares float to float.  This one routes
targets built to land a walk point on, or one ulp beside, a segment
boundary — the place a rounding can change a cover — through
:meth:`~repro.core.batch.BatchRouter.batch_fast_lookup` and through the
``Fraction`` oracle :func:`oracles.exact.exact_fast_lookup`, for
Δ ∈ {2, 3, 4} on tiny, clustered and smooth networks.

A case picks a source (its segment's exact midpoint ``z`` fixes the
digits ``σ = σ(z)_j`` the walk uses at level ``j``), a level ``j`` and a
boundary ``b`` (a segment start), sets ``y`` to the preimage of ``b``
under ``w(σ, ·)``, ``y = b·Δ^j − ⌊z·Δ^j⌋ (mod 1)``, and rounds it to the
float below, nearest and above.

Both float engines (scalar and batch, which agree bit for bit) compute
a walk point as ``fl(fl(y + offset) / Δ^m)``: ``y + offset`` rounds away
``y``'s low bits, so a point whose exact value lies within a few ulps
of a segment boundary can land on the other side of it and take the
neighbouring server.  Every deviating lane (owner or server path unlike
the oracle's) must be of that kind: one of its exact walk points lies
within ``2^-50`` of a boundary.  Each run regenerates the deviation
count: every example records its ``deviations`` and ``lanes`` as test
properties, which ``pytest --junitxml=out.xml -o junit_family=xunit1``
writes out per Δ.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.exact import exact_fast_lookup, near_a_boundary, preimage
from oracles.inputs import KINDS, boundary_network

from repro.core import fast_lookup


def fast_preimage(points, delta: int, source: int, level: int,
                  bound: int) -> Fraction:
    """``y`` with ``w(σ(z)_level, y) = points[bound]``, exactly, in ``[0, 1)``."""
    n = len(points)
    start = Fraction(points[source])
    length = (Fraction(points[(source + 1) % n]) - start) % 1 if n > 1 else 1
    z = (start + Fraction(length) / 2) % 1
    return preimage(points[bound], delta, level, int(z * delta ** level))


@st.composite
def boundary_cases(draw, delta: int):
    """``(points, sources, targets)``: lanes aimed at a segment boundary."""
    net = boundary_network(draw(st.sampled_from(KINDS)), delta,
                           draw(st.integers(0, 7)))
    points = net.segments.column
    n = points.size
    sources, targets = [], []
    for _ in range(draw(st.integers(1, 16))):
        source = draw(st.integers(0, n - 1))
        y = fast_preimage(points, delta, source, draw(st.integers(0, 40)),
                          draw(st.integers(0, n - 1)))
        for side in (-np.inf, None, np.inf):
            near = float(y) if side is None else float(
                np.nextafter(float(y), side))
            if 0.0 <= near < 1.0:
                sources.append(float(points[source]))
                targets.append(near)
    return net, sources, targets


def deviations(net, sources, targets) -> tuple:
    """``(deviating lanes, those no boundary rounding explains)``."""
    res = net.compile_router().batch_fast_lookup(sources, targets,
                                                 keep_paths="csr")
    points = net.segments.column
    deviating, unexplained = [], []
    for i, (s, y) in enumerate(zip(sources, targets)):
        owner, path, walk = exact_fast_lookup(
            points, net.delta, int(np.searchsorted(points, s)), y)
        got = res.path_servers[res.path_offsets[i]:res.path_offsets[i + 1]]
        if owner != res.owner_idx[i] or path != got.tolist():
            deviating.append((s, y))
            if not near_a_boundary(walk, points):
                unexplained.append((s, y))
    return deviating, unexplained


@pytest.mark.parametrize("delta", [2, 3, 4])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_deviation_is_a_boundary_rounding(delta, data, record_property):
    net, sources, targets = data.draw(boundary_cases(delta))
    deviating, unexplained = deviations(net, sources, targets)
    assert not unexplained, (
        f"{len(unexplained)} of {len(targets)} lanes deviate from the exact "
        f"Fast Lookup away from every boundary: {unexplained[:3]}")
    record_property("deviations", len(deviating))
    record_property("lanes", len(targets))


def test_the_float_walk_point_rounding_on_a_recorded_lane():
    """The named float semantic, pinned on one lane.

    On the clustered n = 16 network (Δ = 2, seed 0) a walk point of this
    lane lies within a few ulps of a segment boundary, and
    ``fl(fl(y + offset) / Δ^m)`` rounds it across: both float engines
    take the neighbouring server on the way, the exact walk does not,
    and all three reach the same owner.
    """
    net = boundary_network("clustered", 2, 0)
    points = net.segments.column
    source, target = 0.2697867137638703, 0.08724998293084572
    res = net.compile_router().batch_fast_lookup([source], [target],
                                                 keep_paths="csr")
    scalar = fast_lookup(net, source, target)
    owner, exact_path, _ = exact_fast_lookup(
        points, 2, int(np.searchsorted(points, source)), target)
    scalar_path = [int(np.searchsorted(points, float(p)))
                   for p in scalar.server_path]
    assert res.path_servers.tolist() == scalar_path == [2, 3, 1]
    assert exact_path == [2, 1]
    assert res.owner_idx.tolist() == [owner] == [1]
    assert float(scalar.owner) == points[1]
