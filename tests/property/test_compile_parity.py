"""Property tests: the columnar full compile equals the scalar oracles.

``BatchRouter`` compiles a float network from its sorted point column
alone — adjacency as per-row index ranges, midpoints from array
arithmetic.  ``adjacency_arrays`` and ``midpoints_array``
(:mod:`oracles.adjacency`, :mod:`oracles.segments`) walk the same
definitions server by server through ``Arc`` objects and stay as the
oracles.  The contract is
``np.array_equal`` on every float point set, so the point sets are the
adversarial ones of :mod:`oracles.inputs` (clustered ids, adjacent
floats, dyadic points, 0.0 and ``nextafter(1, 0)``, tiny n — which
always has a fat segment of length ≥ 1/Δ) plus pinned cases for each
place the float images can fold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.adjacency import adjacency_arrays, csr_keys, edge_keys
from oracles.inputs import BELOW_ONE, joined, point_sets, populated
from oracles.segments import midpoints_array

from repro.core.interval import Arc

DELTAS = (2, 3, 4)


def oracle_keys(net) -> np.ndarray:
    """The edge-key table encoded from the scalar neighbour sets."""
    return csr_keys(*adjacency_arrays(net))


def assert_compile_equals_oracle(net) -> None:
    router = net.compile_router(with_adjacency=True)
    assert np.array_equal(edge_keys(router), oracle_keys(net))
    assert np.array_equal(router.midpoints, midpoints_array(net.segments))
    # segment i is [x_i, x_{i+1}); the last one wraps to x_0
    starts = net.segments.as_array()
    assert np.array_equal(router.points, starts)
    assert np.array_equal(router.seg_end, np.roll(starts, -1))


class TestColumnarCompileEqualsOracle:
    @settings(max_examples=200, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from(DELTAS),
           with_ring=st.booleans())
    def test_adversarial_point_sets(self, points, delta, with_ring):
        assert_compile_equals_oracle(
            joined(points.tolist(), delta, with_ring, seed=0))

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("with_ring", [True, False])
    @pytest.mark.parametrize("points", [
        [0.3], [0.0], [BELOW_ONE],               # n = 1: no edges at all
        [0.1, 0.7], [0.0, 0.5], [0.0, BELOW_ONE],
        [0.2, 0.4, 0.9],
        # seam segment with and without a piece below x_0
        [0.0, 0.25, 0.5, 0.75], [0.125, 0.25, 0.5, 0.75],
        # [x, 1): the image end 1/Δ + (Δ-1)/Δ rounds to 1.0 and folds,
        # and for x = nextafter(1, 0) the start folds with it (full ring)
        [0.5, BELOW_ONE], [0.25, 0.5, float(np.nextafter(BELOW_ONE, 0.0)),
                           BELOW_ONE],
        # one fat segment, |s|·Δ >= 1: preimage is the full ring
        [0.6, 0.61, 0.62], [0.0, 0.5, 0.75], [0.05, 0.55, 0.8],
        # ids one ulp apart: images whose two ends round together
        [0.5, float(np.nextafter(0.5, 1.0)), 0.9],
        [5e-324, 1e-320, 0.3],
    ])
    def test_pinned_boundary_cases(self, points, delta, with_ring):
        assert_compile_equals_oracle(
            joined(points, delta, with_ring, seed=0))

    @pytest.mark.parametrize("delta", DELTAS)
    def test_uniform_network(self, delta):
        net = populated(300, delta, delta)
        assert_compile_equals_oracle(net)

    def test_full_rebuild_after_churn_is_columnar_too(self):
        net = populated(64, 11)
        router = net.router(auto_refresh=True, with_adjacency=True,
                            churn_budget=1)
        net.populate(8)
        router.refresh()
        assert router.refresh_stats.full_rebuilds == 1
        assert np.array_equal(edge_keys(router), oracle_keys(net))
        assert np.array_equal(router.midpoints,
                              midpoints_array(net.segments))


class TestObjectLayerStaysOffTheCompilePath:
    def test_full_compile_builds_no_arc_per_server(self, monkeypatch):
        """Count-based guard: a compile may build O(1) ``Arc`` objects."""
        net = populated(4096, 5)
        built = []
        post_init = Arc.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(Arc, "__post_init__", counting)
        router = net.compile_router(with_adjacency=True)
        assert len(built) <= 8
        assert router.n == 4096 and edge_keys(router).size > 4096
