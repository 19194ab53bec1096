"""Unit tests for the Gabber–Galil expander construction (paper §5.2)."""


import networkx as nx
import numpy as np
import pytest

from repro.expander import (
    GG_EXPANSION_CONSTANT,
    GabberGalilNetwork,
    cheeger_bounds,
    gg_f,
    gg_f_inv,
    gg_g,
    gg_g_inv,
    sampled_vertex_expansion,
    spectral_gap,
    vertex_expansion_of_set,
)


class TestTransforms:
    def test_f_definition(self):
        p = np.array([[0.3, 0.4]])
        assert gg_f(p)[0] == pytest.approx([0.7, 0.4])

    def test_g_definition(self):
        p = np.array([[0.3, 0.4]])
        assert gg_g(p)[0] == pytest.approx([0.3, 0.7])

    def test_wrap(self):
        p = np.array([[0.8, 0.9]])
        assert gg_f(p)[0] == pytest.approx([0.7, 0.9])

    def test_inverses(self):
        rng = np.random.default_rng(0)
        p = rng.random((100, 2))
        assert gg_f_inv(gg_f(p)) == pytest.approx(p)
        assert gg_g_inv(gg_g(p)) == pytest.approx(p)

    def test_measure_preserving(self):
        """The shears are measure preserving: uniform stays uniform."""
        rng = np.random.default_rng(1)
        p = rng.random((20000, 2))
        q = gg_f(p)
        # compare cell histograms
        h1, _, _ = np.histogram2d(p[:, 0], p[:, 1], bins=4)
        h2, _, _ = np.histogram2d(q[:, 0], q[:, 1], bins=4)
        assert np.abs(h1 - h2).max() < 20000 * 0.02


class TestTheorem51:
    """µ(δA) ≥ ((2−√3)/2)·µ(A) for measurable A with µ(A) ≤ ½."""

    @pytest.mark.parametrize(
        "region",
        [
            lambda p: (p[:, 0] < 0.5) & (p[:, 1] < 0.5),           # quarter box
            lambda p: p[:, 0] < 0.3,                                # strip
            lambda p: ((p[:, 0] - 0.5) ** 2 + (p[:, 1] - 0.5) ** 2) < 0.09,  # disc
            lambda p: (p[:, 0] + p[:, 1]) % 1.0 < 0.4,              # diagonal band
        ],
    )
    def test_boundary_measure(self, region):
        rng = np.random.default_rng(42)
        mu_a, mu_b = GabberGalilNetwork.continuous_boundary_measure(
            region, rng, samples=120_000
        )
        assert mu_a <= 0.55
        assert mu_b >= GG_EXPANSION_CONSTANT * mu_a * 0.9  # MC tolerance


class TestDiscreteExpander:
    @pytest.fixture(scope="class")
    def net(self):
        rng = np.random.default_rng(7)
        return GabberGalilNetwork(n=128, rng=rng)

    def test_connected(self, net):
        assert nx.is_connected(net.to_networkx())

    def test_constant_degree(self, net):
        """Corollary 5.2: degree Θ(ρ) — constant, not growing with n."""
        rng = np.random.default_rng(8)
        big = GabberGalilNetwork(n=256, rng=rng)
        assert big.max_degree() <= net.max_degree() * 2 + 10

    def test_spectral_gap_bounded_away_from_zero(self, net):
        lam = spectral_gap(net.to_networkx())
        assert lam > 0.05

    def test_sampled_expansion_exceeds_gg_bound(self, net):
        """Cor 5.2: expansion Ω((2−√3)/ρ); with ρ ≈ 2 the bound is ≈ 0.067."""
        rng = np.random.default_rng(9)
        h = sampled_vertex_expansion(
            net.to_networkx(), rng, positions=net.voronoi.points
        )
        assert h >= GG_EXPANSION_CONSTANT / 2.0

    def test_expansion_verifiable_from_smoothness(self, net):
        """The §5.2 selling point: smooth ids ⇒ certified expander."""
        from repro.balance import is_smooth_2d

        pts = [tuple(p) for p in net.voronoi.points]
        assert is_smooth_2d(pts, rho=4.0) or is_smooth_2d(pts, rho=8.0)

    def test_edges_keep_every_delaunay_pair(self, net):
        """The tessellation's Delaunay edges are the 2D "ring"."""
        edges = net.edges()
        for i in range(net.n):
            for j in net.voronoi.delaunay_neighbors(i):
                assert i == j or (min(i, j), max(i, j)) in edges

    def test_explicit_points_accepted(self):
        side = 8
        pts = [((i + 0.5) / side, (j + 0.5) / side)
               for i in range(side) for j in range(side)]
        net = GabberGalilNetwork(points=pts)
        lam = spectral_gap(net.to_networkx())
        assert lam > 0.1

    def test_requires_points_or_n(self):
        with pytest.raises(ValueError):
            GabberGalilNetwork()


class TestExpansionHelpers:
    def test_vertex_expansion_of_set(self):
        g = nx.cycle_graph(10)
        assert vertex_expansion_of_set(g, [0, 1, 2]) == pytest.approx(2 / 3)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            vertex_expansion_of_set(nx.path_graph(3), [])

    def test_spectral_gap_of_cycle_small(self):
        lam_cycle = spectral_gap(nx.cycle_graph(64))
        lam_complete = spectral_gap(nx.complete_graph(64))
        assert lam_cycle < 0.05 < lam_complete

    def test_spectral_gap_disconnected_zero(self):
        g = nx.union(nx.cycle_graph(5), nx.cycle_graph(5), rename=("a", "b"))
        assert spectral_gap(g) == 0.0

    def test_cheeger_order(self):
        lo, hi = cheeger_bounds(0.3)
        assert lo <= hi
        assert lo == pytest.approx(0.15)

    def test_large_graph_sparse_path(self):
        """Spectral gap via eigsh for n > 600 agrees with known expander."""
        g = nx.random_regular_graph(4, 700, seed=1)
        lam = spectral_gap(g)
        assert lam > 0.1

    def test_random_regular_is_expander(self):
        """Sanity: the classic 'random regular graphs expand' fact [13]."""
        rng = np.random.default_rng(10)
        g = nx.random_regular_graph(6, 200, seed=2)
        h = sampled_vertex_expansion(g, rng)
        assert h > 0.3
