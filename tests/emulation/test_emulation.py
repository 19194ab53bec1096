"""Unit tests for general graph emulation (paper §7, Theorem 7.1)."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.balance import MultipleChoice
from repro.core.segments import SegmentMap
from repro.emulation import (
    DeBruijnFamily,
    GraphEmulator,
    RingFamily,
    ShuffleExchangeFamily,
    TorusFamily,
)

FAMILIES = [RingFamily(), TorusFamily(), DeBruijnFamily(), ShuffleExchangeFamily()]


def smooth_segments(n, seed=0, t=4):
    rng = np.random.default_rng(seed)
    sm = SegmentMap()
    mc = MultipleChoice(t=t)
    for _ in range(n):
        sm.insert(mc.select(sm, rng))
    return sm


def family_graph(family, k):
    """``G_k`` as a NetworkX graph, for reference computations."""
    g = nx.Graph()
    g.add_nodes_from(range(1 << k))
    g.add_edges_from((u, v) for u in range(1 << k)
                     for v in family.neighbors(k, u))
    return g


class TestFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_degree_bound_respected(self, family):
        k = 6
        for u in range(1 << k):
            assert len(family.neighbors(k, u)) <= family.degree_bound(k)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_symmetry(self, family):
        k = 5
        for u in range(1 << k):
            for v in family.neighbors(k, u):
                assert u in family.neighbors(k, v)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_connected(self, family):
        assert nx.is_connected(family_graph(family, 5))

    def test_ring_is_cycle(self):
        g = family_graph(RingFamily(), 4)
        assert all(d == 2 for _, d in g.degree())

    def test_torus_dimensions(self):
        g = family_graph(TorusFamily(), 6)  # 8 × 8
        assert all(d == 4 for _, d in g.degree())

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            RingFamily().neighbors(3, 8)
        with pytest.raises(ValueError):
            RingFamily().neighbors(0, 0)


class TestMapping:
    def test_phi_is_cover_query(self):
        sm = smooth_segments(50, seed=1)
        em = GraphEmulator(sm, RingFamily(), k=6)
        for j in (0, 17, 63):
            assert em.host_of(j) == sm.cover_point(j / 64)

    def test_guests_partition(self):
        """Every guest is simulated by exactly one server."""
        sm = smooth_segments(40, seed=2)
        em = GraphEmulator(sm, TorusFamily(), k=7)
        all_guests = []
        for p in sm:
            all_guests.extend(em.guests_of(p))
        assert sorted(all_guests) == list(range(128))

    def test_guests_locally_computable(self):
        """Φ_k is computed from the server's own segment only (§7)."""
        sm = smooth_segments(30, seed=3)
        em = GraphEmulator(sm, RingFamily(), k=6)
        p = list(sm)[4]
        seg = sm.segment_of(p)
        for j in em.guests_of(p):
            assert (j / 64) in seg

    def test_guest_out_of_range(self):
        sm = smooth_segments(10, seed=4)
        em = GraphEmulator(sm, RingFamily(), k=4)
        with pytest.raises(ValueError):
            em.host_of(16)


class TestSection7Properties:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_properties_smooth(self, family):
        sm = smooth_segments(100, seed=5)
        em = GraphEmulator(sm, family)
        assert all(em.check_properties().values())

    def test_guests_bound_tight_on_grid(self):
        """Perfectly smooth (ρ=1): at most 2 guests per server."""
        sm = SegmentMap([i / 64 + 1e-4 for i in range(64)])
        em = GraphEmulator(sm, RingFamily(), k=6)
        assert em.max_guests_per_server() <= 2

    def test_degree_bound_rho_d(self):
        sm = smooth_segments(80, seed=6)
        rho = sm.smoothness()
        em = GraphEmulator(sm, TorusFamily())
        d = TorusFamily().degree_bound(em.k)
        assert max(em.host_degree(p) for p in sm) <= rho * d

    def test_unsmooth_violates_guest_bound(self):
        """Contrast: a terrible decomposition breaks property (1)."""
        sm = SegmentMap([0.0, 0.5 - 1e-9, 0.5])  # one server covers half of I
        em = GraphEmulator(sm, RingFamily(), k=6)
        rho = sm.smoothness()
        assert em.max_guests_per_server() > 3  # far above what ρ=1 would give


class TestTheorem71:
    def test_level_list_contains_true_level(self):
        sm = smooth_segments(100, seed=7)
        em = GraphEmulator(sm, TorusFamily())
        rho = sm.smoothness()
        true_k = math.ceil(math.log2(100))
        hit = sum(1 for p in sm if true_k in em.level_list(p, rho))
        assert hit == len(sm)

    def test_multi_level_degree_bound(self):
        """Degree ≤ 2 d ρ log ρ when n is unknown."""
        sm = smooth_segments(100, seed=8)
        rho = max(2.0, sm.smoothness())
        fam = TorusFamily()
        em = GraphEmulator(sm, fam)
        d = fam.degree_bound(em.k)
        bound = 2 * d * rho * max(1.0, math.log2(rho)) + d  # +d slack for ceil
        for p in list(sm)[:20]:
            assert len(em.multi_level_hosts(p, rho)) <= bound


class TestRealTimeEmulation:
    @pytest.mark.parametrize("family", [RingFamily(), DeBruijnFamily()])
    def test_round_matches_direct_computation(self, family):
        """Hosts computing guest rounds = direct computation on G_k."""
        sm = smooth_segments(60, seed=9)
        em = GraphEmulator(sm, family)
        rng = np.random.default_rng(10)
        values = {u: float(rng.random()) for u in range(1 << em.k)}
        via_hosts = em.emulate_round(values)
        direct = {
            u: sum(values[v] for v in family.neighbors(em.k, u))
            / len(family.neighbors(em.k, u))
            for u in range(1 << em.k)
        }
        assert via_hosts == pytest.approx(direct)

    def test_iterated_rounds_converge_like_direct(self):
        sm = smooth_segments(40, seed=11)
        em = GraphEmulator(sm, TorusFamily())
        rng = np.random.default_rng(12)
        values = {u: float(rng.random()) for u in range(1 << em.k)}
        for _ in range(20):
            values = em.emulate_round(values)
        spread = max(values.values()) - min(values.values())
        assert spread < 0.5  # averaging dynamics contract via host emulation
