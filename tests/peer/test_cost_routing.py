"""Unit tests for the P4P/ALTO cost layer (:mod:`repro.peer`).

Pins the determinism contracts the docs promise (docs/COST_MODEL.md):
pure-hash cost columns, batch/scalar selection twins, the degenerate
all-zero map collapsing ``weighted`` onto ``uniform`` bit-for-bit, the
``tau_used`` replay hook of the core engine, and cost columns that
survive churn refresh and a sharded fast lookup bit-identically.
"""

import numpy as np
import pytest
from oracles.compare import assert_same
from oracles.inputs import populated
from oracles.overlap import WholeChunkFTEngine

from repro.core import BatchRouter
from repro.core.lookup import compress_path
from repro.faults import FTBatchEngine, OverlappingDHNetwork, simple_lookup
from repro.peer import (
    POLICIES,
    CostAwareBatchRouter,
    CostMap,
    CostOracle,
    cross_isp_counts,
    hash01,
    pair_costs,
    select_index,
    select_rows,
)
from repro.peer.costmap import _ISP_SALT

_NET = OverlappingDHNetwork(128, np.random.default_rng(1234))
_MAP = CostMap.synthetic(n_isps=4, rng=np.random.default_rng(7))
_ENGINE = FTBatchEngine(_NET, cost_map=_MAP)
_ORACLE = _ENGINE.cost


class TestCostMap:
    def test_hash_is_pure(self):
        pts = np.random.default_rng(0).random(64)
        a = hash01(pts, _ISP_SALT)
        b = hash01(pts.copy(), _ISP_SALT)
        assert np.array_equal(a, b)
        assert ((a >= 0.0) & (a < 1.0)).all()

    def test_columns_depend_only_on_points(self):
        pts = np.sort(np.random.default_rng(1).random(50))
        c1 = _MAP.columns(pts)
        c2 = _MAP.columns(pts.copy())
        for name in ("cost_isp", "cost_x", "cost_y"):
            assert np.array_equal(c1[name], c2[name])
        assert c1["cost_isp"].min() >= 0
        assert c1["cost_isp"].max() < _MAP.n_isps
        assert c1["cost_x"].max() < _MAP.dist_scale

    def test_synthetic_matrix_shape(self):
        m = CostMap.synthetic(n_isps=5, rng=np.random.default_rng(2))
        assert m.n_isps == 5
        assert np.array_equal(m.isp_cost, m.isp_cost.T)
        assert (np.diag(m.isp_cost) == 0.0).all()
        assert m.isp_cost[~np.eye(5, dtype=bool)].min() >= 1.0

    def test_synthetic_inter_isp_band(self):
        """Inter-ISP entries fill ``[1, 10)``, above any distance term."""
        m = CostMap.synthetic(n_isps=64, rng=np.random.default_rng(3))
        inter = m.isp_cost[~np.eye(64, dtype=bool)]
        assert 1.0 <= inter.min() and 9.0 < inter.max() < 10.0
        assert m.dist_scale * np.sqrt(2.0) < inter.min()

    def test_degenerate_map(self):
        m = CostMap(isp_cost=np.zeros((1, 1)), dist_scale=0.0)
        assert m.n_isps == 1
        pts = np.random.default_rng(3).random(10)
        x, y = m.coords_of(pts)
        assert (x == 0.0).all() and (y == 0.0).all()
        c = pair_costs(m.isp_of(pts), m.isp_of(pts), x, y, x, y, m.isp_cost)
        assert (c == 0.0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            CostMap(isp_cost=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            CostMap(isp_cost=np.zeros(4))
        with pytest.raises(ValueError):
            CostMap.synthetic(n_isps=0)


class TestSelection:
    def test_check_policy(self):
        """Both selection entry points refuse an unknown policy by name."""
        with pytest.raises(ValueError, match="policy must be one of .*'cheapest'"):
            select_index(np.zeros(2), 0.5, "cheapest")
        with pytest.raises(ValueError, match="policy must be one of .*'cheapest'"):
            select_rows(np.zeros((2, 1)), None, np.zeros(1), "cheapest")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rows_match_index(self, policy):
        """Batch selection ≡ the scalar twin, lane by lane, bit-for-bit."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            K, B = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            costs = rng.random((K, B)) * 10
            ok = rng.random((K, B)) < 0.7
            ok[rng.integers(0, K), :] = True  # every lane keeps a row
            u = rng.random(B)
            rows = select_rows(costs, ok, u, policy)
            for b in range(B):
                valid = np.flatnonzero(ok[:, b])
                pick = select_index(costs[valid, b], float(u[b]), policy)
                assert valid[pick] == rows[b]

    def test_greedy_tie_break_is_scan_order(self):
        costs = np.array([[2.0], [1.0], [1.0]])
        ok = np.ones((3, 1), dtype=bool)
        assert select_rows(costs, ok, None, "greedy")[0] == 1

    def test_uniform_is_floor_rule(self):
        rng = np.random.default_rng(5)
        costs = rng.random((6, 40))
        ok = rng.random((6, 40)) < 0.6
        ok[0, :] = True
        u = rng.random(40)
        rows = select_rows(costs, ok, u, "uniform")
        for b in range(40):
            valid = np.flatnonzero(ok[:, b])
            pick = min(int(u[b] * valid.size), valid.size - 1)
            assert rows[b] == valid[pick]

    def test_weighted_needs_uniforms(self):
        with pytest.raises(ValueError):
            select_rows(np.zeros((2, 2)), np.ones((2, 2), bool), None,
                        "weighted")


class TestOracle:
    def test_columns_are_the_maps(self):
        """An engine's oracle holds its ids' map columns, and no ids."""
        cols = _MAP.columns(_NET.points_array)
        for got, name in ((_ORACLE.isp, "cost_isp"), (_ORACLE.x, "cost_x"),
                          (_ORACLE.y, "cost_y")):
            assert_same(got, cols[name], what=name)
        assert not hasattr(_ORACLE, "points")

    def test_edge_costs_symmetry(self):
        i = np.arange(8)
        j = np.arange(8, 16)
        assert np.array_equal(_ORACLE.edge_costs(i, j),
                              _ORACLE.edge_costs(j, i))

    def test_csr_accounting(self):
        # every path holds its source: a one-entry row is a 0-hop lookup
        servers = np.array([0, 1, 1, 2, 5], dtype=np.int64)
        offsets = np.array([0, 2, 3, 5], dtype=np.int64)
        labels = _ORACLE.isp
        cross = cross_isp_counts(labels, servers, offsets)
        assert cross.shape == (3,)
        assert cross[1] == 0


class TestFTPolicyParity:
    def _route(self, policy, plan=None, engine=_ENGINE, pairs=300):
        rng = np.random.default_rng(99)
        src = _NET.points_array[rng.integers(_NET.n, size=pairs)]
        tgt = rng.random(pairs)
        choices = rng.random((pairs, 32))
        batch = engine.batch_simple_lookup(
            src, tgt, choices=choices, plan=plan, keep_paths="csr",
            policy=policy)
        return src, tgt, choices, batch

    @pytest.mark.parametrize("policy", ["greedy", "weighted"])
    def test_batch_matches_scalar(self, policy):
        src, tgt, choices, batch = self._route(policy)
        for i in range(60):
            res = simple_lookup(_NET, float(src[i]), "probe",
                                target=float(tgt[i]),
                                choices=list(choices[i]), cost_map=_MAP,
                                policy=policy)
            assert bool(res.success) == bool(batch.success[i])
            assert res.messages == int(batch.messages[i])
            assert compress_path(res.servers) == batch.server_path(i)

    def test_zero_cost_weighted_equals_uniform(self):
        """The degenerate map collapses weighted onto uniform bit-for-bit."""
        zero_map = CostMap(isp_cost=np.zeros((1, 1)), dist_scale=0.0)
        zero = FTBatchEngine(_NET, cost_map=zero_map)
        _, _, _, w = self._route("weighted", engine=zero)
        _, _, _, u = self._route("uniform", engine=FTBatchEngine(_NET))
        assert np.array_equal(w.success, u.success)
        assert np.array_equal(w.messages, u.messages)
        assert np.array_equal(w.path_servers, u.path_servers)
        assert np.array_equal(w.path_offsets, u.path_offsets)

    def test_greedy_reduces_cross_isp(self):
        _, _, _, u = self._route("uniform")
        _, _, _, g = self._route("greedy")
        cross_u = cross_isp_counts(_ORACLE.isp, u.path_servers,
                                   u.path_offsets).mean()
        cross_g = cross_isp_counts(_ORACLE.isp, g.path_servers,
                                   g.path_offsets).mean()
        assert cross_g < cross_u
        assert np.array_equal(u.parallel_time, g.parallel_time)
        # the softmin policy sits between the two (X6's third claim)
        _, _, _, w = self._route("weighted")
        cross_w = cross_isp_counts(_ORACLE.isp, w.path_servers,
                                   w.path_offsets).mean()
        assert cross_g <= cross_w <= cross_u

    def test_policy_needs_cost_map(self):
        """A cost-less engine refuses a cost policy in BatchRouter's words,
        and routes the uniform one as the cost engine does."""
        plain = FTBatchEngine(_NET)
        with pytest.raises(ValueError) as ft_err:
            self._route("greedy", engine=plain)
        with pytest.raises(ValueError) as core_err:
            populated(64, 3).compile_router().batch_dh_lookup(
                0.25, 0.5, policy="greedy")
        assert str(ft_err.value) == str(core_err.value).replace(
            "BatchRouter(", "FTBatchEngine(")
        assert str(ft_err.value).startswith(
            "cost_map must be set to route with policy 'greedy', got None")
        assert_same(self._route("uniform", engine=plain)[3],
                    self._route("uniform")[3],
                    ("success", "messages", "path_servers", "path_offsets"))

    @pytest.mark.parametrize("policy", ["greedy", "weighted"])
    def test_cost_engine_equals_frozen_oracle_engine(self, policy):
        """``FTBatchEngine(net, cost_map=)`` routes as the frozen engine
        driven with ``oracle=CostOracle(points, map)``, bit for bit."""
        src, tgt, choices, got = self._route(policy)
        want = WholeChunkFTEngine(_NET).batch_simple_lookup(
            src, tgt, choices=choices, keep_paths="csr",
            oracle=CostOracle(_NET.points_array, _MAP), policy=policy)
        assert_same(got, want, ("source_idx", "t", "success", "messages",
                                "parallel_time", "holder_idx",
                                "path_servers", "path_offsets", "policy"))

    def test_scalar_policy_needs_cost_map(self):
        """The scalar walk refuses a cost policy in the engines' words."""
        with pytest.raises(ValueError) as scalar_err:
            simple_lookup(_NET, _NET.points[0], "probe",
                          rng=np.random.default_rng(0), policy="greedy")
        with pytest.raises(ValueError) as ft_err:
            self._route("greedy", engine=FTBatchEngine(_NET))
        assert str(scalar_err.value) == str(ft_err.value).replace(
            "FTBatchEngine(", "simple_lookup(")


class TestCoreEngine:
    @classmethod
    def setup_class(cls):
        net = populated(128, 2024)
        cls.net = net
        cls.router = BatchRouter(net, auto_refresh=True, cost_map=_MAP)
        rng = np.random.default_rng(7)
        pts = net.segments.as_array()
        cls.src = pts[rng.integers(net.n, size=400)]
        cls.tgt = rng.random(400)
        cls.u = rng.random((400, 64))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_tau_replay_is_bit_identical(self, policy):
        """A cost rule's ``tau_used`` replays its batch; the uniform rule
        records none, and its digits are ``min(⌊u·Δ⌋, Δ − 1)``."""
        res = self.router.batch_dh_lookup(
            self.src, self.tgt, choices=self.u, policy=policy,
            keep_paths="csr")
        tau = res.tau_used
        if policy == "uniform":
            assert tau is None and res.algorithm == "dh"
            delta = self.router.delta
            tau = np.minimum((self.u * delta).astype(np.int64), delta - 1)
        replay = self.router.batch_dh_lookup(self.src, self.tgt, tau=tau,
                                             keep_paths="csr")
        assert np.array_equal(res.owner_idx, replay.owner_idx)
        assert np.array_equal(res.hops, replay.hops)
        assert np.array_equal(res.path_servers, replay.path_servers)
        assert np.array_equal(res.path_offsets, replay.path_offsets)

    def test_plain_router_raises_actionably(self):
        plain = self.net.compile_router()
        with pytest.raises(ValueError, match="cost_map="):
            plain.batch_dh_lookup(self.src, self.tgt, policy="greedy")

    def test_non_finite_target_rejected_by_lane(self):
        tgt = self.tgt.copy()
        tgt[7] = np.nan
        with pytest.raises(ValueError,
                           match=r"targets\[7\] must be a finite real, got nan"):
            self.router.batch_dh_lookup(self.src, tgt, policy="greedy")

    def test_weighted_needs_uniform_source(self):
        with pytest.raises(ValueError):
            self.router.batch_dh_lookup(self.src, self.tgt, policy="weighted")

    def test_tau_with_policy_is_refused(self):
        """The policy picks the digits; ``tau=`` replays them without one."""
        tau = np.zeros((400, 64), dtype=np.int64)
        with pytest.raises(ValueError, match=r"^tau must be None when "
                           r"policy 'greedy' picks .*, got ndarray$"):
            self.router.batch_dh_lookup(self.src, self.tgt, tau=tau,
                                        policy="greedy")
        with pytest.raises(ValueError, match=r"^tau must be None when "
                           r"choices picks .*, got ndarray$"):
            self.router.batch_dh_lookup(self.src, self.tgt, tau=tau,
                                        choices=self.u)

    def test_policy_none_is_refused(self):
        """``uniform`` is the default rule; ``None`` names no rule."""
        with pytest.raises(ValueError, match="policy"):
            self.router.batch_dh_lookup(self.src, self.tgt,
                                        rng=np.random.default_rng(0),
                                        policy=None)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_former_spellings_are_the_one_path(self, policy):
        """``CostAwareBatchRouter`` is ``BatchRouter(cost_map=)`` with its
        adjacency built, and ``batch_cost_dh_lookup`` is
        ``batch_dh_lookup(policy=)``: same columns, same bits."""
        old = CostAwareBatchRouter(self.net, _MAP)
        assert old.adj_first is not None
        assert_same(old, self.router, ("points", "cost_isp"))
        assert_same(old.cost, self.router.cost, ("isp", "x", "y"))
        got = old.batch_cost_dh_lookup(self.src, self.tgt, choices=self.u,
                                       policy=policy, keep_paths="csr")
        want = self.router.batch_dh_lookup(self.src, self.tgt, choices=self.u,
                                           policy=policy, keep_paths="csr")
        assert_same(got, want, ("owner_idx", "t", "hops", "phase1_hops",
                                "tau_used", "path_servers", "path_offsets",
                                "algorithm", "policy"))


class TestChurnAndShards:
    def test_cost_columns_survive_churn(self):
        """After churn + refresh the columns equal a fresh compile's."""
        rng = np.random.default_rng(31)
        net = populated(96, rng)
        router = BatchRouter(net, auto_refresh=True, churn_budget=64,
                             cost_map=_MAP)
        for _ in range(12):
            net.join(float(rng.random()))
        for p in list(net.points())[::9][:6]:
            net.leave(p)
        router.refresh()
        assert router.refresh_stats.incremental >= 1
        fresh = BatchRouter(net, cost_map=_MAP)
        assert_same(router.cost, fresh.cost, ("isp", "x", "y"))

    def test_sharded_cost_lookup_parity(self):
        """A cost router shards its fast lookup like any router: the
        sharded answer equals the in-process one, and the export leaves
        the cost columns and the cost-dh answers as they were."""
        net = populated(128, 32)
        router = BatchRouter(net, auto_refresh=True, cost_map=_MAP)
        rng = np.random.default_rng(8)
        pts = net.segments.as_array()
        src = pts[rng.integers(net.n, size=500)]
        tgt = rng.random(500)
        u = rng.random((500, 64))
        cost_fields = ("owner_idx", "hops", "tau_used", "path_servers",
                       "path_offsets")
        before = router.batch_dh_lookup(src, tgt, choices=u,
                                        policy="weighted", keep_paths="csr")
        columns = [a.copy() for a in (router.cost.isp, router.cost.x,
                                      router.cost.y)]
        local = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        try:
            shard = router.lookup_batch(src, tgt, workers=2,
                                        keep_paths="csr")
        finally:
            router.close_executor()
        assert_same(shard, local, ("sources", "targets", "source_idx",
                                   "owner_idx", "t", "hops", "points",
                                   "path_servers", "path_offsets"))
        assert all(np.array_equal(a, b) for a, b in zip(
            columns, (router.cost.isp, router.cost.x, router.cost.y)))
        after = router.batch_dh_lookup(src, tgt, choices=u,
                                       policy="weighted", keep_paths="csr")
        assert_same(after, before, cost_fields)
        assert after.policy == before.policy == "weighted"
