"""Property tests for cost-aware covering-edge selection (P4P/ALTO).

Hypothesis drives random cost maps and policies through both engines
and requires bit-parity everywhere the docs promise it:

* the batch FT Simple Lookup of an engine built with ``cost_map=``
  against the scalar per-hop walk given the same ``cost_map=``, policy
  and choice uniforms;
* the core ``batch_dh_lookup(policy=)`` under a cost policy against the
  plain ``tau=`` replay of its recorded ``tau_used`` digits;
* the core uniform rule as one rule: ``choices=u`` on a cost-less and
  on a ``cost_map=`` router, ``tau=min(⌊u·Δ⌋, Δ − 1)`` and the frozen
  cost walk under ``policy="uniform"`` route alike on adversarial ids;
* the degenerate all-zero map collapsing ``weighted`` onto ``uniform``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.dh_walk import AllLanesWalkOracle
from oracles.inputs import joined, point_sets, populated

from repro.core import BatchRouter
from repro.core.lookup import compress_path
from repro.faults import FTBatchEngine, OverlappingDHNetwork, simple_lookup
from repro.peer import CostMap

seeds = st.integers(min_value=0, max_value=2**31)
MED = settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
               deadline=None)

_NET = OverlappingDHNetwork(128, np.random.default_rng(1234))
_ENGINE = FTBatchEngine(_NET)  # cost-less: the uniform reference

_DNET = populated(96, 4321)
_DPTS = _DNET.segments.as_array()


def _cost_map(seed: int) -> CostMap:
    return CostMap.synthetic(
        n_isps=2 + seed % 7, rng=np.random.default_rng(seed))


class TestFTScalarParity:
    @MED
    @given(seed=seeds, policy=st.sampled_from(["greedy", "weighted"]))
    def test_batch_equals_scalar_walk(self, seed, policy):
        """Random map/policy: batch ≡ scalar, bit-for-bit."""
        cost_map = _cost_map(seed)
        engine = FTBatchEngine(_NET, cost_map=cost_map)
        rng = np.random.default_rng(seed + 1)
        pairs = 40
        src = _NET.points_array[rng.integers(_NET.n, size=pairs)]
        tgt = rng.random(pairs)
        choices = rng.random((pairs, 32))
        batch = engine.batch_simple_lookup(
            src, tgt, choices=choices, keep_paths="csr", policy=policy)
        for i in range(pairs):
            res = simple_lookup(_NET, float(src[i]), "probe",
                                target=float(tgt[i]),
                                choices=list(choices[i]), cost_map=cost_map,
                                policy=policy)
            assert bool(res.success) == bool(batch.success[i])
            assert res.messages == int(batch.messages[i])
            assert res.parallel_time == int(batch.parallel_time[i])
            assert compress_path(res.servers) == batch.server_path(i)

    @MED
    @given(seed=seeds)
    def test_degenerate_map_is_uniform(self, seed):
        """All-zero costs: weighted picks ≡ the inline uniform rule."""
        zero_map = CostMap(isp_cost=np.zeros((1, 1)), dist_scale=0.0)
        zero = FTBatchEngine(_NET, cost_map=zero_map)
        rng = np.random.default_rng(seed)
        pairs = 50
        src = _NET.points_array[rng.integers(_NET.n, size=pairs)]
        tgt = rng.random(pairs)
        choices = rng.random((pairs, 32))
        w = zero.batch_simple_lookup(src, tgt, choices=choices,
                                     keep_paths="csr", policy="weighted")
        u = _ENGINE.batch_simple_lookup(src, tgt, choices=choices,
                                        keep_paths="csr")
        assert np.array_equal(w.success, u.success)
        assert np.array_equal(w.messages, u.messages)
        assert np.array_equal(w.path_servers, u.path_servers)
        assert np.array_equal(w.path_offsets, u.path_offsets)


class TestCoreTauParity:
    @MED
    @given(seed=seeds,
           policy=st.sampled_from(["greedy", "weighted"]))
    def test_tau_used_replays(self, seed, policy):
        """The digits a cost policy takes replay through the plain hook."""
        router = BatchRouter(_DNET, build_adjacency=True,
                             cost_map=_cost_map(seed))
        rng = np.random.default_rng(seed + 2)
        pairs = 40
        src = _DPTS[rng.integers(_DNET.n, size=pairs)]
        tgt = rng.random(pairs)
        u = rng.random((pairs, 64))
        res = router.batch_dh_lookup(src, tgt, choices=u, policy=policy,
                                     keep_paths="csr")
        replay = router.batch_dh_lookup(src, tgt, tau=res.tau_used,
                                        keep_paths="csr")
        assert np.array_equal(res.owner_idx, replay.owner_idx)
        assert np.array_equal(res.hops, replay.hops)
        assert np.array_equal(res.path_servers, replay.path_servers)
        assert np.array_equal(res.path_offsets, replay.path_offsets)


#: What a dh walk routes: the columns the uniform rule's four forms share.
WALK = ("source_idx", "owner_idx", "t", "hops", "phase1_hops",
        "path_servers", "path_offsets")


def _outcome(route):
    """A routed batch, or ``None`` when a walk runs past its float64
    digit cap (segments shorter than ``Δ^-52``), which every form
    refuses with ``RuntimeError``."""
    try:
        return route()
    except RuntimeError:
        return None


class TestOneUniformRule:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]), seed=seeds)
    @example(points=np.array([0.3]), delta=3, seed=0)
    @example(points=np.array([2.0**-126, 0.25, 0.5, 0.75, 1 - 2.0**-53]),
             delta=2, seed=1)
    def test_choices_tau_and_frozen_cost_walk_agree(self, points, delta,
                                                    seed):
        """``choices=u`` routes as ``tau=min(⌊u·Δ⌋, Δ − 1)`` with or
        without a cost map, and as the frozen cost walk's "uniform"."""
        net = joined(points, delta, seed=0)
        cost_map = _cost_map(seed)
        rng = np.random.default_rng(seed)
        size = 24
        src = np.where(rng.random(size) < 0.5,
                       points[rng.integers(points.size, size=size)],
                       rng.random(size))
        tgt = rng.random(size)
        u = rng.random((size, 64))
        tau = np.minimum((u * delta).astype(np.int64), delta - 1)
        kw = dict(keep_paths="csr")
        frozen = AllLanesWalkOracle(net, cost_map)
        want = _outcome(lambda: frozen.batch_cost_dh_lookup(
            src, tgt, choices=u, policy="uniform", **kw))
        for got in (
                _outcome(lambda: net.compile_router().batch_dh_lookup(
                    src, tgt, choices=u, **kw)),
                _outcome(lambda: BatchRouter(net, cost_map=cost_map)
                         .batch_dh_lookup(src, tgt, choices=u, **kw)),
                _outcome(lambda: net.compile_router().batch_dh_lookup(
                    src, tgt, tau=tau, **kw))):
            if want is None:
                assert got is None
            else:
                assert_same(got, want, WALK)
                assert got.algorithm == "dh" and got.tau_used is None

    def test_uniform_reads_no_cost(self, monkeypatch):
        """On a ``cost_map=`` router the uniform rule never scores."""
        router = BatchRouter(_DNET, cost_map=_cost_map(3))
        monkeypatch.setattr(router.cost, "edge_costs", None)
        rng = np.random.default_rng(3)
        src, tgt = _DPTS[rng.integers(_DNET.n, size=50)], rng.random(50)
        for draw in (dict(choices=rng.random((50, 64))),
                     dict(rng=np.random.default_rng(4)),
                     dict(tau=rng.integers(0, 2, (50, 64)))):
            router.batch_dh_lookup(src, tgt, keep_paths="csr", **draw)
        with pytest.raises(TypeError):  # the cost rules do score
            router.batch_dh_lookup(src, tgt, policy="greedy")
