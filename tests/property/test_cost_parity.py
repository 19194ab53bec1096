"""Property tests for cost-aware covering-edge selection (P4P/ALTO).

Hypothesis drives random cost maps and policies through both engines
and requires bit-parity everywhere the docs promise it:

* the batch FT Simple Lookup of an engine built with ``cost_map=``
  against the scalar per-hop walk with the engine's oracle, the same
  policy and the same choice uniforms;
* the core ``batch_dh_lookup(policy=)`` against the plain ``tau=``
  replay of its recorded ``tau_used`` digits;
* the degenerate all-zero map collapsing ``weighted`` onto ``uniform``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.inputs import populated

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
        engine = FTBatchEngine(_NET, cost_map=_cost_map(seed))
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
                                choices=list(choices[i]), oracle=engine.cost,
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
           policy=st.sampled_from(["uniform", "greedy", "weighted"]))
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
