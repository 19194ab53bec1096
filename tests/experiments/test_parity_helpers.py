"""The measurement helpers the experiments' parity gates call.

E1, E4, E7 / E8, E13, X4 and X6 each gate a batch layer on a replay
through its scalar twin, at the one size their runs use.  These tests
drive the same helpers away from that size — other network sizes,
algorithms, salt counts, epoch splits and failure rates — and check
that the replays also *fail* when the engines disagree, so a gate that
could never trip would show here.
"""

import numpy as np
import pytest

from repro.core import BatchCacheEngine
from repro.experiments.caching_single import SALTS, trace_parity
from repro.experiments.churn_soak import MASS_FRACTION, PHASES, measure_churn_soak
from repro.experiments.congestion import routed_tally, scalar_congestion
from repro.experiments.cost_routing import measure_cost_routing
from repro.experiments.faults_exp import (FT_CHOICE_DIGITS, measure_faults,
                                          scalar_simple_replay)
from repro.experiments.table1 import SCHEME_BUILDERS, baseline_parity
from repro.faults import FTBatchEngine, OverlappingDHNetwork, random_failstop
from repro.sim.rng import spawn_many
from repro.sim.workload import DH_TAU_DIGITS, balanced_network, random_pairs


# ------------------------------------------------------------------- E4
@pytest.mark.parametrize("n", [64, 200])
@pytest.mark.parametrize("algorithm", ["fast", "dh"])
def test_scalar_congestion_equals_the_batch_booking(algorithm, n):
    build, route = spawn_many(n, 2)
    net = balanced_network(n, build)
    router = net.router(auto_refresh=True, with_adjacency=True)
    sources, targets = random_pairs(net.segments.as_array(), route, 150)
    tau = route.integers(0, net.delta, size=(150, DH_TAU_DIGITS))
    cong = routed_tally(router, algorithm, sources, targets, tau)
    scalar = scalar_congestion(net, sources, targets, algorithm, tau)
    assert cong.summary(n) == scalar.summary(n)


# ------------------------------------------------------------- E7 / E8
def _trace(n=64, q=300, items=("a", "b", "c"), seed=3):
    build, route = spawn_many(seed * 31 + n, 2)
    net = balanced_network(n, build)
    item_idx = route.integers(0, len(items), size=q)
    sources = net.segments.as_array()[route.integers(0, n, size=q)]
    tau = route.integers(0, net.delta, size=(q, DH_TAU_DIGITS))
    return net, list(items), item_idx, sources, tau


@pytest.mark.parametrize("epochs", [None, 3])
@pytest.mark.parametrize("salts", [1, SALTS])
def test_trace_parity_holds_for_several_items(salts, epochs):
    assert trace_parity(*_trace(), threshold=4, salts=salts, epochs=epochs)


@pytest.mark.parametrize("salts", [1, SALTS])
def test_trace_parity_fails_when_a_served_hop_count_differs(salts,
                                                            monkeypatch):
    serve = BatchCacheEngine.serve_batch

    def off_by_one(self, *args, **kwargs):
        res = serve(self, *args, **kwargs)
        res.hops[-1] += 1
        return res

    monkeypatch.setattr(BatchCacheEngine, "serve_batch", off_by_one)
    assert not trace_parity(*_trace(), threshold=4, salts=salts)


# ------------------------------------------------------------------ E13
@pytest.mark.parametrize("p_fail", [0.0, 0.2, 0.5, 0.8])
def test_measure_faults_replays_at_every_failure_rate(p_fail):
    engine = FTBatchEngine(OverlappingDHNetwork(64, spawn_many(64, 3)[0]))
    res = measure_faults(engine, pairs=300, p_fail=p_fail, scalar_sample=120)
    assert res["parity_ok"] and res["scalar_sample"] == 120
    assert 0 <= res["failures"] <= 300
    if p_fail == 0.0:
        assert res["alive_servers"] == 64 and res["failures"] == 0


def _perturb_success(batch):
    batch.success[0] = ~batch.success[0]


def _perturb_messages(batch):
    batch.messages[0] += 1


def _perturb_parallel_time(batch):
    batch.parallel_time[0] += 1


def _perturb_path(batch):
    first = batch.path_offsets[0]
    batch.path_servers[first] = (batch.path_servers[first] + 1) % (
        batch.points.size)


@pytest.mark.parametrize("perturb", [_perturb_success, _perturb_messages,
                                     _perturb_parallel_time, _perturb_path],
                         ids=lambda f: f.__name__.removeprefix("_perturb_"))
def test_scalar_simple_replay_fails_on_any_field(perturb):
    build, plan_rng, route = spawn_many(77, 3)
    net = OverlappingDHNetwork(64, build)
    plan = random_failstop(net.points, 0.2, plan_rng)
    sources, targets = random_pairs(net.points_array, route, 40)
    choices = route.random((40, FT_CHOICE_DIGITS))
    batch = FTBatchEngine(net).batch_simple_lookup(
        sources, targets, choices=choices, plan=plan, keep_paths="csr")
    assert scalar_simple_replay(net, batch, sources, targets, choices,
                                plan=plan)
    perturb(batch)
    assert not scalar_simple_replay(net, batch, sources, targets, choices,
                                    plan=plan)


# ------------------------------------------------------------------- E1
@pytest.fixture(scope="module")
def parity_off_power_of_two():
    """Every scheme's replay at a size no power of two divides."""
    return baseline_parity(100, 40, 1)


@pytest.mark.parametrize("scheme", sorted(SCHEME_BUILDERS))
def test_baseline_parity_off_a_power_of_two(scheme, parity_off_power_of_two):
    assert parity_off_power_of_two[scheme] is True


# ------------------------------------------------------------------- X6
@pytest.mark.parametrize("n, seed", [(64, 0), (64, 1), (200, 2)])
def test_cost_routing_replays_hold_at_small_sizes(n, seed):
    res = measure_cost_routing(n=n, pairs=300, seed=seed, scalar_sample=100,
                               core_n=n, core_pairs=300)
    assert res["parity_ok"] and res["core_replay_ok"]
    assert set(res["policies"]) == {"uniform", "greedy", "weighted"}


# ------------------------------------------------------------------- X4
@pytest.mark.parametrize("n, seed", [(64, 0), (128, 1)])
def test_churn_soak_owners_hold_through_every_phase(n, seed):
    res = measure_churn_soak(n, lookups=500, churn_ops=16, mass_n=32,
                             seed=seed)
    assert res["owners_ok"]
    assert [row["phase"] for row in res["rows"]] == [
        "baseline", *(f"churn{k + 1}" for k in range(PHASES)),
        f"mass-{int(MASS_FRACTION * 100)}%"]
    assert all(row["owners"] == "ok" for row in res["rows"])
    assert np.isfinite(res["final_smoothness"])
