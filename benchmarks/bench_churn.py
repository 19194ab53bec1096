"""Benchmarks for incremental router maintenance under churn (X4).

Kernels: one join + incremental ``refresh()`` on a 4096-server network
vs the full ``compile_router()`` it replaces, and an adjacency-carrying
refresh for the two-phase lookup path.  The headline test soaks an
n=16384 network with churn and asserts the incremental refresh is ≥5x
faster per membership op than a from-scratch compile, while the patched
router stays bit-identical to a fresh compile — the roadmap's
"fast path survives churn" milestone.
"""

import time

import numpy as np
import pytest

from repro.balance import MultipleChoice
from repro.core import DistanceHalvingNetwork
from repro.experiments.churn_soak import MAX_REFRESH_US, measure_churn_soak


@pytest.fixture(scope="module")
def churn_net_4096():
    rng = np.random.default_rng(2007)
    net = DistanceHalvingNetwork(rng=rng)
    net.populate(4096, selector=MultipleChoice(t=4))
    return net


def test_incremental_refresh_kernel(benchmark, churn_net_4096):
    """One membership op + O(affected-region) re-sync of the router."""
    net = churn_net_4096
    router = net.router(auto_refresh=True)
    router.refresh()
    op_rng = np.random.default_rng(71)

    def one_op():
        net.join(float(op_rng.random()))
        router.refresh()

    benchmark(one_op)
    assert router.refresh_stats.full_rebuilds == 0
    assert router.version == net.membership_version


def test_incremental_refresh_with_adjacency_kernel(benchmark, churn_net_4096):
    """Same kernel with the neighbour table patched too (dh-lookup path)."""
    net = churn_net_4096
    router = net.router(auto_refresh=True, with_adjacency=True)
    router.refresh()
    op_rng = np.random.default_rng(72)

    def one_op():
        net.join(float(op_rng.random()))
        router.refresh()

    benchmark(one_op)
    assert router.refresh_stats.full_rebuilds == 0
    assert router.adj_first.shape == (router.delta + 2, router.n + 1)


def test_full_compile_baseline(benchmark, churn_net_4096):
    """The from-scratch snapshot the incremental path replaces."""
    benchmark(churn_net_4096.compile_router)


def test_refresh_speedup_headline_16384():
    """Acceptance: incremental refresh ≥5x over full compile at n=16384."""
    rng = np.random.default_rng(2008)
    net = DistanceHalvingNetwork(rng=rng)
    net.populate(16384, selector=MultipleChoice(t=4))

    compile_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        net.compile_router()
        compile_times.append(time.perf_counter() - t0)
    full_secs = float(np.median(compile_times))

    router = net.router(auto_refresh=True)
    router.refresh()
    op_rng = np.random.default_rng(73)
    ops = 64
    t0 = time.perf_counter()
    for i in range(ops):
        if i % 3 == 2:
            pts = net.segments.as_array()
            net.leave(float(pts[int(op_rng.integers(net.n))]))
        else:
            net.join(float(op_rng.random()))
        router.refresh()
    per_op = (time.perf_counter() - t0) / ops

    assert router.refresh_stats.full_rebuilds == 0
    speedup = full_secs / per_op
    assert speedup >= 5.0, (
        f"incremental refresh {per_op * 1e6:.0f}us/op vs full compile "
        f"{full_secs * 1e3:.1f}ms = only {speedup:.1f}x"
    )

    # the patched snapshot must be bit-identical to a fresh compile
    fresh = net.compile_router()
    assert np.array_equal(router.points, fresh.points)
    assert np.array_equal(router.midpoints, fresh.midpoints)
    assert np.array_equal(router.seg_end, fresh.seg_end)


def test_churn_soak_smoke():
    """The full X4 measurement on a small instance keeps owners fresh."""
    res = measure_churn_soak(n=512, lookups=5_000, phases=2, churn_ops=48,
                             mass_n=256, seed=3)
    assert res["owners_ok"]
    assert 1e6 * res["refresh_secs_per_op"] <= MAX_REFRESH_US
    assert res["full_rebuilds"] == 0 or res["incremental_refreshes"] > 0
