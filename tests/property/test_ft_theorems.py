"""Theorems 6.4 and 6.6 as conditional, deterministic properties.

The theorems hold with high probability over random faults; their proofs
rest on one event per lookup, which a test can check exactly.  On
adversarial id sets (``oracles.inputs.point_sets``) under random plans:

* **fail-stop** (Claim 6.5's event): where every point of a lane's
  canonical path keeps an alive cover, ``batch_simple_lookup`` succeeds
  on that lane and ends at an alive holder of the target;
* **Byzantine**: where the alive covers of every path point hold an
  honest majority, ``batch_resistant_lookup`` returns the true value on
  that lane.

The event is computed through the scalar ``canonical_path`` and
``covers``, not the engine's cover table.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.inputs import overlapped, point_sets

from repro.faults import FaultPlan, FTBatchEngine, canonical_path

LANES = 12
FAST = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
seeds = st.integers(min_value=0, max_value=2**31)
rates = st.floats(min_value=0.0, max_value=0.6)


def _lanes(net, plan, seed):
    """Honest alive sources and uniform targets, ``LANES`` of each."""
    rng = np.random.default_rng(seed)
    good = [x for x in net.points
            if plan.is_alive(x) and x not in plan.liars]
    return (np.array([good[i] for i in rng.integers(0, len(good), LANES)]),
            rng.random(LANES))


def _plan(net, seed, p_fail, p_liar=0.0) -> FaultPlan:
    """Fail / corrupt each server independently; one stays honest."""
    rng = np.random.default_rng(seed + 1)
    pts = net.points_array
    failed, liars = rng.random(pts.size) < p_fail, rng.random(pts.size) < p_liar
    failed[0] = liars[0] = False
    return FaultPlan(failed=set(pts[failed].tolist()),
                     liars=set(pts[liars].tolist()))


@FAST
@given(points=point_sets(), seed=seeds, p_fail=rates)
def test_simple_lookup_reaches_the_owner_where_every_point_is_covered(
        points, seed, p_fail):
    """Theorem 6.4 on the lanes where Claim 6.5's event holds."""
    net = overlapped(points, seed)
    plan = _plan(net, seed, p_fail)
    sources, targets = _lanes(net, plan, seed)
    alive = plan.alive(net.points)
    res = FTBatchEngine(net).batch_simple_lookup(sources, targets, key=seed,
                                                 plan=plan)
    for i, (src, y) in enumerate(zip(sources, targets)):
        path = canonical_path(net, float(src), float(y))
        if all(net.covers(p, alive) for p in path):
            holder = float(net.points_array[res.holder_idx[i]])
            assert res.success[i]
            assert holder in alive and net.covers_point(holder, y)


@FAST
@given(points=point_sets(), seed=seeds, p_fail=rates,
       p_liar=st.floats(min_value=0.0, max_value=0.4))
def test_resistant_lookup_is_true_where_every_point_has_an_honest_majority(
        points, seed, p_fail, p_liar):
    """Theorem 6.6 on the lanes where every relay layer's alive covers
    are more than half honest: the majority filter passes the value."""
    net = overlapped(points, seed)
    plan = _plan(net, seed, p_fail, p_liar)
    sources, targets = _lanes(net, plan, seed)
    alive = plan.alive(net.points)
    res = FTBatchEngine(net).batch_resistant_lookup(sources, targets, plan)

    def honest_majority(point):
        covers = net.covers(point, alive)
        return 2 * sum(x not in plan.liars for x in covers) > len(covers)

    for i, (src, y) in enumerate(zip(sources, targets)):
        if all(map(honest_majority, canonical_path(net, float(src), float(y)))):
            assert res.success[i]
