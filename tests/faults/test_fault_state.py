"""The per-server fault state the §6.3 batch lookups gather.

:class:`~repro.faults.batch_ft.FTBatchEngine` packs a
:class:`~repro.faults.FaultPlan` into one ``uint8`` per server (bit
``ALIVE``, bit ``LIAR``) and gathers it once per level for both the
Simple and the Byzantine-resistant lookup.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FTBatchEngine
from repro.faults.batch_ft import ALIVE, LIAR


@pytest.fixture(scope="module")
def engine(net):
    return FTBatchEngine(net)


def _plan(net, seed, p_fail, p_liar, liars_dead=False):
    """A plan from independent draws; ``liars_dead`` fails every liar."""
    rng = np.random.default_rng(seed)
    failed = rng.random(net.n) < p_fail
    liars = rng.random(net.n) < p_liar
    if liars_dead:
        failed |= liars
    pts = net.points_array
    return FaultPlan(failed={float(p) for p in pts[failed]},
                     liars={float(p) for p in pts[liars]})


@pytest.mark.parametrize("p_fail, p_liar", [
    (0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3)],
    ids=["none", "failstop", "byzantine", "mixed"])
def test_state_bits_are_the_plan_masks(net, engine, p_fail, p_liar):
    plan = _plan(net, 40, p_fail, p_liar)
    alive = plan.alive_mask(net.points_array)
    liar = plan.liar_mask(net.points_array)
    state = engine._state(plan)
    assert state.dtype == np.uint8 and state.shape == (net.n,)
    assert np.array_equal((state & ALIVE) != 0, alive)
    assert np.array_equal((state & LIAR) != 0, liar)
    assert np.array_equal(state == ALIVE, alive & ~liar)


def test_no_plan_is_all_alive_and_honest(engine):
    assert (engine._state(None) == ALIVE).all()


@pytest.mark.parametrize("lookup", ["simple", "resistant"])
def test_a_dead_liar_is_just_dead(net, engine, lookup):
    """A failed liar sends nothing: its lie bit must not reach a lookup,
    so the batch equals the one under the same plan without the lies."""
    plan = _plan(net, 41, 0.2, 0.2, liars_dead=True)
    assert plan.liars and plan.liars <= plan.failed
    rng = np.random.default_rng(42)
    src = net.points_array[rng.integers(0, net.n, size=200)]
    tgt = rng.random(200)
    u = rng.random((200, 32))

    def run(p):
        if lookup == "simple":
            return engine.batch_simple_lookup(src, tgt, choices=u, plan=p)
        return engine.batch_resistant_lookup(src, tgt, plan=p)

    lying, honest, clean = (run(p) for p in (
        plan, FaultPlan(failed=plan.failed), FaultPlan()))
    fields = ("success", "messages", "parallel_time")

    def same(a, b):
        return [np.array_equal(getattr(a, f), getattr(b, f)) for f in fields]

    assert not all(same(honest, clean))  # the dead servers do show
    assert all(same(lying, honest))
