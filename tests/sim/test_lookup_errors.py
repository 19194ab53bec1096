"""Error rules every scalar runtime shares (they used to differ per copy).

``fast_lookup``, ``dh_lookup``, the discrete-event protocol (both
styles) and the asyncio fabric enter through one check
(:func:`repro.core.lookup.ring_point`) and take digits through one rule
(:func:`repro.core.lookup.dh_step`): non-finite points raise at entry,
worded like the batch engines' ``check_finite``; a pinned ``τ`` is never
extended.  Only public entry points are used, so every test here runs —
and fails — on the commit before the fold.
"""

import numpy as np
import pytest
from oracles.inputs import populated

from repro.core import dh_lookup, fast_lookup
from repro.faults import OverlappingDHNetwork, canonical_path
from repro.sim.asyncnet import run_async_lookups
from repro.sim.protocol import build_protocol_network, run_protocol_lookup


@pytest.fixture(scope="module")
def net64():
    return populated(64, 99)


BAD = pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                      float("-inf")], ids=["nan", "inf", "-inf"])
RUNTIMES = {
    "fast": lambda net, s, t, rng: fast_lookup(net, s, t),
    "dh": dh_lookup,
    "recursive": lambda net, s, t, rng: run_protocol_lookup(
        build_protocol_network(net), net, s, t, rng),
    "iterative": lambda net, s, t, rng: run_protocol_lookup(
        build_protocol_network(net), net, s, t, rng, "iterative"),
    "asyncio": lambda net, s, t, rng: run_async_lookups(net, [(s, t)], rng),
}


class TestNonFinitePoints:
    """Raise at entry, worded like the batch engines' ``check_finite``.

    ``dh_lookup(net, src, nan)`` used to return an owner after one hop,
    ``fast_lookup`` burned 512 levels and blamed a degenerate segment,
    the protocol forwarded ~500 hops and reported ``done=False``.
    """

    @BAD
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_target(self, net64, runtime, bad):
        source = list(net64.points())[3]
        with pytest.raises(ValueError, match="target is .*ring points must be finite"):
            RUNTIMES[runtime](net64, source, bad, np.random.default_rng(0))

    @BAD
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_source(self, net64, runtime, bad):
        with pytest.raises(ValueError, match="source is .*ring points must be finite"):
            RUNTIMES[runtime](net64, bad, 0.25, np.random.default_rng(0))

    @BAD
    def test_canonical_path(self, bad):
        net = OverlappingDHNetwork(64, np.random.default_rng(1))
        with pytest.raises(ValueError, match="target is .*finite"):
            canonical_path(net, net.points[0], bad)
        with pytest.raises(ValueError, match="source is .*finite"):
            canonical_path(net, bad, 0.5)


class TestPinnedTau:
    """A pinned ``τ`` is never extended from an rng: one rule, in ``dh_step``."""

    def test_one_digit_tau_on_a_longer_lookup(self, net64):
        points = list(net64.points())
        rng = np.random.default_rng(7)
        ran_out = 0
        for _ in range(20):
            source, target = points[int(rng.integers(64))], float(rng.random())
            need = dh_lookup(net64, source, target, None, tau=[1] * 64).t
            if need < 2:
                continue
            ran_out += 1
            for lookup in (
                lambda: dh_lookup(net64, source, target, rng, tau=[1]),
                # the fabric's rng is live, and must not be drawn from
                lambda: run_async_lookups(net64, [(source, target)],
                                          np.random.default_rng(3), taus=[[1]]),
            ):
                with pytest.raises(ValueError, match="supplied tau exhausted"):
                    lookup()
        assert ran_out >= 10
