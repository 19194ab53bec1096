"""Error rules every scalar runtime shares (they used to differ per copy).

``fast_lookup``, ``dh_lookup`` and the discrete-event protocol (both
styles, one lookup or a batch) enter through one check
(:func:`repro.core.lookup.ring_point`) and take digits through one rule
(:func:`repro.core.lookup.dh_step`): non-finite points raise at entry,
by the rule the batch engines use (:func:`repro.checks.finite`); a
pinned ``τ`` is never extended.  Only public entry points are used, so
every test here runs — and fails — on the commit before the fold.
"""

import re

import numpy as np
import pytest
from oracles.inputs import populated

from repro.core import dh_lookup, fast_lookup
from repro.faults import FTBatchEngine, OverlappingDHNetwork, canonical_path
from repro.sim.protocol import (build_protocol_network, run_protocol_lookup,
                                run_protocol_lookups)


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
    # the bad query injected behind a good one
    "concurrent": lambda net, s, t, rng: run_protocol_lookups(
        build_protocol_network(net), net, [(0.5, 0.25), (s, t)], [rng, rng]),
}


class TestNonFinitePoints:
    """Raise at entry, by the rule of :func:`repro.checks.finite`.

    ``dh_lookup(net, src, nan)`` used to return an owner after one hop,
    ``fast_lookup`` burned 512 levels and blamed a degenerate segment,
    the protocol forwarded ~500 hops and reported ``done=False``.
    """

    @BAD
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_target(self, net64, runtime, bad):
        source = list(net64.points())[3]
        with pytest.raises(ValueError,
                           match=f"target must be a finite real, got {bad!r}"):
            RUNTIMES[runtime](net64, source, bad, np.random.default_rng(0))

    @BAD
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_source(self, net64, runtime, bad):
        with pytest.raises(ValueError,
                           match=f"source must be a finite real, got {bad!r}"):
            RUNTIMES[runtime](net64, bad, 0.25, np.random.default_rng(0))

    @BAD
    def test_canonical_path(self, bad):
        net = OverlappingDHNetwork(64, np.random.default_rng(1))
        with pytest.raises(ValueError,
                           match=f"target must be a finite real, got {bad!r}"):
            canonical_path(net, net.points[0], bad)
        with pytest.raises(ValueError,
                           match=f"source must be a finite real, got {bad!r}"):
            canonical_path(net, bad, 0.5)


_FT = OverlappingDHNetwork(16, np.random.default_rng(5))
#: The six lookups, scalar and batch, each fed a bad point at lane 0.
LOOKUPS = {
    "fast_lookup": lambda net, bad: fast_lookup(net, bad, 0.5),
    "dh_lookup": lambda net, bad: dh_lookup(
        net, bad, 0.5, np.random.default_rng(0)),
    "batch_fast_lookup": lambda net, bad: net.compile_router(
    ).batch_fast_lookup([bad, 0.1], [0.5, 0.5]),
    "batch_dh_lookup": lambda net, bad: net.compile_router().batch_dh_lookup(
        [0.1, 0.1], [bad, 0.5], rng=np.random.default_rng(0)),
    "batch_simple_lookup": lambda net, bad: FTBatchEngine(
        _FT).batch_simple_lookup(_FT.points_array[:2], [bad, 0.5],
                                 rng=np.random.default_rng(0)),
    "batch_resistant_lookup": lambda net, bad: FTBatchEngine(
        _FT).batch_resistant_lookup(_FT.points_array[:2], [bad, 0.5]),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("lookup", LOOKUPS)
def test_scalar_and_batch_refuse_by_one_rule(net64, lookup, bad):
    """Scalar and batch lookups word a bad point by the same rule.

    The scalar side names the point (``source``), the batch side its
    first bad lane (``sources[0]``); the rule and the value are one text.
    """
    with pytest.raises(ValueError) as err:
        LOOKUPS[lookup](net64, bad)
    assert re.fullmatch(rf"(source|target)s?(\[0\])? must be a finite "
                        rf"real, got {bad!r}", str(err.value)), str(err.value)


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
            # the rng is live, and must not be drawn from
            with pytest.raises(ValueError, match="supplied tau exhausted"):
                dh_lookup(net64, source, target, rng, tau=[1])
        assert ran_out >= 10
