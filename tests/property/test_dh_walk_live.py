"""Phase I of the dh walk on live lanes against the all-lanes walk it replaced.

``AllLanesWalkOracle`` (:mod:`oracles.dh_walk`) carries the previous
``_dh_walk``, both of its digit rules (``batch_dh_lookup``'s uniform /
``tau`` rule and ``batch_cost_dh_lookup``'s cost rule, which the live
router runs as ``batch_dh_lookup(policy=)``),
``_edge_cost_matrix`` (over the previous ``pair_costs``) and the
slot-by-slot ``_edge_member`` *verbatim*: every step ran the segment
test, the ``np.where`` updates and ``cover(pos)`` over all ``size``
lanes, finished ones included.  The walk now keeps phase I's state for
the walking lanes only, and the rule hands back ``(digits, next_pos,
next_cover)`` for them — the cost rule reads both off the candidates it
already covered.  Driven with the same inputs and generator state, both
must agree in dtype and bits on every result field and leave the
generator in the same state; the oracle predates keyed draws, so an
``-rng`` rule reaches it as the pinned digits or uniforms
(:func:`oracles.inputs.keyed_tau`, :func:`oracles.inputs.keyed_choices`)
of the one key the router reads.  The live uniform rule is the plain
walk's (``"dh-rng"`` is ``policy="uniform"`` under ``rng``), so under
``choices`` it records no ``tau_used`` and names no cost rule, and the
frozen cost walk's "uniform" is compared on the routed columns only.
The counting tests pin what the rewrites are *for*: phase I hands
``cover`` O(Σ tᵢ) lanes, not ``size × max t``, and phase II — which
replays the image covers phase I took — hands it none, so a walk's
covers after the source's are exactly Σ (2·tᵢ + 1) (Σ ((Δ+1)·tᵢ + 1)
under the cost rule).
"""

import functools
from typing import List

import numpy as np
import pytest
from oracles.compare import assert_same
from oracles.dh_walk import AllLanesWalkOracle, parent_walk
from oracles.inputs import keyed_choices, keyed_tau, populated

from repro.core import BatchRouter
from repro.core.walk import draw_key
from repro.peer import CostMap

FIELDS = ("source_idx", "owner_idx", "t", "hops", "phase1_hops",
          "path_servers", "path_offsets", "tau_used", "algorithm", "policy")


# --------------------------------------------------------------- fixtures
@functools.lru_cache(maxsize=None)
def _pair(delta: int, n: int, with_ring: bool):
    """The live-lane router and the oracle over one network."""
    net = populated(n, 7 * n + delta, delta, with_ring)
    cost_map = CostMap.synthetic(n_isps=4, rng=np.random.default_rng(n))
    return (BatchRouter(net, build_adjacency=True, cost_map=cost_map),
            AllLanesWalkOracle(net, cost_map))


def _inputs(router, size: int, seed: int):
    """Sources half on server ids, half anywhere; targets incl. the ends."""
    rng = np.random.default_rng(seed)
    src = np.where(rng.random(size) < 0.5,
                   router.points[rng.integers(router.n, size=size)],
                   rng.random(size))
    tgt = rng.random(size)
    tgt[:2] = [0.0, 1.0 - 2.0**-53]
    return src, tgt


def _route(router, rule: str, src, tgt, keep_paths, seed: int):
    """One batch under ``rule``, and the generator it drew from (or None)."""
    size = src.size
    inputs = np.random.default_rng(seed + 1)
    rng = np.random.default_rng(seed + 2)
    if rule == "dh-tau":
        res = router.batch_dh_lookup(
            src, tgt, tau=inputs.integers(0, router.delta, (size, 64)),
            keep_paths=keep_paths)
        return res, None
    if rule == "dh-tau-row":
        res = router.batch_dh_lookup(
            src, tgt, tau=inputs.integers(0, router.delta, 64),
            keep_paths=keep_paths)
        return res, None
    oracle = isinstance(router, AllLanesWalkOracle)
    if rule == "dh-rng":
        draw = (dict(tau=keyed_tau(draw_key(rng), size, router.delta))
                if oracle else dict(rng=rng))
        return router.batch_dh_lookup(src, tgt, keep_paths=keep_paths,
                                      **draw), rng
    policy, source = rule.split("-")
    # the oracle keeps the parent's separate cost entry point
    cost = router.batch_cost_dh_lookup if oracle else router.batch_dh_lookup
    if source == "choices":
        res = cost(src, tgt, choices=inputs.random((size, 64)),
                   policy=policy, keep_paths=keep_paths)
        return res, None
    draw = (dict(choices=keyed_choices(draw_key(rng), size)) if oracle
            else dict(rng=rng))
    res = cost(src, tgt, policy=policy, keep_paths=keep_paths, **draw)
    return res, rng


RULES = ["dh-tau", "dh-tau-row", "dh-rng",
         "uniform-choices", "greedy-choices", "greedy-rng",
         "weighted-choices", "weighted-rng"]


@pytest.mark.parametrize("with_ring", [False, True], ids=["ringless", "ring"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 64, 1024])
@pytest.mark.parametrize("delta", [2, 3, 4])
def test_equal_to_all_lanes_walk(delta, n, with_ring):
    router, oracle = _pair(delta, n, with_ring)
    size = 300 if n > 4 else 40
    src, tgt = _inputs(router, size, seed=delta * 1000 + n)
    for rule in RULES:
        for keep_paths in (False, "csr"):
            got, rng_got = _route(router, rule, src, tgt, keep_paths, seed=n)
            want, rng_want = _route(oracle, rule, src, tgt, keep_paths, seed=n)
            # the live uniform rule is the plain walk: no digits recorded
            assert_same(got, want, FIELDS[:-3] if rule == "uniform-choices"
                        else FIELDS)
            if rng_want is not None:
                assert (rng_got.bit_generator.state
                        == rng_want.bit_generator.state), rule


def test_empty_batch():
    router, oracle = _pair(2, 64, True)
    for rule in ("dh-rng", "weighted-rng"):
        got, rng_got = _route(router, rule, np.zeros(0), np.zeros(0), "csr", 0)
        want, rng_want = _route(oracle, rule, np.zeros(0), np.zeros(0), "csr", 0)
        assert_same(got, want, FIELDS)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


# ---------------------------------------------------------------- counting
def _cover_lanes(router, monkeypatch, route):
    """Lanes handed to ``cover`` after the source cover that opens a walk."""
    sizes: List[int] = []
    real_cover = router.cover_index.cover

    def counting_cover(ys):
        sizes.append(int(np.size(ys)))
        return real_cover(ys)

    monkeypatch.setattr(router.cover_index, "cover", counting_cover)
    res = route()
    monkeypatch.undo()
    assert sizes[0] == res.size  # cover(sources) opens the walk
    return sum(sizes[1:]), res


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_phase1_covers_only_walking_lanes(delta, monkeypatch):
    """Phase I covers a walking lane twice a step (its target image and
    its next position) and its image once more at the step it stops:
    Σ (2·tᵢ + 1) exactly, and phase II covers nothing, with paths kept
    or not.  The parent walk re-covered the tᵢ + 1 images in phase II;
    the all-lanes walk covered every lane at every step, finished or
    not."""
    router, oracle = _pair(delta, 1024, True)
    size = 2000
    src, tgt = _inputs(router, size, seed=delta)
    tau = np.random.default_rng(delta).integers(0, delta, (size, 64))
    for keep_paths in (False, "csr"):
        def route(walker):
            return walker.batch_dh_lookup(src, tgt, tau=tau,
                                          keep_paths=keep_paths)

        lanes, res = _cover_lanes(router, monkeypatch, lambda: route(router))
        phase1 = int((2 * res.t + 1).sum())
        assert lanes == phase1
        # the test can tell the walks apart
        parent, _ = _cover_lanes(router, monkeypatch,
                                 lambda: parent_walk(router, route))
        assert parent == phase1 + int((res.t + 1).sum())
        oracle_lanes, _ = _cover_lanes(oracle, monkeypatch,
                                       lambda: route(oracle))
        assert oracle_lanes > parent


@pytest.mark.parametrize("policy", ["greedy", "weighted"])
def test_cost_rule_covers_only_walking_lanes(policy, monkeypatch):
    """The cost rule covers the Δ candidates of each walking lane and
    takes the next cover from them: Σ ((Δ+1)·tᵢ + 1) exactly, with
    paths kept or not."""
    delta = 2
    router, _ = _pair(delta, 1024, True)
    size = 2000
    src, tgt = _inputs(router, size, seed=5)
    u = np.random.default_rng(5).random((size, 64))
    for keep_paths in (False, "csr"):
        lanes, res = _cover_lanes(
            router, monkeypatch,
            lambda: router.batch_dh_lookup(src, tgt, choices=u,
                                           policy=policy,
                                           keep_paths=keep_paths))
        assert lanes == int(((delta + 1) * res.t + 1).sum())
