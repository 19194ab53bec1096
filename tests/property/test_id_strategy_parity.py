"""Property tests: the vectorised Multiple-Choice probe equals the loop.

:meth:`MultipleChoice.select` on float ids answers all ``t·log n``
probes at once over ``SegmentMap.column`` (one ``searchsorted``, a
gathered ``end − start``, ``argmax``).  The per-probe loop it replaced —
``cover`` → ``segment_length`` → strict ``>`` in sample order → the
winner's ``Arc.midpoint`` — is kept *here* as the oracle
(:func:`scalar_select`).  The contract is the same returned id **and**
the same rng state afterwards, so every id a network ever chooses is
bit-identical; the point sets are the adversarial ones of
``test_cover_index`` (clustered ids, ``x_0 == 0.0``, tiny n) plus pinned
cases for the seam segment, exact length ties and n ∈ {1, 2, 3}.  Exact
(``Fraction``) ids still take the loop.  Digests of whole ``populate``
runs and of one soak, recorded on the commit before the vectorisation,
pin the composed result.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cover_index import BELOW_ONE, point_sets

from repro.balance import MultipleChoice
from repro.core import DistanceHalvingNetwork
from repro.core.segments import SegmentMap
from repro.experiments.soak import deterministic_payload
from repro.sim.scenario import ScenarioEngine


# ------------------------------------------------------------------ oracle
def scalar_select(strategy: MultipleChoice, segments: SegmentMap,
                  rng: np.random.Generator) -> float:
    """``MultipleChoice.select`` as the per-probe loop (the parent's body)."""
    if len(segments) == 0:
        return float(rng.random())
    probes = strategy.t * strategy._log_n(segments, rng)
    samples = rng.random(probes)
    best_idx = None
    best_len = -1.0
    seen = set()
    for z in samples:
        i = segments.cover(float(z))
        if i in seen:
            continue
        seen.add(i)
        length = float(segments.segment_length(i))
        if length > best_len:
            best_len = length
            best_idx = i
    return float(segments.segment(best_idx).midpoint)


def assert_same_choice(strategy, segments, seed) -> float:
    """Same id and same stream position from cloned generators."""
    rng, ref = (np.random.default_rng(seed) for _ in range(2))
    got = strategy.select(segments, rng)
    expect = scalar_select(strategy, segments, ref)
    assert got == expect and type(got) is float
    assert rng.bit_generator.state == ref.bit_generator.state
    return got


STRATEGIES = [MultipleChoice(t=1), MultipleChoice(t=4), MultipleChoice(t=20),
              MultipleChoice(t=4, estimate=True)]
strategies = st.sampled_from(STRATEGIES)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestVectorEqualsLoop:
    @settings(max_examples=300, deadline=None)
    @given(points=point_sets(), strategy=strategies, seed=seeds)
    def test_adversarial_point_sets(self, points, strategy, seed):
        assert_same_choice(strategy, SegmentMap(points.tolist()), seed)

    @settings(max_examples=60, deadline=None)
    @given(points=point_sets(), strategy=strategies, seed=seeds,
           joins=st.integers(1, 24))
    def test_a_run_of_joins_stays_in_step(self, points, strategy, seed, joins):
        """Each chosen id is inserted before the next probe round."""
        segments = SegmentMap(points.tolist())
        for k in range(joins):
            p = assert_same_choice(strategy, segments, seed + k)
            if p not in segments:
                segments.insert(p)
        segments.check_invariants()

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: f"t{s.t}-est{int(s.estimate)}")
    @pytest.mark.parametrize("points", [
        [0.3],                              # n = 1: the full ring
        [0.0],
        [BELOW_ONE],
        [0.2, 0.7],                         # n = 2, equal halves: a tie
        [0.0, 0.5],
        [0.1, 0.2, 0.3],                    # n = 3, the seam segment longest
        [0.4, 0.5, 0.6],                    # seam longest, wraps through 0
        [0.0, 0.001, 0.002],                # x_0 == 0.0, seam row longest
        [0.0, 0.25, 0.5, 0.75],             # dyadic: four exact ties
        [k / 16 for k in range(16)],        # dyadic: every length equal
        [0.0, 0.125, 0.25, 0.5, 0.625, 0.75],   # ties among the longest
        [0.5 + k * 1e-12 for k in range(40)],   # clustered in one bucket
    ], ids=lambda p: f"n{len(p)}-x0_{p[0]:g}")
    def test_pinned_point_sets(self, strategy, points):
        segments = SegmentMap(points)
        for seed in range(25):
            assert_same_choice(strategy, segments, seed)

    def test_first_maximum_wins_an_exact_tie(self):
        """All lengths equal: the first *sample*'s segment is split."""
        segments = SegmentMap([k / 8 for k in range(8)])
        strategy = MultipleChoice(t=4)
        for seed in range(50):
            rng, ref = (np.random.default_rng(seed) for _ in range(2))
            first = segments.cover(float(ref.random(12)[0]))
            assert strategy.select(segments, rng) == first / 8 + 1 / 16

    def test_empty_map_draws_one_uniform_id(self):
        rng, ref = (np.random.default_rng(5) for _ in range(2))
        assert MultipleChoice().select(SegmentMap(), rng) == float(ref.random())
        assert rng.bit_generator.state == ref.bit_generator.state


class TestExactIdsTakeTheLoop:
    def test_fraction_ids_never_read_the_column(self, monkeypatch):
        segments = SegmentMap([Fraction(k, 7) for k in range(7)])
        segments.insert(0.45)  # one exact id is enough to leave the column
        monkeypatch.setattr(
            SegmentMap, "column",
            property(lambda self: pytest.fail("column read on exact ids")))
        for strategy in STRATEGIES:
            for seed in range(10):
                assert_same_choice(strategy, segments, seed)

    def test_float_ids_do_read_the_column(self, monkeypatch):
        reads = []
        column = SegmentMap.column.fget
        monkeypatch.setattr(
            SegmentMap, "column",
            property(lambda self: reads.append(1) or column(self)))
        MultipleChoice().select(SegmentMap([0.1, 0.6]),
                                np.random.default_rng(0))
        assert reads


# ------------------------------------------------------------------ digests
def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedDigests:
    """Recorded on the parent commit (the per-probe loop), byte for byte."""

    @pytest.mark.parametrize("seed, digest", [
        (2007, "97326af9ac85ce52fa3d5c5f942361be"
               "7e254e523f8e195a5824bf8a1b58e5f5"),
        (11, "39467002ab0e57809af7d9d33ef7bb04"
             "38bbf436e89ec2645848c7f0a1cfb826"),
    ], ids=["seed2007", "seed11"])
    def test_populate_4096_ids(self, seed, digest):
        net = DistanceHalvingNetwork(rng=np.random.default_rng(seed))
        net.populate(4096, selector=MultipleChoice(t=4))
        assert _sha256(net.segments.as_array().tobytes()) == digest
        net.check_invariants()

    def test_soak_1024_seed_0_payload(self):
        result = ScenarioEngine(n=1024, seed=0).run()
        payload = json.dumps(deterministic_payload(result), sort_keys=True)
        assert _sha256(payload.encode()) == (
            "a6aecdb80a6d068bed1d2ee80ed6c133"
            "6d56b1b36c47c0d97a9c1d4952e8d79a")
