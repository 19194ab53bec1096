"""Unit tests for the §4 id-selection strategies (Lemmas 4.1–4.3, Thm 4.4)."""

import math
import re

import numpy as np
import pytest
from oracles.inputs import populated

from repro.balance import (
    ImprovedSingleChoice,
    MultipleChoice,
    SingleChoice,
)
from repro.core.segments import SegmentMap


def grow(strategy, n, seed=0):
    rng = np.random.default_rng(seed)
    sm = SegmentMap()
    for _ in range(n):
        sm.insert(strategy.select(sm, rng))
    return sm


class TestSingleChoice:
    def test_lemma_4_1_longest_segment(self):
        """Longest segment is Θ(log n / n): within [0.3, 5]·log n/n."""
        n = 2048
        sm = grow(SingleChoice(), n, seed=1)
        longest = sm.max_segment_length()
        assert 0.3 * math.log(n) / n <= longest <= 5 * math.log(n) / n

    def test_lemma_4_1_shortest_segment(self):
        """Shortest segment can be as small as Θ(1/n²) — far below 1/(4n)."""
        n = 2048
        sm = grow(SingleChoice(), n, seed=2)
        assert sm.min_segment_length() < 1 / (4 * n)

    def test_rho_grows_superconstant(self):
        n = 1024
        sm = grow(SingleChoice(), n, seed=3)
        assert sm.smoothness() > math.log2(n)


class TestImprovedSingleChoice:
    def test_lemma_4_2_shortest_segment(self):
        """Shortest segment Θ(1/(n log n)): much better than single choice."""
        n = 2048
        sm = grow(ImprovedSingleChoice(), n, seed=4)
        assert sm.min_segment_length() >= 0.1 / (n * math.log2(n))

    def test_lemma_4_2_longest_segment(self):
        n = 2048
        sm = grow(ImprovedSingleChoice(), n, seed=5)
        assert sm.max_segment_length() <= 5 * math.log(n) / n

    def test_splits_covering_segment(self):
        rng = np.random.default_rng(6)
        sm = SegmentMap([0.0, 0.5])
        p = ImprovedSingleChoice().select(sm, rng)
        # must be a midpoint of one of the two segments
        assert p in (0.25, 0.75)

    def test_beats_single_choice_on_rho(self):
        n = 1024
        rho_single = grow(SingleChoice(), n, seed=7).smoothness()
        rho_improved = grow(ImprovedSingleChoice(), n, seed=7).smoothness()
        assert rho_improved < rho_single


class TestMultipleChoice:
    def test_lemma_4_3_shortest_segment(self):
        """With t ≥ 2, shortest segment ≥ 1/4n w.h.p."""
        n = 1024
        sm = grow(MultipleChoice(t=4), n, seed=8)
        assert sm.min_segment_length() >= 1 / (4 * n)

    def test_longest_segment_constant_over_n(self):
        n = 1024
        sm = grow(MultipleChoice(t=4), n, seed=9)
        assert sm.max_segment_length() <= 8 / n

    def test_rho_is_constant_like(self):
        """ρ stays bounded as n grows (the property the whole paper needs)."""
        rhos = [grow(MultipleChoice(t=4), n, seed=n).smoothness()
                for n in (256, 512, 1024)]
        assert max(rhos) <= 32

    def test_beats_improved_single_choice_on_rho(self):
        """The §4 ladder's top rung: ρ(multiple) < ρ(improved) < ρ(single)."""
        n = 1024
        rho_improved = grow(ImprovedSingleChoice(), n, seed=9).smoothness()
        rho_multiple = grow(MultipleChoice(t=4), n, seed=9).smoothness()
        assert rho_multiple < rho_improved

    def test_theorem_4_4_self_correction(self):
        """Adversarial start: after n more inserts the max segment is O(1/n)."""
        rng = np.random.default_rng(10)
        sm = SegmentMap()
        # adversary: m = 64 points crammed into [0, 1e-4)
        for i in range(64):
            sm.insert(i * 1e-6)
        strategy = MultipleChoice(t=8)
        n = 1024
        for _ in range(n):
            sm.insert(strategy.select(sm, rng))
        assert sm.max_segment_length() <= 16 / n

    def test_self_correction_does_not_fix_small_segments(self):
        """Paper caveat: tiny initial segments stay tiny."""
        rng = np.random.default_rng(11)
        sm = SegmentMap([0.0, 1e-9])
        strategy = MultipleChoice(t=4)
        for _ in range(256):
            sm.insert(strategy.select(sm, rng))
        assert sm.min_segment_length() <= 1e-9

    def test_t_validation(self):
        with pytest.raises(ValueError):
            MultipleChoice(t=0)

    @pytest.mark.parametrize("bad", [2.5, 4.0, True, False, "4", None])
    def test_t_must_be_an_int(self, bad):
        """``t=2.5`` used to become 2 and ``t=True`` 1, silently."""
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            MultipleChoice(t=bad)

    @pytest.mark.parametrize("bad", [-1, -5, 2.5, True, "3", None])
    def test_grow_refuses_a_bad_count(self, bad):
        """``grow(count=-1)`` used to die inside NumPy on a negative size."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        segments = SegmentMap([0.1, 0.6])
        for strategy in (SingleChoice(), ImprovedSingleChoice(),
                         MultipleChoice(t=4)):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                strategy.grow(segments, rng, bad)
        assert rng.bit_generator.state == state

    def test_t_may_be_a_numpy_int(self):
        strategy = MultipleChoice(t=np.int64(3))
        assert strategy.t == 3 and type(strategy.t) is int

    def test_select_draws_and_choice_unchanged(self):
        """One ``rng.random(probes)`` call, the longest probed segment's
        midpoint — as spelled through per-probe ``Arc`` objects."""
        strategy = MultipleChoice(t=4)
        sm = grow(strategy, 300, seed=21)
        for seed in range(40):
            rng, ref = (np.random.default_rng(seed) for _ in range(2))
            probes = 4 * math.ceil(math.log2(len(sm)))
            lengths = {}
            for z in ref.random(probes):
                i = sm.cover(float(z))
                lengths.setdefault(i, float(sm.segment(i).length))
            best = max(lengths, key=lengths.get)  # first of the longest
            assert strategy.select(sm, rng) == float(sm.segment(best).midpoint)
            assert rng.random() == ref.random()  # same stream position


class TestNetworkIntegration:
    @pytest.mark.parametrize("strategy", [SingleChoice(), ImprovedSingleChoice(), MultipleChoice()])
    def test_usable_as_join_selector(self, strategy):
        net = populated(64, 13, selector=strategy)
        assert net.n == 64
        net.check_invariants()

    def test_multiple_choice_gives_low_degree_network(self):
        """§4 intro: these techniques yield constant-degree DHTs w.h.p."""
        net_mc = populated(512, 14, selector=MultipleChoice(t=4))
        net_sc = populated(512, 14, selector=SingleChoice())
        assert net_mc.max_out_degree() < net_sc.max_out_degree()
        assert net_mc.max_out_degree() <= 10  # ρ + 4 with ρ ≤ 6
