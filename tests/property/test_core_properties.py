"""Property-based tests (hypothesis) for the core data structures.

These encode the paper's *identities* — statements that must hold for
every point, segment and digit string, not just sampled ones:

* Observation 2.3 (exact distance division) on exact rationals;
* Claim 2.4 (approach walks) for arbitrary targets/starts/depths;
* walk/backward inversion; digit round-trips;
* Arc algebra (split/length/containment) and SegmentMap coverage laws.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles.exact import digits_to_point
from oracles.segments import linear_distance

from repro.core.continuous import ContinuousGraph, binary_digits
from repro.core.interval import Arc, normalize
from repro.core.segments import SegmentMap

# strategies ----------------------------------------------------------------

unit_fraction = st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1)
unit_float = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                       allow_nan=False, allow_infinity=False)
digit_strings = st.lists(st.integers(min_value=0, max_value=1), max_size=24)
deltas = st.sampled_from([2, 3, 4, 8])


class TestContinuousIdentities:
    @given(y=unit_fraction, z=unit_fraction, digits=digit_strings)
    def test_observation_2_3_exact(self, y, z, digits):
        """d(w(σ,y), w(σ,z)) = 2^{-t} d(y,z) — exactly, on rationals."""
        g = ContinuousGraph(2)
        wy, wz = g.walk(digits, y), g.walk(digits, z)
        assert linear_distance(wy, wz) == linear_distance(y, z) / 2 ** len(digits)

    @given(y=unit_fraction, digits=digit_strings)
    def test_walk_equals_iterated_children(self, y, digits):
        g = ContinuousGraph(2)
        acc = y
        for d in digits:
            acc = g.child(acc, d)
        assert g.walk(digits, y) == acc

    @given(y=unit_fraction, digits=digit_strings)
    def test_backward_strips_last_digit(self, y, digits):
        assume(len(digits) > 0)
        g = ContinuousGraph(2)
        assert g.backward(g.walk(digits, y)) == g.walk(digits[:-1], y)

    @given(y=unit_fraction, z=unit_fraction,
           t=st.integers(min_value=0, max_value=24), delta=deltas)
    def test_claim_2_4_approach(self, y, z, t, delta):
        """d(w(σ(y)_t, z), y) ≤ Δ^{-t} for every start z."""
        g = ContinuousGraph(delta)
        w = g.walk(g.approach_digits(y, t), z)
        assert linear_distance(w, y) <= Fraction(1, delta**t)

    @given(digits=st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                           max_size=20))
    def test_digits_roundtrip_base3(self, digits):
        y = digits_to_point(digits, delta=3)
        assert binary_digits(y, len(digits), delta=3) == tuple(digits)


class TestArcProperties:
    @given(a=unit_float, b=unit_float)
    def test_length_in_unit_range(self, a, b):
        assume(a != b)
        arc = Arc(a, b)
        assert 0 < float(arc.length) <= 1

    @given(a=unit_float, b=unit_float)
    def test_complement_lengths_sum_to_one(self, a, b):
        assume(a != b)
        assert float(Arc(a, b).length) + float(Arc(b, a).length) == pytest.approx(1.0)

    @given(a=unit_float, b=unit_float, p=unit_float)
    def test_point_in_exactly_one_half(self, a, b, p):
        """[a,b) and [b,a) partition the ring."""
        assume(a != b)
        assert (p in Arc(a, b)) != (p in Arc(b, a))

    @given(a=unit_float, b=unit_float)
    def test_pieces_reassemble(self, a, b):
        assume(a != b)
        arc = Arc(a, b)
        total = sum(hi - lo for lo, hi in arc.pieces())
        assert float(total) == pytest.approx(float(arc.length))
        for lo, hi in arc.pieces():
            assert lo < hi

    @given(a=unit_fraction, b=unit_fraction, digit=st.integers(0, 1))
    def test_image_membership(self, a, b, digit):
        """p ∈ arc ⟺ f_d(p) ∈ f_d(arc) — the discretization soundness law."""
        assume(a != b)
        g = ContinuousGraph(2)
        arc = Arc(a, b)
        imgs = g.image_arcs_by_digit(arc)[digit]
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = Fraction(int(rng.integers(0, 1 << 20)), 1 << 20)
            assert (p in arc) == any(g.child(p, digit) in img for img in imgs)

class TestSegmentMapProperties:
    @settings(max_examples=50)
    @given(points=st.lists(unit_float, min_size=1, max_size=40, unique=True),
           probe=unit_float)
    def test_cover_contains_probe(self, points, probe):
        sm = SegmentMap(points)
        i = sm.cover(probe)
        assert probe in sm.segment(i)

    @settings(max_examples=50)
    @given(points=st.lists(unit_float, min_size=2, max_size=40, unique=True))
    def test_segments_partition_ring(self, points):
        sm = SegmentMap(points)
        assert sm.lengths().sum() == pytest.approx(1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = float(rng.random())
            covering = [i for i in range(len(sm)) if p in sm.segment(i)]
            assert len(covering) == 1

    @settings(max_examples=50)
    @given(points=st.lists(unit_float, min_size=2, max_size=30, unique=True),
           a=unit_float, b=unit_float)
    def test_covering_complete(self, points, a, b):
        """covering(arc) returns every segment intersecting the arc."""
        assume(a != b)
        sm = SegmentMap(points)
        arc = Arc(a, b)
        got = set(sm.covering(arc))
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = float(rng.random()) * float(arc.length)
            p = normalize(a + t)
            if p in arc:
                assert sm.cover(p) in got

    @settings(max_examples=50)
    @given(points=st.lists(unit_float, min_size=2, max_size=30, unique=True),
           extra=unit_float)
    def test_insert_remove_roundtrip(self, points, extra):
        assume(extra not in points)
        sm = SegmentMap(points)
        before = list(sm.points)
        sm.insert(extra)
        sm.remove(extra)
        assert list(sm.points) == before

    @settings(max_examples=50)
    @given(points=st.lists(unit_float, min_size=2, max_size=30, unique=True))
    def test_predecessor_successor_inverse(self, points):
        sm = SegmentMap(points)
        for p in sm.points:
            assert sm.successor(sm.predecessor(p)) == p
            assert sm.predecessor(sm.successor(p)) == p
