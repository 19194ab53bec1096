"""Unit tests for the continuous Distance Halving graph (paper §2.1–2.3)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.continuous import ContinuousGraph, binary_digits, digits_to_point
from repro.core.interval import Arc, linear_distance


@pytest.fixture
def g2():
    return ContinuousGraph(2)


@pytest.fixture
def g4():
    return ContinuousGraph(4)


class TestEdgeMaps:
    def test_left_right_definitions(self, g2):
        # l(y) = y/2, r(y) = y/2 + 1/2
        assert g2.left(0.6) == pytest.approx(0.3)
        assert g2.right(0.6) == pytest.approx(0.8)

    def test_left_shifts_zero_bit(self, g2):
        # binary: l inserts a 0 at the front of the fraction
        y = 0.75  # 0.11
        assert g2.left(y) == pytest.approx(0.375)  # 0.011

    def test_right_shifts_one_bit(self, g2):
        y = 0.25  # 0.01
        assert g2.right(y) == pytest.approx(0.625)  # 0.101

    def test_backward_inverts_children(self, g2):
        for y in (0.0, 0.1, 0.5, 0.93):
            assert g2.backward(g2.left(y)) == pytest.approx(y)
            assert g2.backward(g2.right(y)) == pytest.approx(y)

    def test_backward_inverts_children_delta4(self, g4):
        for y in (0.0, 0.37, 0.99):
            for d in range(4):
                assert g4.backward(g4.child(y, d)) == pytest.approx(y)

    def test_invalid_digit_rejected(self, g2):
        with pytest.raises(ValueError):
            g2.child(0.5, 2)
        with pytest.raises(ValueError):
            g2.child(0.5, -1)

    def test_right_requires_binary(self, g4):
        with pytest.raises(ValueError):
            g4.right(0.5)

    def test_delta_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            ContinuousGraph(1)


class TestDistanceHalving:
    """Observation 2.3: every edge map halves (divides by Δ) linear distance."""

    def test_halving_binary(self, g2):
        y, z = 0.13, 0.77
        assert linear_distance(g2.left(y), g2.left(z)) == pytest.approx(
            linear_distance(y, z) / 2
        )
        assert linear_distance(g2.right(y), g2.right(z)) == pytest.approx(
            linear_distance(y, z) / 2
        )

    def test_halving_after_t_steps(self, g2):
        rng = np.random.default_rng(7)
        y, z = 0.123456, 0.654321
        digits = tuple(int(d) for d in rng.integers(0, 2, size=20))
        wy, wz = g2.walk(digits, y), g2.walk(digits, z)
        assert linear_distance(wy, wz) == pytest.approx(
            linear_distance(y, z) * 2.0**-20
        )

    def test_division_by_delta(self, g4):
        y, z = 0.2, 0.9
        for d in range(4):
            assert linear_distance(g4.child(y, d), g4.child(z, d)) == pytest.approx(
                linear_distance(y, z) / 4
            )


class TestWalk:
    def test_empty_walk_is_identity(self, g2):
        assert g2.walk((), 0.42) == 0.42

    def test_walk_matches_iterated_children(self, g2):
        y = 0.3141592653589793
        digits = (1, 0, 0, 1, 1, 0, 1)
        expected = y
        for d in digits:
            expected = g2.child(expected, d)
        assert g2.walk(digits, y) == pytest.approx(expected, abs=1e-15)

    def test_walk_matches_iterated_children_delta3(self):
        g = ContinuousGraph(3)
        y = 0.77
        digits = (2, 0, 1, 2, 1)
        expected = y
        for d in digits:
            expected = g.child(expected, d)
        assert g.walk(digits, y) == pytest.approx(expected, abs=1e-15)

    def test_walk_points_are_continuous_path(self, g2):
        """Consecutive walk points are connected by a continuous edge."""
        y = 0.6180339887
        digits = (0, 1, 1, 0, 1)
        pts = g2.walk_points(digits, y)
        assert len(pts) == len(digits) + 1
        for k, d in enumerate(digits):
            assert g2.child(pts[k], d) == pytest.approx(pts[k + 1], abs=1e-15)

    def test_walk_exact_fractions(self, g2):
        y = Fraction(1, 3)
        digits = (1, 0, 1)
        res = g2.walk(digits, y)
        assert isinstance(res, Fraction)
        # closed form: (y + 1 + 0*2 + 1*4)/8
        assert res == (Fraction(1, 3) + 5) / 8

    def test_backward_inverts_walk_step(self, g2):
        """b strips exactly the last applied digit (phase-II semantics)."""
        y = 0.275
        digits = (1, 1, 0, 1)
        full = g2.walk(digits, y)
        assert g2.backward(full) == pytest.approx(g2.walk(digits[:-1], y))


class TestApproachWalk:
    """Claim 2.4: walking by the (reversed) digits of y approaches y."""

    @pytest.mark.parametrize("t", [1, 2, 5, 10, 20])
    def test_approach_bound_binary(self, g2, t):
        rng = np.random.default_rng(t)
        for _ in range(20):
            y, z = float(rng.random()), float(rng.random())
            w = g2.walk(g2.approach_digits(y, t), z)
            assert linear_distance(w, y) <= 2.0**-t + 1e-12

    @pytest.mark.parametrize("delta", [2, 3, 4, 8])
    def test_approach_bound_general_delta(self, delta):
        g = ContinuousGraph(delta)
        rng = np.random.default_rng(delta)
        t = 6
        for _ in range(20):
            y, z = float(rng.random()), float(rng.random())
            w = g.walk(g.approach_digits(y, t), z)
            assert linear_distance(w, y) <= float(delta) ** -t + 1e-12

    def test_approach_is_reversed_prefix(self, g2):
        y = 0.8125  # 0.1101 binary
        assert binary_digits(y, 4) == (1, 1, 0, 1)
        assert g2.approach_digits(y, 4) == (1, 0, 1, 1)

    def test_approach_independent_of_start(self, g2):
        """Claim 2.4: the bound holds regardless of the starting point z."""
        y = 0.356
        digits = g2.approach_digits(y, 12)
        for z in (0.0, 0.25, 0.999, y):
            assert linear_distance(g2.walk(digits, z), y) <= 2.0**-12 + 1e-12


class TestDigits:
    def test_binary_digits_msb_first(self):
        assert binary_digits(0.625, 3) == (1, 0, 1)  # 0.101

    def test_base3_digits(self):
        assert binary_digits(Fraction(5, 9), 2, delta=3) == (1, 2)  # 5/9 = 0.12 base 3

    def test_zero(self):
        assert binary_digits(0.0, 5) == (0, 0, 0, 0, 0)

    def test_digits_to_point_roundtrip(self):
        y = Fraction(11, 16)
        assert digits_to_point(binary_digits(y, 4)) == y

    def test_digits_to_point_base4(self):
        assert digits_to_point((3, 2), delta=4) == Fraction(3, 4) + Fraction(2, 16)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            binary_digits(0.5, -1)

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            digits_to_point((2,), delta=2)


class TestIntervalImages:
    def test_image_arcs_halve_length(self, g2):
        arc = Arc(0.2, 0.6)
        imgs = g2.image_arcs(arc)
        assert len(imgs) == 2
        for img in imgs:
            assert float(img.length) == pytest.approx(0.2)

    def test_image_arcs_are_fi_images(self, g4):
        arc = Arc(0.0, 0.4)
        imgs = g4.image_arcs(arc)
        for i, img in enumerate(imgs):
            assert img.start == pytest.approx(i / 4)
            assert float(img.length) == pytest.approx(0.1)

    def test_figure1_interval_mapping(self, g2):
        """Figure 1 (lower): a segment maps to two intervals of half size."""
        arc = Arc(0.3, 0.5)
        left_img, right_img = g2.image_arcs(arc)
        assert left_img == Arc(0.15, 0.25)
        assert right_img == Arc(0.65, 0.75)

    def test_preimage_contiguous_double_length(self, g2):
        arc = Arc(0.2, 0.3)
        pres = g2.preimage_arcs(arc)
        assert len(pres) == 1
        assert pres[0] == Arc(0.4, 0.6)

    def test_preimage_of_wrapping_arc(self, g2):
        arc = Arc(0.9, 0.05)  # pieces [0.9,1) and [0,0.05)
        pres = g2.preimage_arcs(arc)
        total = sum(float(p.length) for p in pres)
        assert total == pytest.approx(2 * float(arc.length))

    def test_preimage_saturates_to_full_ring(self, g2):
        assert g2.preimage_arcs(Arc(0.0, 0.6)) == [Arc(0.0, 0.0)]

    def test_points_in_image_have_edge_from_arc(self, g2):
        """Discretization soundness: image points come from arc points."""
        arc = Arc(0.42, 0.58)
        for img in g2.image_arcs(arc):
            mid = img.midpoint
            assert g2.backward(mid) in arc
