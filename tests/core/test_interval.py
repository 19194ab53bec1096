"""Unit tests for ring-interval arithmetic (paper §2.1 geometry)."""

from fractions import Fraction

import pytest

from repro.core.interval import (
    Arc,
    arcs_cover_ring,
    linear_distance,
    normalize,
)


class TestNormalize:
    def test_identity_inside(self):
        assert normalize(0.25) == 0.25
        assert normalize(0.0) == 0.0

    def test_wraps_above_one(self):
        assert normalize(1.25) == 0.25
        assert normalize(2.0) == 0.0

    def test_wraps_negative(self):
        assert normalize(-0.25) == 0.75

    def test_tiny_negative_does_not_return_one(self):
        v = normalize(-1e-18)
        assert 0.0 <= v < 1.0

    def test_fraction_exact(self):
        assert normalize(Fraction(5, 4)) == Fraction(1, 4)
        assert isinstance(normalize(Fraction(5, 4)), Fraction)

    def test_fraction_negative(self):
        assert normalize(Fraction(-1, 3)) == Fraction(2, 3)


class TestDistances:
    def test_linear_distance_is_absolute(self):
        assert linear_distance(0.1, 0.9) == pytest.approx(0.8)

    def test_midpoint_plain(self):
        assert Arc(0.2, 0.4).midpoint == pytest.approx(0.3)

    def test_midpoint_wrapping(self):
        assert Arc(0.9, 0.1).midpoint == pytest.approx(0.0)


class TestArcBasics:
    def test_length_plain(self):
        assert Arc(0.2, 0.7).length == pytest.approx(0.5)

    def test_length_wrapping(self):
        assert Arc(0.9, 0.1).length == pytest.approx(0.2)

    def test_full_ring_length(self):
        assert Arc(0.0, 0.0).length == 1

    def test_contains_plain(self):
        a = Arc(0.2, 0.7)
        assert 0.2 in a          # half-open: start included
        assert 0.699 in a
        assert 0.7 not in a      # end excluded
        assert 0.1 not in a

    def test_contains_wrapping(self):
        a = Arc(0.9, 0.1)
        assert 0.95 in a
        assert 0.05 in a
        assert 0.0 in a
        assert 0.1 not in a
        assert 0.5 not in a

    def test_full_ring_contains_everything(self):
        a = Arc(0.3, 0.3)
        for p in (0.0, 0.3, 0.999):
            assert p in a

    def test_midpoint_plain(self):
        assert Arc(0.2, 0.4).midpoint == pytest.approx(0.3)

    def test_midpoint_wrapping(self):
        assert Arc(0.9, 0.1).midpoint == pytest.approx(0.0)

    def test_midpoint_in_arc(self):
        for arc in (Arc(0.1, 0.4), Arc(0.8, 0.2), Arc(0.0, 0.0)):
            assert arc.midpoint in arc


class TestArcPieces:
    def test_plain_single_piece(self):
        assert list(Arc(0.1, 0.6).pieces()) == [(0.1, 0.6)]

    def test_wrapping_two_pieces(self):
        assert list(Arc(0.8, 0.2).pieces()) == [(0.8, 1), (0, 0.2)]

    def test_full_ring_anchored_at_zero(self):
        assert list(Arc(0.0, 0.0).pieces()) == [(0, 1)]

    def test_full_ring_anchored_elsewhere(self):
        pieces = list(Arc(0.4, 0.4).pieces())
        assert pieces == [(0.4, 1), (0, 0.4)]
        assert sum(b - a for a, b in pieces) == pytest.approx(1.0)

    def test_pieces_lengths_sum_to_length(self):
        for arc in (Arc(0.3, 0.31), Arc(0.99, 0.01), Arc(0.5, 0.5)):
            total = sum(b - a for a, b in arc.pieces())
            assert total == pytest.approx(float(arc.length))


class TestArcSplit:
    def test_split_plain(self):
        left, right = Arc(0.2, 0.8).split(0.5)
        assert left == Arc(0.2, 0.5)
        assert right == Arc(0.5, 0.8)

    def test_split_wrapping_at_low_side(self):
        left, right = Arc(0.9, 0.2).split(0.1)
        assert left == Arc(0.9, 0.1)
        assert right == Arc(0.1, 0.2)

    def test_split_rejects_exterior_point(self):
        with pytest.raises(ValueError):
            Arc(0.2, 0.4).split(0.5)

    def test_split_rejects_start(self):
        with pytest.raises(ValueError):
            Arc(0.2, 0.4).split(0.2)

    def test_split_preserves_total_length(self):
        a, b = Arc(0.7, 0.3).split(0.9)
        assert float(a.length + b.length) == pytest.approx(0.6)


class TestArcIntersection:
    def test_disjoint(self):
        assert Arc(0.1, 0.2).intersection_length(Arc(0.3, 0.4)) == 0
        assert not Arc(0.1, 0.2).overlaps(Arc(0.3, 0.4))

    def test_nested(self):
        assert Arc(0.1, 0.5).intersection_length(Arc(0.2, 0.3)) == pytest.approx(0.1)

    def test_partial(self):
        assert Arc(0.1, 0.3).intersection_length(Arc(0.2, 0.5)) == pytest.approx(0.1)

    def test_wrapping_vs_plain(self):
        assert Arc(0.9, 0.2).intersection_length(Arc(0.0, 0.1)) == pytest.approx(0.1)

    def test_touching_half_open_do_not_overlap(self):
        assert Arc(0.1, 0.2).intersection_length(Arc(0.2, 0.3)) == 0

    def test_full_ring_intersection_is_other(self):
        assert Arc(0.0, 0.0).intersection_length(Arc(0.2, 0.5)) == pytest.approx(0.3)


class TestArcScaled:
    def test_halving_map_left(self):
        # l(y) = y/2: image of [0.2, 0.6) is [0.1, 0.3)
        img = Arc(0.2, 0.6).scaled(0.5, 0.0)
        assert img == Arc(0.1, 0.3)

    def test_halving_map_right(self):
        img = Arc(0.2, 0.6).scaled(0.5, 0.5)
        assert img == Arc(0.6, 0.8)

    def test_wrapping_arc_scales_by_length(self):
        # [0.75, 1) under l must give [0.375, 0.5) — regression for the
        # endpoint-0.0 bug (end stored as 0.0 stands for 1.0).
        img = Arc(0.75, 0.0).scaled(0.5, 0.0)
        assert img == Arc(0.375, 0.5)

    def test_two_piece_wrap_rejected(self):
        # [0.9, 0.1) has mass on both sides of the seam: its l-image is
        # [0.45, 0.5) ∪ [0, 0.05) — disconnected, so scaled() must refuse
        # (ContinuousGraph.image_arcs maps the pieces separately).
        with pytest.raises(ValueError):
            Arc(0.9, 0.1).scaled(0.5, 0.0)

    def test_image_arcs_handle_two_piece_wrap(self):
        from repro.core.continuous import ContinuousGraph

        g = ContinuousGraph(2)
        imgs = g.image_arcs_by_digit(Arc(0.9, 0.1))[0]
        assert Arc(0.45, 0.5) in imgs
        assert Arc(0.0, 0.05) in imgs
        total = sum(float(i.length) for i in imgs)
        assert total == pytest.approx(0.1)

    def test_full_ring_contracts(self):
        img = Arc(0.0, 0.0).scaled(0.5, 0.5)
        assert img == Arc(0.5, 0.0)  # [0.5, 1)
        assert float(img.length) == pytest.approx(0.5)

    def test_fraction_exactness(self):
        img = Arc(Fraction(1, 3), Fraction(2, 3)).scaled(Fraction(1, 2), Fraction(1, 2))
        assert img.start == Fraction(2, 3)
        assert img.end == Fraction(5, 6)


class TestCoverRing:
    def test_full_arc_covers(self):
        assert arcs_cover_ring([Arc(0.0, 0.0)])

    def test_two_halves_cover(self):
        assert arcs_cover_ring([Arc(0.0, 0.5), Arc(0.5, 0.0)])

    def test_gap_detected(self):
        assert not arcs_cover_ring([Arc(0.0, 0.5), Arc(0.6, 0.0)])

    def test_gap_at_seam_detected(self):
        assert not arcs_cover_ring([Arc(0.05, 0.95)])

    def test_overlapping_cover(self):
        arcs = [Arc(0.0, 0.4), Arc(0.3, 0.8), Arc(0.7, 0.1)]
        assert arcs_cover_ring(arcs)

    def test_empty_does_not_cover(self):
        assert not arcs_cover_ring([])
