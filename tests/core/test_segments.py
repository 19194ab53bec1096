"""Unit tests for the dynamic segment decomposition (paper §2.1)."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from repro.core.interval import Arc
from repro.core.segments import SegmentMap


@pytest.fixture
def quarters():
    return SegmentMap([0.0, 0.25, 0.5, 0.75])


class TestConstruction:
    def test_empty(self):
        sm = SegmentMap()
        assert len(sm) == 0
        with pytest.raises(LookupError):
            sm.cover(0.5)

    def test_points_sorted(self):
        sm = SegmentMap([0.7, 0.1, 0.4])
        assert list(sm.points) == [0.1, 0.4, 0.7]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            SegmentMap([0.3, 0.3])

    def test_normalizes_inputs(self):
        sm = SegmentMap([1.25, -0.5])
        assert list(sm.points) == [0.25, 0.5]


class TestCover:
    def test_interior(self, quarters):
        assert quarters.cover(0.3) == 1
        assert quarters.cover_point(0.3) == 0.25

    def test_point_is_own_cover(self, quarters):
        for i, p in enumerate(quarters.points):
            assert quarters.cover(p) == i

    def test_wrap_before_first(self):
        sm = SegmentMap([0.2, 0.6])
        # [0.6, 1)∪[0, 0.2) belongs to the last server
        assert sm.cover(0.1) == 1
        assert sm.cover(0.7) == 1
        assert sm.cover(0.3) == 0

    def test_single_server_covers_everything(self):
        sm = SegmentMap([0.4])
        for y in (0.0, 0.4, 0.9):
            assert sm.cover(y) == 0


class TestSegments:
    def test_segment_arcs(self, quarters):
        assert quarters.segment(0) == Arc(0.0, 0.25)
        assert quarters.segment(3) == Arc(0.75, 0.0)  # wrapping last segment

    def test_segment_of_point(self, quarters):
        assert quarters.segment_of(0.5) == Arc(0.5, 0.75)

    def test_single_segment_is_full_ring(self):
        sm = SegmentMap([0.3])
        assert float(sm.segment(0).length) == 1

    def test_lengths_sum_to_one(self, quarters):
        assert quarters.lengths().sum() == pytest.approx(1.0)

    def test_lengths_random(self):
        rng = np.random.default_rng(0)
        sm = SegmentMap(rng.random(100))
        assert sm.lengths().sum() == pytest.approx(1.0)
        assert len(sm.lengths()) == 100

    @pytest.mark.parametrize("points", [
        [0.3], [0.0, 0.25, 0.5, 0.75], [0.1, 0.7, 0.9999999999999999],
        [Fraction(1, 3)], [Fraction(1, 7), Fraction(1, 3), Fraction(6, 7)],
    ])
    def test_segment_length_equals_arc_length(self, points, monkeypatch):
        """Same value and type as ``segment(i).length``, wrap and n = 1
        included — computed from the two points, without an ``Arc``."""
        sm = SegmentMap(points)
        expect = [sm.segment(i).length for i in range(len(sm))]
        monkeypatch.setattr(Arc, "__post_init__", None)  # any Arc() raises
        for i, length in enumerate(expect):
            got = sm.segment_length(i)
            assert got == length and type(got) is type(length)

    def test_segment_length_of_empty_map_raises(self):
        with pytest.raises(LookupError):
            SegmentMap().segment_length(0)

    def test_midpoints_from_array_equals_arc_midpoints(self):
        rng = np.random.default_rng(3)
        for pts in ([0.3], [0.0, 0.9999999999999999], rng.random(200)):
            sm = SegmentMap(pts)
            assert np.array_equal(
                SegmentMap.midpoints_from_array(sm.as_array()),
                sm.midpoints_array())

    def test_predecessor_successor_ring(self, quarters):
        assert quarters.predecessor(0.0) == 0.75
        assert quarters.successor(0.75) == 0.0
        assert quarters.successor(0.25) == 0.5


class TestMutation:
    def test_insert_returns_index(self, quarters):
        assert quarters.insert(0.3) == 2
        assert quarters.cover(0.35) == 2

    def test_insert_duplicate_rejected(self, quarters):
        with pytest.raises(ValueError):
            quarters.insert(0.25)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), np.float64("nan")])
    def test_insert_non_finite_rejected(self, quarters, bad):
        with pytest.raises(ValueError, match=f"id\\[0\\] is {float(bad)!r}"):
            quarters.insert(bad)
        assert quarters.points == (0.0, 0.25, 0.5, 0.75)
        quarters.check_invariants()

    def test_insert_splits_segment(self, quarters):
        before = quarters.segment_of(0.25)
        quarters.insert(0.3)
        after = quarters.segment_of(0.25)
        assert float(after.length) < float(before.length)
        assert quarters.segment_of(0.3) == Arc(0.3, 0.5)

    def test_remove(self, quarters):
        quarters.remove(0.25)
        assert 0.25 not in quarters
        # predecessor's segment absorbed the range
        assert quarters.segment_of(0.0) == Arc(0.0, 0.5)

    def test_remove_missing_raises(self, quarters):
        with pytest.raises(KeyError):
            quarters.remove(0.33)

    def test_index_of_missing_raises(self, quarters):
        with pytest.raises(KeyError):
            quarters.index_of(0.33)

    def test_churn_preserves_invariants(self):
        rng = np.random.default_rng(42)
        sm = SegmentMap()
        alive = []
        for step in range(500):
            if not alive or rng.random() < 0.6:
                p = float(rng.random())
                if p not in sm:
                    sm.insert(p)
                    alive.append(p)
            else:
                p = alive.pop(int(rng.integers(len(alive))))
                sm.remove(p)
            if len(sm):
                sm.check_invariants()


class TestCheckInvariants:
    """The audit reads lengths off neighbouring points; every assertion
    it made through per-segment ``Arc`` objects still fires."""

    def test_unsorted_points_fail(self, quarters):
        quarters._points[1], quarters._points[2] = 0.5, 0.25
        with pytest.raises(AssertionError, match="sorted"):
            quarters.check_invariants()

    def test_duplicate_points_fail(self, quarters):
        quarters._points[2] = 0.25
        with pytest.raises(AssertionError, match="sorted"):
            quarters.check_invariants()

    def test_point_outside_unit_interval_fails(self, quarters):
        quarters._points.append(1.5)
        with pytest.raises(AssertionError, match="outside"):
            quarters.check_invariants()

    def test_exact_fraction_map_passes(self):
        SegmentMap([Fraction(k, 7) for k in range(7)]).check_invariants()

    def test_builds_no_arc(self, quarters, monkeypatch):
        monkeypatch.setattr(Arc, "__post_init__", None)  # any Arc() raises
        quarters.check_invariants()


class TestColumn:
    """The live float64 mirror of the id list (``SegmentMap.column``)."""

    def test_column_mirrors_the_list_through_inserts_and_removes(self):
        sm = SegmentMap([0.5, 0.125])
        assert sm.column.dtype == np.float64
        assert sm.column.tolist() == [0.125, 0.5]
        sm.insert(0.25)
        sm.insert(0.0)
        sm.remove(0.5)
        assert sm.column.tolist() == list(sm) == [0.0, 0.125, 0.25]
        sm.check_invariants()

    def test_column_is_read_only(self, quarters):
        with pytest.raises(ValueError, match="read-only"):
            quarters.column[0] = 0.1
        assert not quarters.column.flags.writeable

    def test_as_array_hands_out_a_copy(self, quarters):
        arr = quarters.as_array()
        arr[:] = -1.0
        assert list(quarters) == [0.0, 0.25, 0.5, 0.75]
        assert quarters.column.tolist() == [0.0, 0.25, 0.5, 0.75]
        quarters.check_invariants()

    def test_bounds_arrays_do_not_alias_the_buffer(self, quarters):
        starts, ends = quarters.bounds_arrays()
        starts[:] = ends[:] = -1.0
        quarters.check_invariants()

    @pytest.mark.parametrize("n", [16, 32])
    def test_buffer_grows_past_its_capacity(self, n):
        sm = SegmentMap()
        for k in range(n):
            sm.insert(k / 64)
        assert len(sm._buf) == n  # full: the next insert doubles it
        sm.insert(0.99)
        assert len(sm._buf) == 2 * n
        sm.insert(0.001)  # lands inside, shifts the tail
        assert sm.column.tolist() == list(sm)
        sm.check_invariants()
        while len(sm):
            sm.remove(sm.point_at(len(sm) // 2))
            sm.check_invariants()
        assert sm.column.size == 0

    def test_is_float_counts_exact_ids(self):
        sm = SegmentMap([0.25, Fraction(1, 2)])
        assert not sm.is_float()
        sm.remove(0.5)  # equal to the stored Fraction: that id goes
        assert sm.is_float()
        sm.insert(Fraction(1, 3))
        sm.insert(Fraction(2, 3))
        sm.remove(Fraction(1, 3))
        assert not sm.is_float()
        sm.remove(Fraction(2, 3))
        assert sm.is_float()
        sm.check_invariants()

    def test_exact_ids_are_mirrored_as_their_floats(self):
        sm = SegmentMap([Fraction(k, 7) for k in range(7)])
        assert sm.column.tolist() == [k / 7 for k in range(7)]
        assert sm.point_at(3) == Fraction(3, 7)
        assert isinstance(sm.point_at(3), Fraction)

    @pytest.mark.parametrize("clone", [
        lambda sm: pickle.loads(pickle.dumps(sm)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_copies_trim_the_buffer_and_stay_usable(self, clone):
        sm = SegmentMap(k / 40 for k in range(19))
        sm.insert(0.6)  # 19 -> 20 ids doubles the buffer to 38
        assert len(sm._buf) > len(sm)
        twin = clone(sm)
        assert len(twin._buf) == len(twin) == 20
        twin.insert(0.99)  # grows from a full buffer
        twin.insert(Fraction(1, 3))
        twin.check_invariants()
        assert len(sm) == 20 and sm.is_float()  # the original is untouched
        empty = clone(SegmentMap())
        empty.insert(0.5)
        empty.check_invariants()


class TestColumnAudit:
    """``check_invariants`` ties the column to the id list, by name."""

    def test_corrupted_buffer_fails(self, quarters):
        quarters._buf[2] = 0.6  # still sorted: only the tie can see it
        with pytest.raises(AssertionError, match="column out of step"):
            quarters.check_invariants()

    def test_stale_tail_fails(self, quarters):
        quarters._points.append(0.9)  # list edited behind the mirror's back
        with pytest.raises(AssertionError, match="column out of step"):
            quarters.check_invariants()

    def test_miscounted_exact_ids_fail(self, quarters):
        quarters._exact = 1
        with pytest.raises(AssertionError, match="non-float ids"):
            quarters.check_invariants()

    def test_sortedness_is_still_reported_first(self, quarters):
        quarters._points[1], quarters._points[2] = 0.5, 0.25
        with pytest.raises(AssertionError, match="sorted"):
            quarters.check_invariants()


class TestCovering:
    def test_arc_within_one_segment(self, quarters):
        assert quarters.covering(Arc(0.3, 0.4)) == [1]

    def test_arc_spanning_boundary(self, quarters):
        assert sorted(quarters.covering(Arc(0.2, 0.3))) == [0, 1]

    def test_arc_starting_on_boundary(self, quarters):
        assert quarters.covering(Arc(0.25, 0.5)) == [1]

    def test_wrapping_arc(self, quarters):
        assert sorted(quarters.covering(Arc(0.9, 0.1))) == [0, 3]

    def test_full_ring_covers_all(self, quarters):
        assert sorted(quarters.covering(Arc(0.0, 0.0))) == [0, 1, 2, 3]

    def test_single_server(self):
        sm = SegmentMap([0.5])
        assert sm.covering(Arc(0.1, 0.2)) == [0]

    def test_covering_points(self, quarters):
        assert quarters.covering_points(Arc(0.2, 0.3)) == [0.0, 0.25]

    def test_covering_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        sm = SegmentMap(rng.random(50))
        for _ in range(50):
            a, b = float(rng.random()), float(rng.random())
            arc = Arc(a, b)
            got = set(sm.covering(arc))
            # brute force: sample the arc densely and collect covers
            expect = set()
            for i in range(len(sm)):
                if sm.segment(i).intersection_length(arc) > 0:
                    expect.add(i)
                elif any(pa in arc for pa, _ in sm.segment(i).pieces()):
                    expect.add(i)
            assert got == expect


class TestSmoothness:
    def test_equal_spacing_is_perfectly_smooth(self):
        sm = SegmentMap([i / 8 for i in range(8)])
        assert sm.smoothness() == pytest.approx(1.0)

    def test_definition_ratio(self):
        sm = SegmentMap([0.0, 0.1, 0.5])  # lengths 0.1, 0.4, 0.5
        assert sm.smoothness() == pytest.approx(5.0)

    def test_is_smooth_predicate(self):
        sm = SegmentMap([0.0, 0.1, 0.5])
        assert sm.is_smooth(5.0)
        assert not sm.is_smooth(4.9)

    def test_random_points_rho_grows(self):
        """Lemma 4.1: uniform ids give max ~ log n / n, min ~ 1/n²: ρ ≫ 1."""
        rng = np.random.default_rng(11)
        sm = SegmentMap(rng.random(1000))
        assert sm.smoothness() > 10.0

    def test_exact_fraction_mode(self):
        sm = SegmentMap([Fraction(0), Fraction(1, 4), Fraction(1, 2)])
        assert sm.segment(0).length == Fraction(1, 4)
        assert sm.segment(2).length == Fraction(1, 2)
        assert sm.smoothness() == pytest.approx(2.0)
