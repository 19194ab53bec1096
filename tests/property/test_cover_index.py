"""Property tests: the bucket-grid cover index equals the oracle.

:class:`~repro.core.segments.CoverIndex` answers the cover query with a
table read plus a short linear advance;
:func:`~repro.core.segments.cover_indices` answers it with a binary
search.  The contract is equality on *every* sorted point set and every
query in ``[0, 1)`` — no tolerance — so the point sets
(:mod:`oracles.inputs`) are the ones a grid can get wrong: tiny n, every
id inside one bucket, ids at 0.0 and just below 1.0, ids exactly on
bucket edges, adjacent floats; and the queries are id points, one ulp
either side of them, and bucket edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.inputs import BELOW_ONE, clip_unit, point_sets, unit

from repro.core.segments import (_ADVANCE_CAP, CoverIndex, cover_grid,
                                 cover_indices)


def queries(points: np.ndarray, size: int, extra) -> np.ndarray:
    """Id points, one ulp either side of each, every bucket edge, extras."""
    edges = np.arange(size) / size
    return clip_unit(np.concatenate([
        points, np.nextafter(points, -1.0), np.nextafter(points, 2.0),
        edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
        np.asarray(extra, dtype=np.float64), [0.0, BELOW_ONE],
    ]))


class TestGridEqualsOracle:
    @settings(max_examples=300, deadline=None)
    @given(points=point_sets(), extra=st.lists(unit, max_size=16))
    def test_cover_equals_cover_indices(self, points, extra):
        index = CoverIndex(points)
        ys = queries(points, len(index.grid), extra)
        assert_same(index.cover(ys), cover_indices(points, ys))

    @settings(max_examples=100, deadline=None)
    @given(points=point_sets(), extra=st.lists(unit, max_size=16),
           shift=st.sampled_from([1, 3, 6]))
    def test_any_power_of_two_resolution_is_exact(self, points, extra, shift):
        """Exactness never depends on the resolution, only speed does."""
        index = CoverIndex(points)
        index.grid = cover_grid(points, 1 << shift)
        ys = queries(points, 1 << shift, extra)
        assert np.array_equal(index.cover(ys), cover_indices(points, ys))

    def test_resolution_is_smallest_power_of_two_at_least_2n(self):
        for n, size in [(1, 2), (2, 4), (3, 8), (4, 8), (5, 16),
                        (1024, 2048), (1025, 4096)]:
            points = np.arange(n) / n
            assert len(CoverIndex(points).grid) == size

    def test_clustered_ids_finish_with_the_binary_search_tail(self):
        """More ids in one bucket than the advance cap: still exact."""
        points = 0.5 + np.arange(4 * _ADVANCE_CAP) * 1e-12
        index = CoverIndex(points)
        ys = clip_unit(np.concatenate([points, points + 5e-13,
                                       [0.0, 0.4, 0.6]]))
        assert np.array_equal(index.cover(ys), cover_indices(points, ys))

    def test_empty_query(self):
        index = CoverIndex(np.array([0.25, 0.75]))
        assert index.cover(np.zeros(0)).size == 0


def _columns(moved):
    """``[(p, step), ...]`` as the ``(ids, steps)`` arrays ``follow`` takes."""
    ids, steps = zip(*moved) if moved else ((), ())
    return np.array(ids, dtype=np.float64), np.array(steps, dtype=np.intp)


class TestFollow:
    """``follow`` keeps grid and ext equal to a freshly built index."""

    @settings(max_examples=100, deadline=None)
    @given(start=point_sets(),
           ops=st.lists(st.tuples(st.booleans(), unit), max_size=60))
    def test_patched_index_equals_fresh(self, start, ops):
        points = start
        index = CoverIndex(points)
        for leave, value in ops:
            if leave and points.size > 1:
                at = int(value * points.size)
                moved = [(points[at], -1)]
                points = np.delete(points, at)
            elif value not in points:
                at = int(np.searchsorted(points, value))
                points = np.insert(points, at, value)
                moved = [(points[at], 1)]
            else:
                continue
            index.follow(np.append(points, np.inf), *_columns(moved))
            size = len(index.grid)
            assert size // 8 <= points.size <= size // 2
            assert np.array_equal(index.grid, cover_grid(points, size))
            assert np.array_equal(index.ext[:-1], points)
            assert index.ext[-1] == np.inf

    @settings(max_examples=100, deadline=None)
    @given(start=point_sets(),
           ops=st.lists(st.tuples(st.booleans(), unit), max_size=40),
           chunk=st.integers(2, 12))
    def test_several_ops_in_one_follow(self, start, ops, chunk):
        """A refresh's shifts land as one pass, in any order of ops."""
        points = start
        index = CoverIndex(points)
        moved = []
        for k, (leave, value) in enumerate(ops):
            if leave and points.size > 1:
                at = int(value * points.size)
                moved.append((points[at], -1))
                points = np.delete(points, at)
            elif value not in points:
                at = int(np.searchsorted(points, value))
                points = np.insert(points, at, value)
                moved.append((points[at], 1))
            if len(moved) >= chunk or k == len(ops) - 1:
                index.follow(np.append(points, np.inf), *_columns(moved))
                moved = []
                size = len(index.grid)
                assert np.array_equal(index.grid, cover_grid(points, size))
                assert np.array_equal(index.ext[:-1], points)

    @pytest.mark.parametrize("joins", [1, 2, 3, 5, 40, 600])
    def test_slice_adds_and_one_cumulative_sum_agree(self, joins):
        """At G = 4096 up to four ops take slice adds, more one cumsum."""
        rng = np.random.default_rng(joins)
        points = np.sort(rng.random(1500))
        index = CoverIndex(points)
        assert len(index.grid) == 4096
        joined = rng.random(joins)
        left = points[rng.choice(points.size, joins // 2, replace=False)]
        after = np.setdiff1d(np.union1d(points, joined), left)
        index.follow(np.append(after, np.inf), np.append(joined, left),
                     np.repeat([1, -1], [joins, joins // 2]))
        assert len(index.grid) == 4096
        assert np.array_equal(index.grid, cover_grid(after, 4096))

    def test_resolution_rechosen_when_n_leaves_the_band(self):
        points = np.arange(16) / 16
        index = CoverIndex(points)
        assert len(index.grid) == 32
        grown = np.arange(17) / 32          # n = 17 > G/2
        index.follow(np.append(grown, np.inf), np.zeros(0), np.zeros(0))
        assert len(index.grid) == 64
        shrunk = grown[:7]                  # n = 7 < G/8
        index.follow(np.append(shrunk, np.inf), np.zeros(0), np.zeros(0))
        assert len(index.grid) == 16
        assert np.array_equal(index.grid, cover_grid(shrunk, 16))

    def test_audit_reports_a_corrupted_grid(self):
        points = np.arange(16) / 16
        index = CoverIndex(points)
        ok, report = index.audit(points)
        assert ok and "0 buckets differ" in report
        assert "monotone=True" in report
        index.grid[5] += 3
        ok, report = index.audit(points)
        assert not ok
        assert "1 buckets differ" in report and "monotone=False" in report

    def test_audit_fails_when_ext_leaves_the_points(self):
        points = np.arange(16) / 16
        index = CoverIndex(points)
        assert not index.audit(points + 2.0 ** -60)[0]
