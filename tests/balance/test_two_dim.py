"""Unit tests for 2D multiple choice and Definition 7 smoothness (§5.3)."""

import numpy as np
import pytest

from repro.balance import (
    TwoDimMultipleChoice,
    coarse_grid_side,
    fine_grid_side,
    is_smooth_2d,
)
from repro.balance.two_dim import cell_of


class TestGrids:
    def test_fine_grid_has_at_least_2n_cells(self):
        for n in (10, 100, 1000):
            assert fine_grid_side(n) ** 2 >= 2 * n

    def test_coarse_grid_has_at_most_half_n_cells(self):
        for n in (10, 100, 1000):
            assert coarse_grid_side(n) ** 2 <= n / 2

    def test_cell_of_corners(self):
        assert cell_of((0.0, 0.0), 4) == (0, 0)
        assert cell_of((0.999, 0.999), 4) == (3, 3)

    def test_cell_of_wraps(self):
        assert cell_of((1.25, -0.25), 4) == (1, 3)


class TestDefinition7:
    def test_perfect_grid_is_1_smooth(self):
        side = 16
        pts = [((i + 0.5) / side, (j + 0.5) / side) for i in range(side) for j in range(side)]
        assert is_smooth_2d(pts, 1.0)

    def test_clustered_points_not_smooth(self):
        pts = [(0.5 + i * 1e-4, 0.5 + j * 1e-4) for i in range(8) for j in range(8)]
        assert not is_smooth_2d(pts, 4.0)

    def test_uniform_points_need_large_rho(self):
        """i.i.d. uniform 2D ids are badly smooth (the 2D analogue of Lemma 4.1)."""
        rng = np.random.default_rng(0)
        pts = [tuple(p) for p in rng.random((512, 2))]
        assert not is_smooth_2d(pts, 2.0)

    def test_empty_set_not_smooth(self):
        assert not is_smooth_2d([], 2.0)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            is_smooth_2d([(0.1, 0.1)], 0.5)


class TestTwoDimMultipleChoice:
    def test_populate(self):
        algo = TwoDimMultipleChoice(256, t=3)
        rng = np.random.default_rng(1)
        algo.populate(rng=rng)
        assert len(algo.points) == 256

    def test_populate_refuses_a_missing_rng(self):
        """A real check, not an ``assert`` that ``python -O`` strips."""
        with pytest.raises(ValueError, match="rng"):
            TwoDimMultipleChoice(16).populate(4)

    def test_lemma_5_3_smoothness(self):
        """After n joins the configuration is 2-smooth w.h.p.

        We verify the two halves of the guarantee at the grids the
        algorithm itself uses: every fine cell ≤ 1 point, and coarse
        occupancy near-complete (the asymptotic statement allows a
        vanishing number of stragglers at finite n).
        """
        n = 512
        algo = TwoDimMultipleChoice(n, t=4)
        rng = np.random.default_rng(2)
        algo.populate(rng=rng)
        fine = fine_grid_side(n)
        cells = [cell_of(p, fine) for p in algo.points]
        assert len(set(cells)) == len(cells)  # pairwise distinct fine cells
        coarse = coarse_grid_side(n)
        occupied = {cell_of(p, coarse) for p in algo.points}
        assert len(occupied) >= 0.98 * coarse * coarse

    def test_failures_are_rare(self):
        algo = TwoDimMultipleChoice(512, t=4)
        rng = np.random.default_rng(3)
        algo.populate(rng=rng)
        assert algo.failed <= 2

    def test_beats_uniform_sampling(self):
        """At the algorithm's own ρ=2 grids, MC dominates i.i.d. sampling:
        no fine-cell collisions (uniform has many) and better coarse
        coverage — the empirical content of Lemma 5.3."""
        n = 400
        rng = np.random.default_rng(4)
        algo = TwoDimMultipleChoice(n, t=4)
        algo.populate(rng=rng)
        uniform = [tuple(p) for p in np.random.default_rng(4).random((n, 2))]
        fine, coarse = fine_grid_side(n), coarse_grid_side(n)

        def fine_collisions(pts):
            cells = [cell_of(p, fine) for p in pts]
            return len(cells) - len(set(cells))

        def coarse_coverage(pts):
            return len({cell_of(p, coarse) for p in pts}) / coarse**2

        assert fine_collisions(algo.points) == 0
        assert fine_collisions(uniform) > 0
        assert coarse_coverage(algo.points) > coarse_coverage(uniform)

    def test_t_validation(self):
        with pytest.raises(ValueError):
            TwoDimMultipleChoice(100, t=0)
        with pytest.raises(ValueError):
            TwoDimMultipleChoice(0)
