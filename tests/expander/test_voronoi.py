"""Unit tests for the torus Voronoi substrate (paper §5.1)."""

import numpy as np
import pytest
from scipy.spatial import Voronoi

from repro.expander import TorusVoronoi


def grid_points(side):
    return [((i + 0.5) / side, (j + 0.5) / side) for i in range(side) for j in range(side)]


def cell_areas(tv):
    """Area of each generator's cell: the central copy of the 3×3 tiling's
    planar Voronoi diagram, one shoelace polygon per region."""
    vor = Voronoi(tv._tiled)
    areas = []
    for i in range(tv.n):
        region = vor.regions[vor.point_region[tv._center_offset + i]]
        assert -1 not in region and len(region) >= 3
        x, y = vor.vertices[region].T
        areas.append(0.5 * abs(np.dot(x, np.roll(y, 1)) - np.dot(y, np.roll(x, 1))))
    return np.array(areas)


def nearest_on_torus(generators, p):
    """Brute-force owner: the generator nearest ``p`` in the torus metric."""
    d = np.abs(np.asarray(generators) - np.mod(p, 1.0))
    d = np.minimum(d, 1.0 - d)
    return int(np.argmin((d ** 2).sum(axis=1)))


class TestConstruction:
    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            TorusVoronoi([(0.5, 0.5)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TorusVoronoi([(0.5, 0.5), (0.5, 0.5), (0.1, 0.1)])

    def test_normalizes_coordinates(self):
        tv = TorusVoronoi([(1.25, -0.75), (0.5, 0.5)])
        assert tv.points[0] == pytest.approx([0.25, 0.25])


class TestOwner:
    def test_generator_owns_itself(self):
        tv = TorusVoronoi(grid_points(4))
        assert tv.owner_many(tv.points).tolist() == list(range(tv.n))

    def test_toroidal_metric(self):
        """A point near the seam belongs to the generator across it."""
        tv = TorusVoronoi([(0.02, 0.5), (0.5, 0.5)])
        # wraps to the generator at 0.02
        assert tv.owner_many(np.array([[0.98, 0.5]])).tolist() == [0]

    def test_owner_many_matches_brute_force(self):
        rng = np.random.default_rng(0)
        tv = TorusVoronoi([tuple(p) for p in rng.random((20, 2))])
        probes = rng.random((50, 2)) * 3 - 1  # outside [0, 1)² too
        vec = tv.owner_many(probes)
        assert vec.tolist() == [nearest_on_torus(tv.points, p) for p in probes]


class TestAreas:
    def test_grid_cells_equal_area(self):
        side = 4
        tv = TorusVoronoi(grid_points(side))
        areas = cell_areas(tv)
        assert areas == pytest.approx(np.full(side * side, 1 / side**2), rel=1e-6)

    def test_areas_sum_to_one(self):
        rng = np.random.default_rng(1)
        tv = TorusVoronoi([tuple(p) for p in rng.random((40, 2))])
        assert cell_areas(tv).sum() == pytest.approx(1.0, rel=1e-6)

    def test_smooth_set_areas_theta_one_over_n(self):
        """§5.1: smooth sets give cells of area Θ(1/n) (used by Cor 5.2)."""
        from repro.balance import TwoDimMultipleChoice

        rng = np.random.default_rng(2)
        algo = TwoDimMultipleChoice(128, t=4)
        algo.populate(rng=rng)
        tv = TorusVoronoi(algo.points)
        areas = cell_areas(tv)
        n = 128
        assert areas.max() <= 8.0 / n
        assert areas.min() >= 1.0 / (12 * n)


class TestDelaunay:
    def test_grid_neighbors_are_grid_adjacent(self):
        side = 4
        tv = TorusVoronoi(grid_points(side))
        nbs = tv.delaunay_neighbors(0)
        # cell (0,0) must be adjacent to (0,1),(1,0),(0,3),(3,0) at least
        expected = {1, side, 3, 3 * side}
        assert expected <= set(nbs)

    def test_average_degree_below_euler_bound(self):
        rng = np.random.default_rng(3)
        tv = TorusVoronoi([tuple(p) for p in rng.random((60, 2))])
        # Euler: average Delaunay degree < 6 (on the torus, exactly 6 - o(1))
        degrees = [len(tv.delaunay_neighbors(i)) for i in range(tv.n)]
        assert np.mean(degrees) <= 6.5

    def test_neighbors_symmetric(self):
        rng = np.random.default_rng(4)
        tv = TorusVoronoi([tuple(p) for p in rng.random((30, 2))])
        for i in range(tv.n):
            for j in tv.delaunay_neighbors(i):
                assert i in tv.delaunay_neighbors(j)


class TestDynamics:
    def test_insert_affects_local_cells_only(self):
        """§5.1 locality: a join touches only cells adjacent to it."""
        side = 6
        tv = TorusVoronoi(grid_points(side))
        areas_before = cell_areas(tv)
        affected = tv.insert((0.51 / side, 0.51 / side))
        areas_after = cell_areas(tv)[: side * side]
        changed = {i for i in range(side * side)
                   if abs(areas_after[i] - areas_before[i]) > 1e-12}
        assert changed <= affected | {tv.n - 1}
