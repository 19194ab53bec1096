"""Unit tests for path trees (paper §3.1, Definition 5, Observation 3.2)."""

import pytest

from repro.core.continuous import ContinuousGraph
from repro.core.pathtree import PathTree


@pytest.fixture
def tree():
    return PathTree(0.2)


class TestStructure:
    def test_root_position(self, tree):
        assert tree.position(()) == 0.2

    def test_children_are_l_and_r(self, tree):
        g = ContinuousGraph(2)
        (c0, c1) = tree.children(())
        assert tree.position(c0) == pytest.approx(g.left(0.2))
        assert tree.position(c1) == pytest.approx(g.right(0.2))

    def test_figure2_first_layers(self):
        """Figure 2: the first two layers of the tree rooted at y.

        Children of y are y/2 and y/2 + 1/2; grandchildren are
        y/4, y/4 + 1/4, y/4 + 1/2, y/4 + 3/4.
        """
        y = 0.2
        t = PathTree(y)
        layer1 = sorted(t.position(a) for a in t.layer(1))
        assert layer1 == pytest.approx([y / 2, y / 2 + 0.5])
        layer2 = sorted(t.position(a) for a in t.layer(2))
        assert layer2 == pytest.approx([y / 4, y / 4 + 0.25, y / 4 + 0.5, y / 4 + 0.75])

    def test_layer_sizes(self, tree):
        assert len(list(tree.layer(0))) == 1
        assert len(list(tree.layer(3))) == 8

    def test_layer_sizes_delta3(self):
        t = PathTree(0.5, ContinuousGraph(3))
        assert len(list(t.layer(2))) == 9

    def test_rejects_negative_layer(self, tree):
        with pytest.raises(ValueError):
            list(tree.layer(-1))


class TestObservation32:
    """Distance between two points of layer j is at least 2^-j."""

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_layer_spacing(self, tree, j):
        positions = sorted(tree.position(a) for a in tree.layer(j))
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert min(gaps) >= 2.0 ** -j - 1e-12

    def test_layer_positions_distinct(self, tree):
        positions = [tree.position(a) for a in tree.layer(6)]
        assert len(set(positions)) == len(positions)


class TestAscent:
    def test_ascent_follows_backward_edges(self, tree):
        """Consecutive ascent positions are connected by b (phase-II moves)."""
        g = tree.graph
        tau = (0, 1, 1, 0, 1)
        path = [tau[:j] for j in range(len(tau), -1, -1)]  # up to the root
        for a, b in zip(path, path[1:]):
            assert g.backward(tree.position(a)) == pytest.approx(
                float(tree.position(b)), abs=1e-12
            )


class TestRandomEntry:
    def test_uniform_entry_distribution(self):
        """The 'key observation' of §3.1: a random τ enters each depth-t
        node with equal probability — exact by construction here."""
        import numpy as np

        tree = PathTree(0.3)
        rng = np.random.default_rng(0)
        counts = {}
        t = 3
        for _ in range(4000):
            tau = tuple(int(d) for d in rng.integers(0, 2, size=t))
            counts[tau] = counts.get(tau, 0) + 1
        assert len(counts) == 8
        freq = np.array(list(counts.values())) / 4000
        assert abs(freq - 1 / 8).max() < 0.03
