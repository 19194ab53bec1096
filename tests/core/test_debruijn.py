"""Unit tests for De Bruijn graphs and the §2.1 isomorphism claim."""

from collections import Counter

import pytest

from repro.core.debruijn import (
    bit_reversal,
    debruijn_nodes,
    debruijn_successors,
    distance_halving_is_debruijn,
    string_to_value,
    value_to_string,
)
from repro.experiments.structure import DEBRUIJN_CASES


def edges(r, delta=2):
    """The directed edge list of the ``r``-dimensional De Bruijn graph."""
    return [(u, v) for u in debruijn_nodes(r, delta)
            for v in debruijn_successors(u, delta)]


def diameter(r, delta):
    """Largest breadth-first distance between two nodes."""
    worst = 0
    for source in debruijn_nodes(r, delta):
        seen, frontier, depth = {source}, [source], 0
        while frontier:
            frontier = [v for u in frontier for v in debruijn_successors(u, delta)
                        if v not in seen]
            seen.update(frontier)
            depth += bool(frontier)
        worst = max(worst, depth)
    return worst


class TestStructure:
    def test_node_count(self):
        assert len(list(debruijn_nodes(3))) == 8
        assert len(list(debruijn_nodes(2, delta=3))) == 9

    def test_edge_count_definition(self):
        # Definition 2: 2^r nodes, 2^{r+1} directed edges
        assert len(set(edges(4))) == 32

    def test_edge_count_delta(self):
        # Definition 4: Δ^r nodes and Δ^{r+1} edges
        assert len(set(edges(2, delta=3))) == 27

    def test_successors_shift_left(self):
        assert debruijn_successors((1, 0, 1)) == [(0, 1, 0), (0, 1, 1)]

    def test_out_degree_is_delta(self):
        out = Counter(u for u, _ in set(edges(3, delta=4)))
        assert set(out.values()) == {4}

    def test_in_degree_is_delta(self):
        into = Counter(v for _, v in set(edges(3, delta=4)))
        assert set(into.values()) == {4} and len(into) == 64

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            list(debruijn_nodes(0))


class TestDiameter:
    @pytest.mark.parametrize("r,delta", [(3, 2), (4, 2), (2, 3), (3, 3)])
    def test_diameter_is_r(self, r, delta):
        """The De Bruijn graph meets the Moore bound: diameter log_Δ n = r."""
        assert diameter(r, delta) == r


class TestValueConversions:
    def test_roundtrip(self):
        for v in range(16):
            assert string_to_value(value_to_string(v, 4)) == v

    def test_roundtrip_delta3(self):
        for v in range(27):
            assert string_to_value(value_to_string(v, 3, 3), 3) == v

    def test_bit_reversal_involution(self):
        s = (1, 0, 1, 1)
        assert bit_reversal(bit_reversal(s)) == s


class TestIsomorphism:
    """§2.1: G_x at x_i = i/Δ^r (no ring) ≅ the r-dimensional De Bruijn graph."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_binary(self, r):
        assert distance_halving_is_debruijn(r, 2)

    @pytest.mark.parametrize("r,delta", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (2, 5)])
    def test_general_alphabet(self, r, delta):
        assert distance_halving_is_debruijn(r, delta)

    @pytest.mark.parametrize("delta,r", DEBRUIJN_CASES)
    def test_each_case_e2_checks(self, delta, r):
        """E2 folds these into one verdict; here a failure names its case."""
        assert distance_halving_is_debruijn(r, delta)
