"""Malformed CSR blocks fail loudly in every ISP accountant.

``cross_isp_counts`` and ``path_cost_totals`` enter through one check:
both arrays must be 1-d integer arrays, offsets must start at 0, end at
the server count and give every row at least one entry (every path
holds its source), and no server index may be negative.  Each
violation raises ``ValueError`` naming the argument.
On the commit before the check a negative id wrapped silently to the
last server (``cross_isp_counts(lab, [0, -1], [0, 2])`` counted a
crossing that no path made) and offsets past the block raised
``IndexError: boolean index did not match``.  Only public entry points
are used, so every test here runs — and fails — on that commit.
"""

import numpy as np
import pytest

from repro.peer import CostMap, CostOracle, cross_isp_counts, path_cost_totals

_ORACLE = CostOracle(np.linspace(0.0, 0.9, 4),
                     CostMap.synthetic(n_isps=2, rng=np.random.default_rng(5)))
#: the last server is on another ISP than server 0, so a wrapped -1 counts
_LABELS = np.array([0, 0, 1, 1])

ACCOUNTANTS = {
    "cross_isp_counts": lambda s, o: cross_isp_counts(_LABELS, s, o),
    "path_cost_totals": lambda s, o: path_cost_totals(_ORACLE, s, o),
}
EACH = pytest.mark.parametrize("accountant", ACCOUNTANTS)


def _block(servers, offsets):
    return (np.array(servers, dtype=np.int32),
            np.array(offsets, dtype=np.int64))


class TestMalformedBlocks:
    @EACH
    def test_negative_server(self, accountant):
        with pytest.raises(ValueError, match="path_servers .*negative"):
            ACCOUNTANTS[accountant](*_block([0, -1], [0, 2]))

    @EACH
    def test_offsets_past_the_servers(self, accountant):
        with pytest.raises(ValueError, match=r"path_offsets\[-1\] is 3.* 2 entries"):
            ACCOUNTANTS[accountant](*_block([0, 1], [0, 1, 3]))

    @EACH
    def test_offsets_short_of_the_servers(self, accountant):
        with pytest.raises(ValueError, match=r"path_offsets\[-1\] is 2.* 3 entries"):
            ACCOUNTANTS[accountant](*_block([0, 1, 2], [0, 2]))

    @EACH
    def test_offsets_not_from_zero(self, accountant):
        with pytest.raises(ValueError, match=r"path_offsets\[0\] is 1"):
            ACCOUNTANTS[accountant](*_block([0, 1], [1, 2]))

    @EACH
    def test_empty_row(self, accountant):
        with pytest.raises(ValueError, match="path_offsets gives row 1 no entries"):
            ACCOUNTANTS[accountant](*_block([0, 1, 2], [0, 2, 2, 3]))

    @EACH
    def test_no_offsets(self, accountant):
        with pytest.raises(ValueError, match="path_offsets must be 1-d"):
            ACCOUNTANTS[accountant](*_block([], []))


class TestNonIntegerOrMultiDimensional:
    """Refused before any chunk runs, naming the argument.

    On the commit before the check a bool block was read as server ids
    1 / 0 (``cross_isp_counts(lab, [True, False], [0, 2])`` returned
    ``[1]``), and float or 2-d arrays failed with numpy's ``TypeError``,
    ``IndexError`` or broadcast messages.
    """

    @EACH
    def test_bool_servers(self, accountant):
        with pytest.raises(ValueError,
                           match="path_servers must be a 1-d integer array; "
                                 "got a 1-d bool array"):
            ACCOUNTANTS[accountant]([True, False], np.array([0, 2]))

    @EACH
    def test_float_servers(self, accountant):
        with pytest.raises(ValueError, match="path_servers .* float64"):
            ACCOUNTANTS[accountant](np.array([0.0, 1.0]), np.array([0, 2]))

    @EACH
    def test_float_offsets(self, accountant):
        with pytest.raises(ValueError, match="path_offsets .* float64"):
            ACCOUNTANTS[accountant](np.array([0, 1]), np.array([0.0, 2.0]))

    @EACH
    def test_bool_offsets(self, accountant):
        with pytest.raises(ValueError, match="path_offsets .* bool"):
            ACCOUNTANTS[accountant](np.array([0]), np.array([False, True]))

    @EACH
    def test_two_dimensional_servers(self, accountant):
        with pytest.raises(ValueError,
                           match="path_servers must be a 1-d .* 2-d int"):
            ACCOUNTANTS[accountant](np.array([[0, 1], [2, 3]]),
                                    np.array([0, 2, 4]))

    @EACH
    def test_two_dimensional_offsets(self, accountant):
        with pytest.raises(ValueError,
                           match="path_offsets must be a 1-d .* 2-d int"):
            ACCOUNTANTS[accountant](np.array([0, 1]), np.array([[0], [2]]))


class TestValidBlocks:
    @EACH
    def test_zero_lookups(self, accountant):
        assert ACCOUNTANTS[accountant](*_block([], [0])).size == 0
