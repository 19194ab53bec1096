"""``select_rows`` against the bodies it replaced.

``_parent_select_rows`` (:mod:`oracles.cost`) is an older
``select_rows`` *verbatim*: it read the ``ok`` mask up to four times
(two ``np.where`` into the costs, a count and a reversed ``argmax``),
and the core cost walk built an all-true ``np.ones((Δ, lanes))`` mask
every step to feed it.  ``_axis_select_rows`` is its successor
verbatim: it read the mask once, into ``masked = where(ok, costs,
inf)``, took ``ok=None`` to mean every candidate is valid, and reduced
along axis 0 (``argmin`` / ``argmax`` / ``cumsum``, one NumPy inner
loop a lane).  The live body reduces in row passes.  All three must
return the same int64 rows on hypothesis ``(K, B)`` finite costs under
random masks — K up to 32 (§6's cover tables have 21–25 rows),
all-invalid and all-valid lanes included — for every policy (the
oldest at its softmin's default temperature 1.0, the one the policy
now fixes); and ``ok=None`` must equal an all-true mask bit for bit
under the cost policies, while ``uniform`` refuses it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.cost import _axis_select_rows, _parent_select_rows

from repro.peer.policy import POLICIES, select_rows

BELOW_ONE = np.nextafter(1.0, 0.0)


@st.composite
def candidates(draw):
    """``(costs, ok, u)``: (K, B) finite costs, a mask, one uniform a lane.

    Costs come from a few levels, so ties (the greedy tie-break) are
    common; a third of the lanes are forced all-invalid or all-valid.
    """
    k = draw(st.integers(1, 32))
    b = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.random(draw(st.integers(1, 5))) * draw(
        st.sampled_from([1e-9, 1.0, 1e3]))
    costs = rng.choice(levels, size=(k, b))
    ok = rng.random((k, b)) < draw(st.sampled_from([0.2, 0.6, 0.95]))
    ok[:, rng.random(b) < 1 / 6] = False
    ok[:, rng.random(b) < 1 / 6] = True
    u = rng.random(b)
    return costs, ok, u


def _weighted_edge(u) -> tuple:
    """Three lanes of equal weights (totals 1, 2, 3) and one with no valid
    row, each at uniform ``u``: the inverse CDF's last step."""
    ok = np.array([[True, True, True, False],
                   [False, True, True, False],
                   [False, False, True, False]])
    return np.zeros(ok.shape), ok, np.full(4, u)


@settings(max_examples=200, deadline=None)
@given(block=candidates(), policy=st.sampled_from(POLICIES))
# u just below 1: for u < 1, u·total rounds below total whatever the
# total, so the inverse CDF stops on the last valid row itself; only a
# lane with no valid row (total 0) takes the last-valid fallback.
@example(block=_weighted_edge(BELOW_ONE), policy="weighted")
def test_equal_to_parent_under_masks(block, policy):
    costs, ok, u = block
    got = select_rows(costs, ok, u, policy)
    for parent in (_parent_select_rows, _axis_select_rows):
        want = parent(costs, ok, u, policy)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), parent.__name__


@settings(max_examples=100, deadline=None)
@given(block=candidates(), policy=st.sampled_from(["greedy", "weighted"]))
def test_no_mask_is_the_all_true_mask(block, policy):
    costs, _, u = block
    every = np.ones(costs.shape, dtype=bool)
    got = select_rows(costs, None, u, policy)
    assert np.array_equal(got, select_rows(costs, every, u, policy))
    assert np.array_equal(got, _parent_select_rows(costs, every, u, policy))
    assert np.array_equal(got, _axis_select_rows(costs, None, u, policy))


@pytest.mark.parametrize("policy", ["uniform", "weighted"])
@pytest.mark.parametrize("bad", [1.0, np.nan, -0.25, np.inf])
def test_a_uniform_outside_the_unit_interval_is_refused(policy, bad):
    """u = 1 would land u·total on total and send every lane to its last
    valid row; like ``select_index`` and the engines' ``choices=``, the
    batch pick refuses it, naming the first bad lane."""
    costs, ok, u = _weighted_edge(BELOW_ONE)
    u[2:] = bad
    with pytest.raises(ValueError, match=r"^u: lane 2 holds .*; uniforms "
                       r"must be finite and in \[0, 1\)$"):
        select_rows(costs, ok, u, policy)
    assert select_rows(costs, ok, u, "greedy").shape == (4,)  # reads no u


def test_uniform_needs_its_mask():
    with pytest.raises(ValueError, match="policy 'uniform' .* needs the mask"):
        select_rows(None, None, np.zeros(3), "uniform")


@pytest.mark.parametrize("policy", POLICIES)
def test_all_invalid_lane_gets_some_row(policy):
    """The caller masks such lanes out; the pick only has to be a row."""
    costs = np.array([[1.0, 2.0], [3.0, 0.5]])
    ok = np.array([[False, True], [False, True]])
    u = np.array([0.3, 0.9])
    got = select_rows(costs, ok, u, policy)
    for parent in (_parent_select_rows, _axis_select_rows):
        assert np.array_equal(got, parent(costs, ok, u, policy))
    # lane 1: the cheaper row, the ⌊0.9·2⌋-th, and the heavier weight
    assert 0 <= got[0] < 2 and got[1] == 1


@pytest.mark.parametrize("k", [1, 255, 256, 257, 70_000])
def test_uniform_counts_at_the_narrow_dtype_edges(k):
    """The uniform pick keeps its running count in the smallest dtype
    that holds K: ``uint8`` up to 255 rows, ``uint16``, ``uint32`` past
    65,535.  Full columns (count = K), empty ones and uniforms next to
    1.0 pick what the parent's ``int64`` count picks."""
    rng = np.random.default_rng(k)
    ok = rng.random((k, 12)) < 0.5
    ok[:, :3] = True
    ok[:, 3] = False
    u = rng.random(12)
    u[:2] = np.nextafter(1.0, 0.0)
    got = select_rows(None, ok, u, "uniform")
    assert np.array_equal(got, _parent_select_rows(np.zeros(ok.shape), ok, u,
                                                   "uniform"))
    assert np.array_equal(got, _axis_select_rows(None, ok, u, "uniform"))
    assert got[2] == 0 or ok[got[2], 2]
