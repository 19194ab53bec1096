"""``select_rows`` reading its mask once against the body it replaced.

:func:`_parent_select_rows` is the previous ``select_rows`` *verbatim*:
it read the ``ok`` mask up to four times (two ``np.where`` into the
costs, a count and a reversed ``argmax``), and the core cost walk built
an all-true ``np.ones((Δ, lanes))`` mask every step to feed it.  The
new body reads the mask once, into ``masked = where(ok, costs, inf)``,
and takes ``ok=None`` to mean every candidate is valid.  Both must
return the same int64 rows on hypothesis ``(K, B)`` finite costs under
random masks — all-invalid and all-valid lanes included — for every
policy and several temperatures, ``inf`` among them; and ``ok=None``
must equal an all-true mask bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.peer.policy import POLICIES, select_rows

TEMPERATURES = [1e-3, 0.5, 1.0, 7.0, np.inf]


def _parent_select_rows(costs, ok, u, policy, temperature=1.0):
    costs = np.asarray(costs, dtype=np.float64)
    ok = np.asarray(ok, dtype=bool)
    if policy == "greedy":
        return np.argmin(np.where(ok, costs, np.inf), axis=0).astype(np.int64)
    u = np.asarray(u, dtype=np.float64)
    cnt = ok.sum(axis=0)
    if policy == "uniform":
        pick = np.minimum((u * cnt).astype(np.int64), np.maximum(cnt - 1, 0))
        hit = ok & (np.cumsum(ok, axis=0) == pick + 1)
        return np.argmax(hit, axis=0).astype(np.int64)
    lo = np.where(ok, costs, np.inf).min(axis=0)
    lo = np.where(np.isfinite(lo), lo, 0.0)  # all-invalid lanes
    expo = np.where(ok, -(costs - lo[None, :]) / temperature, -np.inf)
    w = np.exp(expo)  # exactly 0.0 on masked rows
    cum = np.cumsum(w, axis=0)
    x = u * cum[-1]
    found = cum > x[None, :]
    sel = np.argmax(found, axis=0)
    last_valid = (ok.shape[0] - 1) - np.argmax(ok[::-1], axis=0)
    sel = np.where(found.any(axis=0), sel, np.maximum(last_valid, 0))
    return sel.astype(np.int64)


@st.composite
def candidates(draw):
    """``(costs, ok, u)``: (K, B) finite costs, a mask, one uniform a lane.

    Costs come from a few levels, so ties (the greedy tie-break) are
    common; a third of the lanes are forced all-invalid or all-valid.
    """
    k = draw(st.integers(1, 9))
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


@settings(max_examples=200, deadline=None)
@given(block=candidates(), policy=st.sampled_from(POLICIES),
       temperature=st.sampled_from(TEMPERATURES))
def test_equal_to_parent_under_masks(block, policy, temperature):
    costs, ok, u = block
    got = select_rows(costs, ok, u, policy, temperature)
    want = _parent_select_rows(costs, ok, u, policy, temperature)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(block=candidates(), policy=st.sampled_from(POLICIES),
       temperature=st.sampled_from(TEMPERATURES))
def test_no_mask_is_the_all_true_mask(block, policy, temperature):
    costs, _, u = block
    every = np.ones(costs.shape, dtype=bool)
    got = select_rows(costs, None, u, policy, temperature)
    assert np.array_equal(got, select_rows(costs, every, u, policy,
                                           temperature))
    assert np.array_equal(got, _parent_select_rows(costs, every, u, policy,
                                                   temperature))


@pytest.mark.parametrize("policy", POLICIES)
def test_all_invalid_lane_gets_some_row(policy):
    """The caller masks such lanes out; the pick only has to be a row."""
    costs = np.array([[1.0, 2.0], [3.0, 0.5]])
    ok = np.array([[False, True], [False, True]])
    got = select_rows(costs, ok, np.array([0.3, 0.9]), policy)
    assert np.array_equal(got, _parent_select_rows(costs, ok,
                                                   np.array([0.3, 0.9]),
                                                   policy))
    # lane 1: the cheaper row, the ⌊0.9·2⌋-th, and the heavier weight
    assert 0 <= got[0] < 2 and got[1] == 1
