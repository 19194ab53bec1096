"""Parity of the class-table ``cover_table`` (§6.2) with what it replaced.

``OverlappingDHNetwork.cover_table`` answers from the per-cell class
table ``cover_class`` and runs the float segment test on the boundary
entries alone.  Two oracles, both on every query:

* ``parent_cover_table`` (:mod:`oracles.overlap`) — the whole-window
  ``%`` / ``np.mod`` formula the method used before, kept verbatim;
* the scalar :meth:`~repro.faults.overlap.OverlappingDHNetwork.covers`,
  column by column.

The queries sit where a class could be wrong: on every id point, one
ulp either side of it, a sub-ulp offset past it, the ends of the ring
and the seam cell.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.overlap import parent_cover_table

from repro.faults.overlap import (
    COVER_BOUNDARY,
    COVER_DEFINITE,
    COVER_NEVER,
    OverlappingDHNetwork,
)

SIZES = (8, 9, 16, 64, 1024)
#: 50 caps every α at n − 2 up to n = 64, so the scan window is the whole ring
FACTORS = (0.25, 1.0, 4.0, 50.0)
CHUNK = 512                     # queries per call: bounds the (W, B) matrices
SCALAR_SAMPLE = 400             # scalar-oracle columns per pinned case


def adversarial_queries(net, fill):
    """Every id, its float neighbours, sub-ulp offsets, the ring's ends."""
    ids = net.points_array
    qs = np.concatenate([
        ids, np.nextafter(ids, 2.0), np.nextafter(ids, -1.0),
        ids + 2.0 ** -54, ids + 2.0 ** -60, ids + 1e-17,
        [0.0, np.nextafter(1.0, 0.0)], fill,
    ])
    return qs[(qs >= 0.0) & (qs < 1.0)]


def assert_parity(net, qs, scalar_columns):
    for lo in range(0, qs.size, CHUNK):
        ys = qs[lo:lo + CHUNK]
        cand, mask = net.cover_table(ys)
        ref_cand, ref_mask = parent_cover_table(net, ys)
        assert cand.shape == mask.shape == (net.max_back, ys.size)
        assert mask.dtype == np.bool_
        assert np.array_equal(cand, ref_cand)
        assert np.array_equal(mask, ref_mask)
    ys = qs[scalar_columns]
    cand, mask = net.cover_table(ys)
    for b, y in enumerate(ys.tolist()):
        got = net.points_array[cand[mask[:, b], b]].tolist()
        assert got == net.covers(y), f"column {b}, y={y!r}"


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("n", SIZES)
def test_cover_table_matches_parent_formula_and_scalar_covers(n, factor):
    rng = np.random.default_rng(1000 * n + int(4 * factor))
    net = OverlappingDHNetwork(n, rng, coverage_factor=factor)
    if factor == 50.0 and n <= 64:
        assert net.max_back == n
    qs = adversarial_queries(net, rng.random(2 * n))
    # the scalar scan is O(max_back) Python steps per query
    budget = max(8, min(qs.size, SCALAR_SAMPLE * 24 // net.max_back))
    columns = np.sort(rng.choice(qs.size, size=budget, replace=False))
    assert_parity(net, qs, columns)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("n", SIZES)
def test_classes_partition_the_window_and_hold_at_both_cell_ends(n, factor):
    net = OverlappingDHNetwork(n, np.random.default_rng(7 * n + 1),
                               coverage_factor=factor)
    cls, pts = net.cover_class, net.points_array
    assert cls.shape == (net.max_back, n) and cls.dtype == np.uint8
    assert np.isin(cls, (COVER_NEVER, COVER_DEFINITE, COVER_BOUNDARY)).all()
    definite, never, boundary = (cls == COVER_DEFINITE, cls == COVER_NEVER,
                                 cls == COVER_BOUNDARY)

    # first and last float of every cell (the last cell ends before x_0,
    # through the seam)
    first = pts
    last = np.nextafter(np.roll(pts, -1), -1.0)
    last[last < 0.0] = np.nextafter(1.0, 0.0)
    k = np.arange(net.max_back)[:, None]
    server = (np.arange(n)[None, :] - k) % n

    def covered(y):
        return np.mod(y[None, :] - pts[server], 1.0) <= net.seg_len_array[server]

    at_first, at_last = covered(first), covered(last)
    assert at_first[definite].all() and at_last[definite].all()
    assert not at_first[never].any() and not at_last[never].any()
    # a server's own cell and the k < α cells after it are decided
    assert (definite == (k < net.alpha_array[server])).all()
    # ... and the cell its segment ends on is the one left to the float test
    ends_here = k == net.alpha_array[server]
    assert boundary[ends_here].all()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=8, max_value=48),
    seed=st.integers(min_value=0, max_value=2 ** 31),
    factor=st.sampled_from(FACTORS),
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                           allow_nan=False), max_size=40),
    nudges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=47),
                  st.sampled_from([0.0, 2.0 ** -54, 2.0 ** -60, 1e-17,
                                   -(2.0 ** -54), 2.0 ** -53, -(2.0 ** -53)])),
        max_size=40),
)
def test_cover_table_parity_property(n, seed, factor, raw, nudges):
    net = OverlappingDHNetwork(n, np.random.default_rng(seed),
                               coverage_factor=factor)
    near = [net.points[i % n] + d for i, d in nudges]
    qs = np.array(raw + near, dtype=np.float64)
    qs = qs[(qs >= 0.0) & (qs < 1.0)]
    assert_parity(net, qs, np.arange(qs.size))


def test_empty_batch_keeps_the_window_shape():
    net = OverlappingDHNetwork(16, np.random.default_rng(3))
    cand, mask = net.cover_table(np.empty(0))
    assert cand.shape == mask.shape == (net.max_back, 0)
    assert net.coverage_counts(np.empty(0)).size == 0
