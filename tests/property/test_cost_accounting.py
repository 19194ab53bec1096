"""The single-gather ISP accountants against the ones they replaced.

The ``_parent_*`` functions of :mod:`oracles.cost` are the previous
``cross_isp_counts``, ``path_cost_totals`` and ``pair_costs`` and the
``csr_transitions`` they read, *verbatim*: ``np.repeat`` row labels over
every entry, a shifted compare and three boolean compactions to find the
within-row transitions, then six gathers over them and a 2-D fancy
index into the ISP matrix.  The accountants now walk the block in
row-aligned chunks of about ``itracker._BLOCK`` entries, gather each
entry's label and coordinates once per chunk, zero the one transition
per row boundary, read integer counts off one ``np.add.reduceat`` and
keep ``np.bincount`` for the float totals; ``pair_costs`` reads the
matrix with one flat gather.  Both sides must agree in dtype, shape and
bits — float totals compared as ``uint64`` — on hypothesis CSR blocks,
on blocks that put rows on every chunk edge, on real dh and cost-aware
batches at Δ ∈ {2, 3, 4}, and on the scalar calls the per-hop walks
make; a ``tracemalloc`` pin keeps each accountant's peak at ≤ 2 B per
entry.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.cost import (_parent_cross_isp_counts, _parent_edge_costs,
                          _parent_pair_costs, _parent_path_cost_totals)
from oracles.inputs import populated

from repro.core import BatchRouter
from repro.peer import CostMap, CostOracle, itracker
from repro.peer.costmap import pair_costs
from repro.peer.itracker import cross_isp_counts, path_cost_totals


def _check_block(oracle, labels, servers, offsets):
    assert_same(cross_isp_counts(labels, servers, offsets),
                _parent_cross_isp_counts(labels, servers, offsets))
    want = _parent_path_cost_totals(oracle, servers, offsets)
    if servers.size - (offsets.size - 1) == 0:
        # no transitions at all: the parent's bincount saw no entries and
        # returned integer zeros; the totals are float64 on every block now
        assert want.dtype == np.int64 and not want.any()
        want = want.astype(np.float64)
    assert_same(path_cost_totals(oracle, servers, offsets), want)


@functools.lru_cache(maxsize=None)
def _oracle(n_servers: int, k: int, seed: int) -> CostOracle:
    rng = np.random.default_rng(seed)
    return CostOracle(np.sort(rng.random(n_servers)),
                      CostMap.synthetic(n_isps=k, rng=rng))


# ------------------------------------------------------------ CSR blocks
@st.composite
def csr_blocks(draw):
    """``(oracle, labels, path_servers, path_offsets)`` over every shape."""
    k = draw(st.sampled_from([1, 2, 8]))
    n_servers = draw(st.integers(1, 24))
    shape = draw(st.sampled_from(["ragged", "single", "long", "none"]))
    if shape == "ragged":
        lens = draw(st.lists(st.integers(1, 6), min_size=1, max_size=16))
    elif shape == "single":
        lens = [1] * draw(st.integers(1, 16))
    elif shape == "long":
        lens = [draw(st.integers(1, 120))]
    else:
        lens = []
    # consecutive duplicates are legal input (the accountants must not
    # care), and both index widths the engines emit are covered
    servers = np.array(draw(st.lists(st.integers(0, n_servers - 1),
                                     min_size=sum(lens), max_size=sum(lens))),
                       dtype=draw(st.sampled_from([np.int32, np.int64])))
    offsets = np.concatenate([[0], np.cumsum(lens, dtype=np.int64)])
    labels = np.array(draw(st.lists(st.integers(0, k - 1),
                                    min_size=n_servers, max_size=n_servers)),
                      dtype=np.int64)
    oracle = _oracle(n_servers, k, draw(st.integers(0, 3)))
    return oracle, labels, servers, offsets


class TestCsrBlocks:
    @settings(max_examples=150, deadline=None)
    @given(block=csr_blocks())
    def test_equal_to_parent(self, block):
        _check_block(*block)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_label_change_across_a_row_boundary_does_not_count(self, dtype):
        labels = np.array([0, 1, 1], dtype=np.int64)
        servers = np.array([0, 1, 2, 1], dtype=dtype)
        offsets = np.array([0, 1, 3, 4], dtype=np.int64)
        # row 0 ends on label 0, row 1 opens on label 1, row 2 is one entry
        assert cross_isp_counts(labels, servers, offsets).tolist() == [0, 0, 0]
        _check_block(_oracle(3, 2, 0), labels, servers, offsets)

    def test_zero_lookups(self):
        servers = np.zeros(0, dtype=np.int32)
        offsets = np.zeros(1, dtype=np.int64)
        _check_block(_oracle(4, 2, 0), np.zeros(4, np.int64), servers, offsets)
        assert cross_isp_counts(np.zeros(4, np.int64), servers, offsets).size == 0


# ------------------------------------------------------------ chunk edges
_B = itracker._BLOCK

#: row lengths that put a row, a chunk or a block end on every chunk edge
CHUNK_EDGES = {
    "row_straddles_edge": [_B - 3, 10, 5, _B, 2],
    "row_longer_than_two_blocks": [7, 2 * _B + 5, 3, 1],
    "first_row_longer_than_two_blocks": [2 * _B + 1, 1],
    "nnz_exact_multiple": [_B // 4] * 8,
    "rows_fill_blocks_exactly": [_B, _B, _B],
    "single_entry_rows_at_chunk_ends": [_B - 1, 1, 1, _B - 2, 1, 1, 1],
    "single_entry_rows_only": [1] * (2 * _B + 3),
}


class TestChunkEdges:
    """Blocks sized from ``itracker._BLOCK``: the hypothesis blocks above
    hold ≤ 120 entries and never reach a second chunk."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("case", CHUNK_EDGES)
    def test_equal_to_parent(self, case, dtype):
        lens = CHUNK_EDGES[case]
        rng = np.random.default_rng(len(lens))
        n_servers, k = 24, 3
        servers = rng.integers(0, n_servers, size=sum(lens)).astype(dtype)
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        labels = rng.integers(0, k, size=n_servers)
        _check_block(_oracle(n_servers, k, 1), labels, servers, offsets)


@pytest.mark.parametrize("name", ["cross_isp_counts", "path_cost_totals"])
def test_traced_peak_at_most_two_bytes_per_entry(name):
    """~1M entries in rows of 1..48: each accountant's traced peak,
    output included, is ≤ 2 B per entry (the parent's read 25 / 56)."""
    rng = np.random.default_rng(11)
    lens = rng.integers(1, 49, size=40_000)
    servers = rng.integers(0, 1024, size=int(lens.sum())).astype(np.int32)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    oracle = _oracle(1024, 8, 2)
    call = {"cross_isp_counts": lambda: cross_isp_counts(oracle.isp, servers,
                                                         offsets),
            "path_cost_totals": lambda: path_cost_totals(oracle, servers,
                                                         offsets)}[name]
    call()  # warm: lazy numpy state is not the accountant's
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * servers.size, peak / servers.size


# ------------------------------------------------------------ real batches
@functools.lru_cache(maxsize=None)
def _router(delta: int):
    net = populated(256, 100 + delta, delta)
    cost_map = CostMap.synthetic(n_isps=8, rng=np.random.default_rng(delta))
    router = BatchRouter(net, cost_map=cost_map)
    return router, CostOracle(router.points, cost_map)


@pytest.mark.parametrize("delta", [2, 3, 4])
@pytest.mark.parametrize("kind", ["dh", "uniform", "greedy", "weighted"])
def test_real_batches_equal_to_parent(delta, kind):
    router, oracle = _router(delta)
    rng = np.random.default_rng(delta * 10 + len(kind))
    size = 400
    src = router.points[rng.integers(router.n, size=size)]
    tgt = rng.random(size)
    if kind == "dh":
        res = router.batch_dh_lookup(src, tgt, rng=rng, keep_paths="csr")
    else:
        res = router.batch_dh_lookup(src, tgt,
                                     choices=rng.random((size, 64)),
                                     policy=kind, keep_paths="csr")
    assert res.path_servers.dtype == np.int32
    _check_block(oracle, router.cost_isp, res.path_servers, res.path_offsets)
    # the oracle's labels are the router's cost column
    assert_same(oracle.isp, router.cost_isp)


# ------------------------------------------------------------ scalar calls
class TestPairCosts:
    def test_scalars(self):
        oracle = _oracle(16, 8, 1)
        mat = oracle.cost_map.isp_cost
        for i, j in [(0, 0), (3, 11), (15, 2)]:
            args = (oracle.isp[i], oracle.isp[j], oracle.x[i], oracle.y[i],
                    oracle.x[j], oracle.y[j], mat)
            got, want = pair_costs(*args), _parent_pair_costs(*args)
            assert type(got) is type(want)
            assert_same(got, want)
            plain = tuple(a.item() for a in args[:-1]) + (mat,)
            assert_same(pair_costs(*plain), _parent_pair_costs(*plain))

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_broadcast_candidates(self, k):
        """The engine's (B,) × (K, B) candidate matrix."""
        oracle = _oracle(64, k, 2)
        rng = np.random.default_rng(k)
        i = rng.integers(64, size=50)
        j = rng.integers(64, size=(3, 50))
        assert_same(oracle.edge_costs(i, j), _parent_edge_costs(oracle, i, j))

    def test_one_source_many_covers(self):
        """The scalar walk's call: one source index against its covers'."""
        oracle = _oracle(32, 8, 3)
        covers = np.arange(32)[::3]
        for a in (0, 7, 31):
            assert_same(oracle.edge_costs(np.int64(a), covers),
                        _parent_edge_costs(oracle, a, covers))
