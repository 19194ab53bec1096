"""Shared test helper: read the §3 cache engines' per-node state.

The parity suites compare :class:`~repro.core.batch_cache.BatchCacheEngine`
with the scalar :class:`~repro.core.caching.CacheSystem` counter by
counter.  No command reads those counters one tree at a time, so the
readers live here, over the engines' own fields.  Importable from every
test directory because ``tests/conftest.py`` puts ``tests/`` on
``sys.path``.
"""

import numpy as np

from repro.core.batch_cache import decode_node_key
from repro.core.caching import salted_key


def _by_node(eng, keys, counts, tree: int) -> dict:
    """``{digits: count}`` of one tree's non-zero counters."""
    base = tree * eng._K
    lo, hi = np.searchsorted(keys, [base, base + eng._K])
    return {decode_node_key(int(keys[i] - base), eng.delta): int(counts[i])
            for i in range(lo, hi) if counts[i]}


def served_counts(eng, tree: int) -> dict:
    """This epoch's per-node served counters of one batch-engine tree."""
    return _by_node(eng, eng._keys, eng._counts, tree)


def last_epoch_served(eng, tree: int) -> dict:
    """The counters the last ``advance_epoch`` snapshot preserved."""
    return _by_node(eng, eng._prev_keys, eng._prev_counts, tree)


def engine_item_stats(eng, item_idx: int) -> tuple:
    """``(replications, copies beyond the roots)`` of one item, merged
    over its salt trees."""
    trees = [eng.tree_index(item_idx, j) for j in range(eng.salts)]
    return (sum(eng.tree_replications(t) for t in trees),
            sum(eng.tree_size(t) - 1 for t in trees))


def scalar_item_stats(scal, item) -> tuple:
    """:func:`engine_item_stats` of the scalar system's salt trees."""
    keys = ([item] if scal.salts == 1
            else [salted_key(item, j) for j in range(scal.salts)])
    trees = [scal.trees[k] for k in keys if k in scal.trees]
    return (sum(t.replications for t in trees),
            sum(t.size() - 1 for t in trees))
