"""Request workload generators.

The experiments' kit: :func:`balanced_network` builds the network every
§2–§3 experiment measures, and :func:`random_pairs` draws Definition 3's
lookup stream over it.

Each generator is a deterministic function of its RNG, covering the
demand patterns the paper analyses:

* uniform random points (Theorems 2.7 / 2.9 congestion);
* permutations, incl. the bit-reversal worst case (Theorem 2.10);
* hashed distinct items (Theorem 2.11);
* single/multiple hot spots with Zipf skew (§3).

A lookup workload has one form: the split ``(sources, targets)`` pair of
equal-length float64 arrays, Definition 3's (source server, target
point) pairs — a permutation is the same pairs in a fixed order.  The
experiments route it with the router's own batch lookups
(:meth:`~repro.core.batch.BatchRouter.batch_fast_lookup`,
:meth:`~repro.core.batch.BatchRouter.batch_dh_lookup`) and book the
result into a :class:`~repro.core.routing_stats.BatchCongestion`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .. import checks
from ..balance import MultipleChoice
from ..core.network import DistanceHalvingNetwork

__all__ = [
    "balanced_network",
    "random_pairs",
    "survivor_pairs",
    "random_permutation",
    "bit_reversal_permutation",
    "shift_permutation",
    "zipf_demands",
    "single_hotspot_demands",
    "demand_stream",
    "DH_TAU_DIGITS",
]

#: Digits per lookup for explicit-tau Distance Halving batches — far
#: beyond the Theorem 2.8 walk length at any size the experiments route
#: (the engine raises "tau exhausted" if a walk ever outruns it).
DH_TAU_DIGITS = 64


def balanced_network(n: int, rng: np.random.Generator,
                     delta: int = 2) -> DistanceHalvingNetwork:
    """An ``n``-server network whose ids come from ``MultipleChoice(t=4)``.

    The smooth (ρ = O(1), Lemma 4.3) decomposition the §2–§3 bounds are
    measured on; ``rng`` drives the id selection and stays the
    network's own generator.
    """
    net = DistanceHalvingNetwork(delta=delta, rng=rng)
    net.populate(n, selector=MultipleChoice(t=4))
    return net


def random_pairs(
    points: Sequence[float], rng: np.random.Generator, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Random (source server, target point) pairs — Definition 3's model.

    Sources are drawn uniformly from ``points`` (one ``integers`` call),
    then targets uniformly from the ring (one ``random`` call), in the
    split ``(sources, targets)`` array form.
    """
    pts = np.asarray(points, dtype=np.float64)
    src = pts[rng.integers(0, pts.size, size=checks.count(count, "count"))]
    return src, rng.random(count)


def survivor_pairs(
    points: Sequence[float],
    alive_mask: np.ndarray,
    rng: np.random.Generator,
    count: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Random (surviving source server, target point) pairs.

    The Theorem 6.4 sampling model: sources are drawn uniformly from the
    servers a fail-stop plan left alive (dead servers cannot originate
    lookups), targets uniformly from the ring, in the split
    ``(sources, targets)`` array form.
    """
    pts = np.asarray(points, dtype=np.float64)
    alive_idx = np.flatnonzero(np.asarray(alive_mask, dtype=bool))
    if alive_idx.size == 0:
        raise ValueError("survivor_pairs needs at least one alive server")
    src = pts[alive_idx[rng.integers(0, alive_idx.size,
                                     size=checks.count(count, "count"))]]
    return src, rng.random(count)


def random_permutation(
    points: Sequence[float], rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """η a uniform permutation: server i looks up a point in s(x_η(i))."""
    pts = np.asarray(points, dtype=np.float64)
    return pts, pts[rng.permutation(pts.size)]


def bit_reversal_permutation(
    points: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """The classic adversarial permutation for hypercubic networks.

    Server ``i`` targets the point whose binary expansion is the reversal
    of its own id point's first ``log2 n`` bits — the permutation that
    breaks deterministic oblivious routing (and motivates Valiant-style
    randomisation, §2.2.3).
    """
    pts = np.asarray(points, dtype=np.float64)
    bits = max(1, int(math.ceil(math.log2(max(2, pts.size)))))
    v = (pts * float(1 << bits)).astype(np.int64) & ((1 << bits) - 1)
    rev = np.zeros_like(v)
    for b in range(bits):
        rev |= ((v >> b) & 1) << (bits - 1 - b)
    return pts, (rev + 0.5) / (1 << bits)


def shift_permutation(
    points: Sequence[float], shift: float = 0.5
) -> Tuple[np.ndarray, np.ndarray]:
    """Everyone targets the diametrically shifted point (a cyclic shift)."""
    checks.finite(shift, "shift")
    pts = np.asarray(points, dtype=np.float64)
    return pts, np.mod(pts + shift, 1.0)


def zipf_demands(
    n_items: int, total: int, rng: np.random.Generator, exponent: float = 1.2
) -> List[int]:
    """Demand vector ``q_i`` with ``Σ q_i = total`` following a Zipf law.

    The §3.4 setting: an arbitrary demand over ``n`` items summing to
    ``n``; Zipf is the canonical skew (a few very hot items).
    """
    n_items, total = checks.count(n_items, "n_items", 1), checks.count(total, "total")
    ranks = np.arange(1, n_items + 1, dtype=float)
    weights = ranks**-checks.real(exponent, "exponent")
    weights /= weights.sum()
    counts = rng.multinomial(total, weights)
    return counts.tolist()


def single_hotspot_demands(n_items: int, total: int, hot_index: int = 0) -> List[int]:
    """All demand on one item — the §3.3 single-hotspot stress."""
    q = [0] * checks.count(n_items, "n_items", 1)
    q[checks.count(hot_index, "hot_index", 0, n_items)] = checks.count(total, "total")
    return q


def demand_stream(demands: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Expand a demand vector into a shuffled item-index request stream.

    The array form of the request interleaving the scalar experiments
    built with Python lists: item ``i`` appears ``demands[i]`` times, in
    a uniformly random arrival order — ready to feed
    :meth:`~repro.core.batch_cache.BatchCacheEngine.serve_batch`.
    """
    counts = np.asarray(demands, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("demands must be non-negative")
    stream = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return rng.permutation(stream)

