"""Request workload generators and the batch lookup driver.

The experiments' kit: :func:`balanced_network` builds the network every
§2–§3 experiment measures, :func:`random_pairs` draws Definition 3's
lookup stream over it, :func:`route_pairs` routes one, and
:func:`rate_fields` reports a batch-vs-scalar timing of it.

Each generator is a deterministic function of its RNG, covering the
demand patterns the paper analyses:

* uniform random points (Theorems 2.7 / 2.9 congestion);
* permutations, incl. the bit-reversal worst case (Theorem 2.10);
* hashed distinct items (Theorem 2.11);
* single/multiple hot spots with Zipf skew (§3).

:func:`route_pairs` is the vectorized driver the experiments feed those
workloads through: it routes a whole pair list as **one** batch over a
``net.router(auto_refresh=True)`` handle with CSR path accounting,
optionally booking the batch straight into a
:class:`~repro.core.routing_stats.BatchCongestion` accumulator — the
replacement for the per-lookup scalar loops E4/E5 used to run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

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
    "pairs_to_arrays",
    "route_pairs",
    "rate_fields",
    "DH_TAU_DIGITS",
]

#: Digits per lookup for explicit-tau Distance Halving batches — far
#: beyond the Theorem 2.8 walk length at any size the experiments route
#: (the engine raises "tau exhausted" if a walk ever outruns it).
DH_TAU_DIGITS = 64


def pairs_to_arrays(pairs) -> Tuple[np.ndarray, np.ndarray]:
    """``(sources, targets)`` float arrays of a workload.

    A *tuple* input is always the already-split ``(sources, targets)``
    form (two equal-length 1-D arrays); any other sequence is a
    generator's list of ``(source, target)`` pairs.  The type-based rule
    keeps a split pair of plain lists from being mistaken for two
    routed pairs.
    """
    if isinstance(pairs, tuple):
        if len(pairs) != 2:
            raise ValueError("split form must be a (sources, targets) 2-tuple")
        src = np.asarray(pairs[0], dtype=np.float64)
        tgt = np.asarray(pairs[1], dtype=np.float64)
        if src.ndim != 1 or tgt.ndim != 1 or src.size != tgt.size:
            raise ValueError(
                "split (sources, targets) must be equal-length 1-D arrays"
            )
        return src, tgt
    if len(pairs) == 0:
        return np.zeros(0), np.zeros(0)
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be (source, target) tuples")
    return arr[:, 0].copy(), arr[:, 1].copy()


def route_pairs(
    router,
    pairs,
    algorithm: str = "fast",
    rng: "np.random.Generator | None" = None,
    tau: "np.ndarray | None" = None,
    congestion=None,
    keep_paths="csr",
    workers: int = 1,
    policy: "str | None" = None,
    choices: "np.ndarray | None" = None,
    temperature: float = 1.0,
):
    """Route a whole workload through a batch router in one call.

    The vectorized lookup driver of the experiments: converts a
    generator's pair list (or a prebuilt array pair) with
    :func:`pairs_to_arrays`, routes it with the requested §2.2 algorithm
    — CSR path accounting by default — and, when ``congestion`` (a
    :class:`~repro.core.routing_stats.BatchCongestion`) is given, books
    the batch into it.  Returns the
    :class:`~repro.core.batch.BatchLookupResult`.

    ``workers > 1`` dispatches the batch over the router's cached
    shared-memory sharded executor (bit-identical results; the caller
    owns teardown via ``router.close_executor()``).  Sharded ``'dh'``
    requires explicit ``tau`` digits — the workers draw no shared rng.

    ``algorithm="cost"`` routes the cost-aware two-phase lookup
    (requires a :class:`~repro.peer.routing.CostAwareBatchRouter`):
    ``policy`` picks the covering-edge rule (default ``"weighted"``),
    ``choices`` supplies the shared per-step uniforms (required when
    sharded, unless the policy is ``"greedy"``), ``temperature`` tunes
    the softmin.
    """
    sources, targets = pairs_to_arrays(pairs)
    if algorithm == "fast":
        res = router.lookup_batch(sources, targets, workers=workers,
                                  keep_paths=keep_paths)
    elif algorithm == "dh":
        if workers > 1:
            res = router.sharded_executor(workers).batch_dh_lookup(
                sources, targets, tau, keep_paths=keep_paths)
        else:
            res = router.batch_dh_lookup(sources, targets, rng=rng, tau=tau,
                                         keep_paths=keep_paths)
    elif algorithm == "cost":
        pol = policy if policy is not None else "weighted"
        if workers > 1:
            res = router.sharded_executor(workers).batch_cost_dh_lookup(
                sources, targets, choices, policy=pol,
                temperature=temperature, keep_paths=keep_paths)
        else:
            res = router.batch_cost_dh_lookup(
                sources, targets, choices=choices, rng=rng, policy=pol,
                temperature=temperature, keep_paths=keep_paths)
    else:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; use 'fast', 'dh' or 'cost'")
    if congestion is not None:
        congestion.record_batch(res)
    return res


def rate_fields(batch_ops: int, batch_secs: float, scalar_ops: int,
                scalar_secs: float) -> Dict[str, float]:
    """The five timing keys of a batch-vs-scalar measurement dict.

    ``batch_secs`` / ``scalar_secs`` as given, the two ops-per-second
    rates and ``speedup`` = batch rate over scalar rate.  A leg that took
    zero seconds has an infinite rate, so a skipped scalar replay
    (``scalar_ops = 0`` in zero seconds) reads ``inf`` with speedup 0.0.
    """
    batch_rate = batch_ops / batch_secs if batch_secs > 0 else math.inf
    scalar_rate = scalar_ops / scalar_secs if scalar_secs > 0 else math.inf
    return {
        "batch_secs": batch_secs,
        "scalar_secs": scalar_secs,
        "batch_rate": batch_rate,
        "scalar_rate": scalar_rate,
        "speedup": batch_rate / scalar_rate if scalar_rate > 0 else math.inf,
    }


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
    then targets uniformly from the ring (one ``random`` call).  Returned
    in the split ``(sources, targets)`` array form
    :func:`pairs_to_arrays` accepts.
    """
    pts = np.asarray(points, dtype=np.float64)
    src = pts[rng.integers(0, pts.size, size=count)]
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
    lookups), targets uniformly from the ring.  Returned in the split
    ``(sources, targets)`` array form :func:`pairs_to_arrays` accepts.
    """
    pts = np.asarray(points, dtype=np.float64)
    alive_idx = np.flatnonzero(np.asarray(alive_mask, dtype=bool))
    if alive_idx.size == 0:
        raise ValueError("survivor_pairs needs at least one alive server")
    src = pts[alive_idx[rng.integers(0, alive_idx.size, size=count)]]
    return src, rng.random(count)


def random_permutation(
    points: Sequence[float], rng: np.random.Generator
) -> List[Tuple[float, float]]:
    """η a uniform permutation: server i looks up a point in s(x_η(i))."""
    n = len(points)
    perm = rng.permutation(n)
    return [(points[i], points[perm[i]]) for i in range(n)]


def bit_reversal_permutation(points: Sequence[float]) -> List[Tuple[float, float]]:
    """The classic adversarial permutation for hypercubic networks.

    Server ``i`` targets the point whose binary expansion is the reversal
    of its own id point's first ``log2 n`` bits — the permutation that
    breaks deterministic oblivious routing (and motivates Valiant-style
    randomisation, §2.2.3).
    """
    n = len(points)
    bits = max(1, int(math.ceil(math.log2(max(2, n)))))
    out = []
    for p in points:
        v = int(p * (1 << bits)) & ((1 << bits) - 1)
        rev = int(format(v, f"0{bits}b")[::-1], 2)
        out.append((p, (rev + 0.5) / (1 << bits)))
    return out


def shift_permutation(points: Sequence[float], shift: float = 0.5) -> List[Tuple[float, float]]:
    """Everyone targets the diametrically shifted point (a cyclic shift)."""
    return [(p, (p + shift) % 1.0) for p in points]


def zipf_demands(
    n_items: int, total: int, rng: np.random.Generator, exponent: float = 1.2
) -> List[int]:
    """Demand vector ``q_i`` with ``Σ q_i = total`` following a Zipf law.

    The §3.4 setting: an arbitrary demand over ``n`` items summing to
    ``n``; Zipf is the canonical skew (a few very hot items).
    """
    ranks = np.arange(1, n_items + 1, dtype=float)
    weights = ranks**-exponent
    weights /= weights.sum()
    counts = rng.multinomial(total, weights)
    return counts.tolist()


def single_hotspot_demands(n_items: int, total: int, hot_index: int = 0) -> List[int]:
    """All demand on one item — the §3.3 single-hotspot stress."""
    q = [0] * n_items
    q[hot_index] = total
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

