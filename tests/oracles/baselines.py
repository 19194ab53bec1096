"""Oracle of Table 1's ``measure_scheme_batch``: one lookup at a time."""

from collections import Counter

import numpy as np

from repro.baselines.base import BaselineDHT, MeasuredRow


def measure_scheme(
    dht: BaselineDHT, rng: np.random.Generator, lookups: int = 2000
) -> MeasuredRow:
    """Route ``lookups`` random (source, point) queries and aggregate.

    This is Definition 3's experiment: sources uniform over nodes,
    targets uniform over ``[0, 1)``; congestion is the max per-node visit
    frequency.
    """
    ids = list(dht.node_ids())
    visits: Counter = Counter()
    lengths = np.empty(lookups)
    for k in range(lookups):
        src = ids[int(rng.integers(len(ids)))]
        target = float(rng.random())
        path = dht.lookup_path(src, target, rng)
        lengths[k] = len(path) - 1
        for v in path:
            visits[v] += 1
    return MeasuredRow(
        scheme=dht.name,
        n=dht.n,
        mean_path=float(lengths.mean()),
        max_path=float(lengths.max()),
        max_congestion=max(visits.values()) / lookups,
        mean_degree=dht.mean_degree(),
        max_degree=dht.max_degree(),
        lookups=lookups,
    )
