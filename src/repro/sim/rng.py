"""Deterministic RNG plumbing.

Every stochastic component in the library takes an explicit
``numpy.random.Generator``; experiments derive independent child
generators per (experiment, repetition, component) from a root seed so
results are bit-for-bit reproducible and repetitions are independent.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["spawn", "spawn_many"]


def spawn(rng: np.random.Generator, label: int) -> np.random.Generator:
    """A child generator independent of its siblings (by label)."""
    seq = np.random.SeedSequence(entropy=int(rng.integers(0, 2**63)), spawn_key=(label,))
    return np.random.default_rng(seq)


def spawn_many(seed: int, count: int) -> List[np.random.Generator]:
    """``count`` independent generators from one seed (per repetition)."""
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(count)]
