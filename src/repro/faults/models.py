"""Fault models (paper §6 preamble).

Two of the paper's models are mechanised:

* **fail-stop** — a random subset of servers stops responding entirely;
* **false message injection** — faulty servers "produce arbitrary false
  versions of the data item requested, but otherwise behave correctly":
  they follow the routing protocol yet corrupt payloads.

Both draw the faulty set randomly and *independently of the system's
random choices* — the assumption Theorem 6.4's remark makes explicit
(correlated failures are fine as long as they ignore the ids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence, Set

import numpy as np

__all__ = ["FaultPlan", "random_failstop", "random_byzantine"]


def _member_mask(servers: np.ndarray, chosen: Set[float]) -> np.ndarray:
    """Boolean membership of each server id in a fault set."""
    if not chosen:
        return np.zeros(servers.size, dtype=bool)
    table = np.fromiter(chosen, dtype=np.float64, count=len(chosen))
    return np.isin(servers, table)


@dataclass
class FaultPlan:
    """Which servers are faulty and how they misbehave.

    The canonical representation is two sets of server id points (the
    scalar §6.3 algorithms probe them per hop); :meth:`failed_mask` /
    :meth:`liar_mask` / :meth:`alive_mask` re-encode the same plan as
    NumPy boolean arrays aligned with a sorted server-id vector, which is
    how the batch engine (:mod:`repro.faults.batch_ft`) consumes it —
    per-hop survival becomes one boolean reduction per level.
    """

    failed: Set[float] = field(default_factory=set)       # fail-stop servers
    liars: Set[float] = field(default_factory=set)        # false-injection servers

    def is_alive(self, server: float) -> bool:
        return server not in self.failed

    def alive(self, servers: Sequence[float]) -> Set[float]:
        return {s for s in servers if s not in self.failed}

    def answer_of(self, server: float, true_value: Hashable) -> Hashable:
        """The value this server reports for an item it stores."""
        if server in self.liars:
            return ("CORRUPT", server)
        return true_value

    # ------------------------------------------------- array encodings
    def failed_mask(self, servers: Sequence[float]) -> np.ndarray:
        """Boolean fail-stop mask aligned with ``servers`` (keyed by id)."""
        return _member_mask(np.asarray(servers, dtype=np.float64), self.failed)

    def alive_mask(self, servers: Sequence[float]) -> np.ndarray:
        """``~failed_mask`` — the survivors among ``servers``."""
        return ~self.failed_mask(servers)

    def liar_mask(self, servers: Sequence[float]) -> np.ndarray:
        """Boolean false-injection mask aligned with ``servers``."""
        return _member_mask(np.asarray(servers, dtype=np.float64), self.liars)


def random_failstop(
    servers: Sequence[float], p: float, rng: np.random.Generator
) -> FaultPlan:
    """Each server fails independently with probability ``p`` (Thm 6.4)."""
    if not 0 <= p < 1:
        raise ValueError("failure probability must be in [0, 1)")
    mask = rng.random(len(servers)) < p
    return FaultPlan(failed={s for s, m in zip(servers, mask) if m})


def random_byzantine(
    servers: Sequence[float], p: float, rng: np.random.Generator
) -> FaultPlan:
    """Each server lies independently with probability ``p`` (Thm 6.6)."""
    if not 0 <= p < 1:
        raise ValueError("corruption probability must be in [0, 1)")
    mask = rng.random(len(servers)) < p
    return FaultPlan(liars={s for s, m in zip(servers, mask) if m})
