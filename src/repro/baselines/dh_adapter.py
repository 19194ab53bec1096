"""Adapter exposing the Distance Halving DHT as a Table 1 scheme.

Lets the E1 harness measure our construction with exactly the same
driver as the baselines.  Two lookup modes (the paper's §2.2.1 and
§2.2.2) and arbitrary degree parameter Δ (§2.3) are supported, so the
Table 1 row "Distance Halving, 2 ≤ d ≤ √n" can be traced across ``d``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import checks
from ..balance.strategies import MultipleChoice
from ..core.lookup import dh_lookup, fast_lookup
from ..core.network import DistanceHalvingNetwork
from .base import BaselineBatchResult, BaselineBatchRouter, BaselineDHT

__all__ = ["DistanceHalvingAdapter", "DistanceHalvingBatchRouter"]


class DistanceHalvingAdapter(BaselineDHT):
    """Distance Halving as a measurable lookup scheme.

    ``mode`` selects Fast Lookup (deterministic, §2.2.1) or the two-phase
    Distance Halving Lookup (randomised, §2.2.2).  ``balanced`` joins the
    servers with the §4 Multiple Choice strategy — the configuration the
    paper's Table 1 row assumes (smooth ids); ``balanced=False`` uses
    uniform ids for the ablation.
    """

    def __init__(
        self,
        n: int,
        rng: np.random.Generator,
        delta: int = 2,
        mode: str = "dh",
        balanced: bool = True,
    ):
        self.mode = checks.choice(mode, "mode", ("dh", "fast"))
        self.name = f"distance-halving(d={delta},{mode})"
        self.net = DistanceHalvingNetwork(delta=delta, rng=rng)
        selector = MultipleChoice(t=4) if balanced else None
        self.net.populate(n, selector=selector)

    @property
    def n(self) -> int:
        return self.net.n

    def node_ids(self) -> Sequence[float]:
        return self.net.points()

    def _owner(self, target: float) -> float:
        return self.net.segments.cover_point(target)

    def degree(self, node: float) -> int:
        return self.net.degree(node)

    def _lookup_path(self, source: float, target: float, rng: np.random.Generator
                    ) -> List[float]:
        if self.mode == "fast":
            return fast_lookup(self.net, source, target).server_path
        return dh_lookup(self.net, source, target, rng).server_path

    def batch_router(self) -> "DistanceHalvingBatchRouter":
        return DistanceHalvingBatchRouter(self)


class DistanceHalvingBatchRouter(BaselineBatchRouter):
    """The DH engine's own :class:`~repro.core.batch.BatchRouter`, adapted.

    Wraps ``net.compile_router()`` behind the baseline batch interface so
    the cross-topology harness drives our construction exactly like the
    competitors: node indices in, :class:`BaselineBatchResult` with CSR
    paths out.  ``fast`` mode replays the scalar ``fast_lookup``
    bit-for-bit (the core engine's own guarantee); ``dh`` mode draws its
    digit strings from the supplied ``rng`` batch-wise, matching the
    scalar algorithm in distribution.
    """

    def __init__(self, adapter: DistanceHalvingAdapter):
        self.scheme = adapter.name
        self._mode = adapter.mode
        self._router = adapter.net.compile_router()
        self.node_keys = self._router.points

    def route_batch(
        self,
        source_idx: np.ndarray,
        targets: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> BaselineBatchResult:
        src = np.asarray(source_idx, dtype=np.int64)
        sources = self.node_keys[src]
        if self._mode == "fast":
            res = self._router.batch_fast_lookup(
                sources, targets, keep_paths="csr"
            )
        else:
            if rng is None:
                raise ValueError("dh-mode batch routing needs an rng")
            res = self._router.batch_dh_lookup(
                sources, targets, rng=rng, keep_paths="csr"
            )
        servers, offsets = res.to_csr()
        return BaselineBatchResult(
            scheme=self.scheme, points=self.node_keys, source_idx=src,
            owner_idx=res.owner_idx, path_servers=servers,
            path_offsets=offsets,
        )
