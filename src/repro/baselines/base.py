"""Common interface for the Table 1 baseline lookup schemes.

The paper's Table 1 compares lookup schemes on three axes — expected
path length, congestion and linkage (degree).  Every baseline implements
:class:`BaselineDHT` so the E1 harness can measure all schemes uniformly:

============  ===============  ==================  =========
scheme        path length      congestion          linkage
============  ===============  ==================  =========
Chord         log n            (log n)/n           log n
Tapestry      log n            (log n)/n           log n
CAN           d·n^{1/d}        d·n^{1/d - 1}       d
Small Worlds  log² n           (log² n)/n          O(1)
Viceroy       log n            (log n)/n           O(1)
Koorde/DH     log_d n          (log_d n)/n         O(d)
============  ===============  ==================  =========
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import checks
from ..core.routing_stats import BatchCongestion
from ..core.walk import LANE_INT, PathResult, path_hops, ragged_to_csr

__all__ = [
    "BaselineBatchResult",
    "BaselineBatchRouter",
    "BaselineDHT",
    "MeasuredRow",
    "measure_scheme_batch",
]

#: Lookups per batch of :meth:`BaselineBatchRouter.route_chunked`: a
#: chunk's CSR arrays are booked and dropped before the next is routed.
ROUTE_CHUNK = 8192


class BaselineDHT(abc.ABC):
    """A static lookup scheme on ``n`` nodes.

    Nodes are identified by opaque hashables; ``lookup_path`` returns the
    node sequence a lookup message traverses (first element the source,
    last the owner of the target point).
    """

    name: str = "abstract"

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Number of nodes."""

    @abc.abstractmethod
    def node_ids(self) -> Sequence:
        """All node identifiers."""

    def owner(self, target: float) -> object:
        """The node responsible for a finite ring point (folded mod 1)."""
        return self._owner(checks.finite(target, "target"))

    def lookup_path(self, source, target: float, rng: np.random.Generator) -> List:
        """Route a lookup to a finite ring point; the visited node sequence."""
        return self._lookup_path(source, checks.finite(target, "target"), rng)

    @abc.abstractmethod
    def _owner(self, target: float) -> object:
        """:meth:`owner` past its entry check."""

    @abc.abstractmethod
    def _lookup_path(self, source, target: float, rng: np.random.Generator) -> List:
        """:meth:`lookup_path` past its entry check."""

    @abc.abstractmethod
    def degree(self, node) -> int:
        """Number of distinct links the node maintains."""

    # ------------------------------------------------------------- derived
    def max_degree(self) -> int:
        """Largest :meth:`degree` over all nodes."""
        return max(self.degree(v) for v in self.node_ids())

    def mean_degree(self) -> float:
        """Average :meth:`degree` over all nodes."""
        ids = list(self.node_ids())
        return sum(self.degree(v) for v in ids) / len(ids)

    @abc.abstractmethod
    def batch_router(self) -> "BaselineBatchRouter":
        """Compile this scheme's vectorized batch router."""


@dataclass
class MeasuredRow:
    """One measured Table 1 row for one scheme at one size."""

    scheme: str
    n: int
    mean_path: float
    max_path: float
    max_congestion: float
    mean_degree: float
    max_degree: int
    lookups: int

    def as_dict(self) -> Dict[str, float]:
        """The row as a plain dict, in column order."""
        return {
            "scheme": self.scheme,
            "n": self.n,
            "mean_path": self.mean_path,
            "max_path": self.max_path,
            "max_congestion": self.max_congestion,
            "mean_degree": self.mean_degree,
            "max_degree": self.max_degree,
            "lookups": self.lookups,
        }


@dataclass
class BaselineBatchResult(PathResult):
    """Array-of-structs outcome of one batch of baseline lookups.

    The baseline counterpart of
    :class:`~repro.core.batch.BatchLookupResult`: paths live in the same
    CSR representation (``path_servers`` holds node *indices*,
    ``path_offsets`` is the length-``size + 1`` prefix sum), always kept
    and read through the same :class:`~repro.core.walk.PathResult`
    contract, so :class:`~repro.core.routing_stats.BatchCongestion`
    books a whole batch with one ``np.bincount``.

    ``points`` maps node index → congestion key: the ring id for the
    float-identified schemes (Chord, Koorde, Viceroy, DH), or simply
    ``float(index)`` for the integer-identified ones (CAN, Kleinberg,
    Tapestry) — the same keys the scalar
    :meth:`~repro.core.routing_stats.CongestionCounter.record_path`
    sees, so summaries match bit-for-bit and ``server_path(i)`` is
    scalar-comparable.
    """

    scheme: str
    points: np.ndarray        # float64 congestion key of every node
    source_idx: np.ndarray
    owner_idx: np.ndarray
    path_servers: np.ndarray  # int32 node indices, CSR values
    path_offsets: np.ndarray  # int64 prefix sums, length size + 1

    def __post_init__(self) -> None:
        # the lane contract, once for every scheme's router
        self.source_idx = self.source_idx.astype(LANE_INT, copy=False)
        self.owner_idx = self.owner_idx.astype(LANE_INT, copy=False)

    @property
    def size(self) -> int:
        """Number of lookups in the batch."""
        return int(self.source_idx.size)

    @property
    def hops(self) -> np.ndarray:
        """Per-lookup hop count (compressed path length − 1)."""
        return path_hops(self.path_offsets)


class _PathRecorder:
    """Accumulates the ``(lane, node index)`` pairs of a batch, hop by hop.

    A lane records nothing at a level it is not handed at (or is handed
    at with ``-1``); :meth:`to_csr` brings the pairs lane-major with one
    stable sort — hops stay in recording order — and the shared writer
    :func:`~repro.core.walk.ragged_to_csr` compresses consecutive
    duplicates per lane: exactly the scalar ``compress_path`` semantics,
    vectorized.
    """

    def __init__(self, size: int, first_row: np.ndarray):
        self.size = size
        self._lanes: List[np.ndarray] = [np.arange(size)]
        self._values: List[np.ndarray] = [np.array(first_row)]

    def append(self, lanes: np.ndarray, values: np.ndarray) -> None:
        """Record ``values`` for the batch positions ``lanes``."""
        held = values >= 0
        self._lanes.append(lanes[held])
        self._values.append(values[held])

    def to_csr(self) -> tuple:
        lane = np.concatenate(self._lanes)
        counts = np.bincount(lane, minlength=self.size)
        order = np.argsort(lane, kind="stable")
        return ragged_to_csr(np.concatenate(self._values)[order],
                             np.cumsum(counts) - counts)


class BaselineBatchRouter(abc.ABC):
    """Compiled (frozen-array) form of a baseline scheme.

    The generalization of the :class:`~repro.core.batch.BatchRouter`
    pattern to the Table 1 competitors: construction compiles the
    topology to sorted id / finger / link index arrays, and
    :meth:`route_batch` advances *every* pending lookup one hop level
    per iteration — a gather + compare per level instead of a Python
    loop per hop per lookup.  Every float comparison replicates the
    scalar ``lookup_path`` operation ordering, so paths are
    bit-identical (the ``tests/baselines`` parity suite asserts this).

    Subclasses set ``scheme`` (display name) and ``node_keys`` (the
    float64 congestion key per node index) and implement
    :meth:`route_batch`.
    """

    scheme: str
    node_keys: np.ndarray

    @abc.abstractmethod
    def route_batch(
        self,
        source_idx: np.ndarray,
        targets: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> BaselineBatchResult:
        """Route one batch; sources are node indices, targets ∈ [0, 1)."""

    def route_chunked(
        self,
        source_idx: np.ndarray,
        targets: np.ndarray,
        congestion: BatchCongestion,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple:
        """Route a large workload in bounded-memory chunks.

        Books every :data:`ROUTE_CHUNK`-lookup chunk into ``congestion``
        and discards its CSR arrays before routing the next, so peak
        memory is O(chunk · max-path) regardless of the workload size.
        Returns ``(hops, owner_idx)`` arrays for the whole workload.
        """
        source_idx = np.asarray(source_idx, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        hops_parts: List[np.ndarray] = []
        owner_parts: List[np.ndarray] = []
        for lo in range(0, targets.size, ROUTE_CHUNK):
            res = self.route_batch(source_idx[lo:lo + ROUTE_CHUNK],
                                   targets[lo:lo + ROUTE_CHUNK], rng=rng)
            congestion.record_batch(res)
            hops_parts.append(res.hops)
            owner_parts.append(res.owner_idx)
        return (
            np.concatenate(hops_parts) if hops_parts else np.zeros(0, LANE_INT),
            np.concatenate(owner_parts) if owner_parts else np.zeros(0, LANE_INT),
        )


def measure_scheme_batch(
    dht: BaselineDHT,
    rng: np.random.Generator,
    lookups: int = 100_000,
) -> MeasuredRow:
    """Definition 3's experiment on the vectorized spine.

    Sources uniform over nodes, targets uniform over ``[0, 1)``,
    congestion the max per-node visit frequency; the whole workload is
    batch-routed and accounted through
    :class:`~repro.core.routing_stats.BatchCongestion`, which is what
    lets E1/E6 run 10^5-lookup cells at n = 2^16.
    """
    lookups = checks.count(lookups, "lookups")
    n = dht.n
    src = rng.integers(0, n, size=lookups)
    targets = rng.random(lookups)
    cong = BatchCongestion()
    hops, _owners = dht.batch_router().route_chunked(src, targets, cong,
                                                     rng=rng)
    return MeasuredRow(
        scheme=dht.name,
        n=n,
        mean_path=float(hops.mean()) if lookups else 0.0,
        max_path=float(hops.max()) if lookups else 0.0,
        max_congestion=cong.max_congestion(),
        mean_degree=dht.mean_degree(),
        max_degree=dht.max_degree(),
        lookups=lookups,
    )
