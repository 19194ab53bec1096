"""Deterministic per-server network-cost model (the P4P "provider map").

A :class:`CostMap` assigns every server an ISP label and a point in a
2-d coordinate space, both computed as **pure hashes of the server's id
point** (a splitmix64 finalizer over the float64 bit pattern).  That
purity is the column invariant the snapshot layer relies on: cost
columns can be recomputed wholesale after any churn patch or full
rebuild and are bit-identical to a fresh compile.

The cost of sending a message from server ``a`` to server ``b`` is

    ``isp_cost[isp(a), isp(b)] + hypot(coords(a) - coords(b))``

where ``isp_cost`` is a symmetric k×k matrix (zero diagonal by
convention: intra-ISP traffic is free) and coordinates are pre-scaled
by ``dist_scale`` so the distance term never dominates the ISP term.
All cost arithmetic lives in :func:`pair_costs` so the scalar and batch
engines evaluate byte-identical float64 expressions.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import checks

# Fixed salts: the labels/coordinates of a given id point are a global
# constant, not a per-run draw — only the isp_cost matrix is sampled.
_ISP_SALT = np.uint64(0x243F6A8885A308D3)  # pi digits
_X_SALT = np.uint64(0x13198A2E03707344)
_Y_SALT = np.uint64(0xA4093822299F31D0)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 (vectorized, overflow wraps)."""
    with np.errstate(over="ignore"):
        z = (z + _GAMMA) * _MIX1
        z ^= z >> np.uint64(30)
        z *= _MIX2
        z ^= z >> np.uint64(27)
        z *= _MIX1
        z ^= z >> np.uint64(31)
    return z


def hash01(points, salt: np.uint64) -> np.ndarray:
    """Hash id points to uniform float64 in ``[0, 1)`` (pure, salted).

    The float64 bit pattern is mixed with a splitmix64 finalizer and the
    top 53 bits become the mantissa, so the result is deterministic in
    the point alone — churn cannot move a server's hash.
    """
    bits = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    z = _mix64(bits.view(np.uint64) ^ np.uint64(salt))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def pair_costs(isp_a, isp_b, xa, ya, xb, yb, isp_cost: np.ndarray):
    """Cost of the edge a→b: ISP matrix entry + Euclidean coordinate gap.

    Broadcasts over any matching shapes; every engine (scalar walk,
    batch gather) must come through here so the float64
    operation sequence — and therefore bit-parity — is shared.  The
    matrix entry is one flat gather at ``isp_a·k + isp_b``, and the
    distance term is chained through the two difference arrays in
    place (on scalars the in-place operators just rebind).
    """
    dx = np.subtract(xa, xb)
    dy = np.subtract(ya, yb)
    dx *= dx
    dy *= dy
    dx += dy
    cost = isp_cost.take(np.multiply(isp_a, isp_cost.shape[1]) + isp_b)
    cost += np.sqrt(dx)
    return cost


@dataclass(frozen=True)
class CostMap:
    """The provider-side cost database (ISP matrix + coordinate scale).

    ``isp_cost`` is the symmetric k×k inter-ISP cost matrix;
    ``dist_scale`` scales the hashed unit-square coordinates, bounding
    the distance term by ``dist_scale·√2``.  Labels and coordinates are
    derived on demand from id points via :func:`hash01`, so a CostMap
    is tiny and position-independent — the matrix plus the point array
    reproduce every cost bit-for-bit.
    """

    isp_cost: np.ndarray
    dist_scale: float = 0.25

    def __post_init__(self) -> None:
        """Normalise the matrix to float64 and sanity-check its shape."""
        mat = np.ascontiguousarray(np.asarray(self.isp_cost, dtype=np.float64))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("isp_cost must be a square k x k matrix, k >= 1")
        checks.real(self.dist_scale, "dist_scale")
        object.__setattr__(self, "isp_cost", mat)

    @property
    def n_isps(self) -> int:
        """Number of ISPs (the side of the cost matrix)."""
        return int(self.isp_cost.shape[0])

    @classmethod
    def synthetic(
        cls,
        n_isps: int = 8,
        rng: Optional[np.random.Generator] = None,
        dist_scale: float = 0.25,
    ) -> "CostMap":
        """A random symmetric matrix: free intra-ISP, costly inter-ISP.

        Intra-ISP entries are 0 and inter-ISP entries uniform in
        ``[1, 10)``.  With the default ``dist_scale`` the distance term is
        at most ``0.25·√2 < 1``, strictly below any inter-ISP entry, so
        the greedy policy always prefers an intra-ISP cover when one is
        available.
        """
        n_isps = checks.count(n_isps, "n_isps", 1)
        rng = rng if rng is not None else np.random.default_rng()
        raw = rng.random((n_isps, n_isps))
        mat = 1.0 + 9.0 * (raw + raw.T) / 2.0
        np.fill_diagonal(mat, 0.0)
        return cls(isp_cost=mat, dist_scale=dist_scale)

    def isp_of(self, points) -> np.ndarray:
        """ISP label of each id point (pure hash, stable under churn)."""
        lab = (hash01(points, _ISP_SALT) * self.n_isps).astype(np.int64)
        return np.minimum(lab, self.n_isps - 1)

    def coords_of(self, points) -> Tuple[np.ndarray, np.ndarray]:
        """Pre-scaled 2-d coordinates of each id point (pure hash)."""
        return (
            hash01(points, _X_SALT) * self.dist_scale,
            hash01(points, _Y_SALT) * self.dist_scale,
        )

    def columns(self, points) -> dict:
        """The three snapshot cost columns for a sorted point array."""
        x, y = self.coords_of(points)
        return {"cost_isp": self.isp_of(points), "cost_x": x, "cost_y": y}
