"""Fixed-degree graph families ``{G_1, G_2, …}`` for §7 emulation.

Section 7 emulates any family where ``G_k`` has ``2^k`` vertices and
maximum degree ``d``.  We provide the classical interconnection
topologies (Leighton's menagerie):

* :class:`RingFamily` — degree 2;
* :class:`TorusFamily` — the 2D torus, degree 4;
* :class:`DeBruijnFamily` — degree ≤ 4 (undirected), the §2 star;
* :class:`ShuffleExchangeFamily` — degree ≤ 3.
"""

from __future__ import annotations

from typing import List, Protocol

__all__ = [
    "GraphFamily",
    "RingFamily",
    "TorusFamily",
    "DeBruijnFamily",
    "ShuffleExchangeFamily",
]


class GraphFamily(Protocol):
    """A family ``G_k`` of graphs on vertex sets ``{0, …, 2^k − 1}``."""

    name: str
    max_degree_formula: str

    def degree_bound(self, k: int) -> int:
        """Maximum degree ``d`` of ``G_k``."""
        ...  # pragma: no cover

    def neighbors(self, k: int, u: int) -> List[int]:
        """Neighbours of vertex ``u`` in ``G_k`` (undirected)."""
        ...  # pragma: no cover


def _validate(k: int, u: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= u < (1 << k):
        raise ValueError(f"vertex {u} out of range for k={k}")


class RingFamily:
    """The ``2^k``-cycle."""

    name = "ring"
    max_degree_formula = "2"

    def degree_bound(self, k: int) -> int:
        return 2

    def neighbors(self, k: int, u: int) -> List[int]:
        _validate(k, u)
        n = 1 << k
        return sorted({(u - 1) % n, (u + 1) % n} - {u})


class TorusFamily:
    """The ``2^⌈k/2⌉ × 2^⌊k/2⌋`` wrap-around grid."""

    name = "torus"
    max_degree_formula = "4"

    def degree_bound(self, k: int) -> int:
        return 4

    def _dims(self, k: int) -> tuple[int, int]:
        a = (k + 1) // 2
        return 1 << a, 1 << (k - a)

    def neighbors(self, k: int, u: int) -> List[int]:
        _validate(k, u)
        rows, cols = self._dims(k)
        r, c = divmod(u, cols)
        out = {
            ((r + 1) % rows) * cols + c,
            ((r - 1) % rows) * cols + c,
            r * cols + (c + 1) % cols,
            r * cols + (c - 1) % cols,
        }
        out.discard(u)
        return sorted(out)


class DeBruijnFamily:
    """The binary De Bruijn graph viewed undirected (degree ≤ 4)."""

    name = "debruijn"
    max_degree_formula = "4"

    def degree_bound(self, k: int) -> int:
        return 4

    def neighbors(self, k: int, u: int) -> List[int]:
        _validate(k, u)
        n = 1 << k
        out = {
            (2 * u) % n,
            (2 * u + 1) % n,
            u >> 1,
            (u >> 1) | (1 << (k - 1)),
        }
        out.discard(u)
        return sorted(out)


class ShuffleExchangeFamily:
    """Shuffle-exchange: rotate left, rotate right, flip lowest bit."""

    name = "shuffle-exchange"
    max_degree_formula = "3"

    def degree_bound(self, k: int) -> int:
        return 3

    def neighbors(self, k: int, u: int) -> List[int]:
        _validate(k, u)
        n = 1 << k
        rot_l = ((u << 1) | (u >> (k - 1))) & (n - 1)
        rot_r = (u >> 1) | ((u & 1) << (k - 1))
        out = {rot_l, rot_r, u ^ 1}
        out.discard(u)
        return sorted(out)

