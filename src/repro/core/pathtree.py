"""Path trees of the continuous Distance Halving graph (paper §3.1, Def. 5).

For a point ``y`` the *path tree* rooted at ``y`` is the infinite tree in
which every node ``z`` is the parent of ``l(z)`` and ``r(z)`` (all ``Δ``
children ``f_d(z)`` in the generalised construction).  A tree node is
addressed by the digit string ``σ = (d_1, …, d_j)`` of the child choices
taken from the root; its position in ``I`` is the walk ``w(σ, y)``.

Phase II of the Distance Halving lookup walks backward edges from
``w(τ_t, y)`` to ``y`` — i.e. *up* this tree from the depth-``t`` node
``τ[:t]`` to the root, visiting exactly the prefixes of ``τ``.  Because
``τ`` is uniformly random, requests enter through uniformly random
depth-``t`` nodes: the property that makes the tree a cache tree (the
"key observation" of §3.1).

Observation 3.2: two distinct nodes in layer ``j`` are at distance at
least ``Δ^{-j}`` — so a segment of length ``s`` covers at most
``⌈s·Δ^j⌉`` layer-``j`` nodes (used by Lemma 3.5).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from .continuous import ContinuousGraph, Digits
from .interval import Number, normalize

__all__ = ["PathTree"]


class PathTree:
    """The path tree rooted at ``root`` in the degree-``Δ`` continuous graph."""

    def __init__(self, root: Number, graph: ContinuousGraph | None = None):
        self.graph = graph if graph is not None else ContinuousGraph(2)
        self.root = normalize(root)

    @property
    def delta(self) -> int:
        return self.graph.delta

    def position(self, address: Sequence[int]) -> Number:
        """Position in ``I`` of the node addressed by digit string ``address``."""
        return self.graph.walk(tuple(address), self.root)

    def children(self, address: Sequence[int]) -> list[Digits]:
        """Addresses of the ``Δ`` children of a node."""
        base = tuple(address)
        return [base + (d,) for d in range(self.delta)]

    def layer(self, j: int) -> Iterator[Digits]:
        """All ``Δ^j`` addresses at depth ``j`` (lexicographic)."""
        if j < 0:
            raise ValueError("depth must be non-negative")

        def rec(prefix: Tuple[int, ...]) -> Iterator[Digits]:
            if len(prefix) == j:
                yield prefix
                return
            for d in range(self.delta):
                yield from rec(prefix + (d,))

        yield from rec(())
