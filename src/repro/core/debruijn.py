"""Classic De Bruijn graphs and the paper's isomorphism claim (§2.1, §2.3).

Definition 2: the ``r``-dimensional (binary) De Bruijn graph has ``2^r``
nodes, one per ``r``-bit string, with edges
``u_1 u_2 … u_r -> u_2 … u_r v``.  Definition 4 generalises to alphabet
size ``Δ``.

The paper proves that with equally spaced ids ``x_i = i/2^r`` the discrete
Distance Halving graph (without ring edges) is *isomorphic* to the
``r``-dimensional De Bruijn graph via bit reversal
``v_1 … v_r  ↦  v_r … v_1``.  :func:`distance_halving_is_debruijn`
checks that isomorphism explicitly — it is both a unit test of the whole
edge machinery and the justification for calling the DHT a De Bruijn
emulation; experiment E2 runs it as a named check.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

__all__ = [
    "debruijn_nodes",
    "debruijn_successors",
    "bit_reversal",
    "equally_spaced_network",
    "distance_halving_is_debruijn",
]


def equally_spaced_network(r: int, delta: int = 2, with_ring: bool = False):
    """The Distance Halving network on the ``Δ^r`` equally spaced ids.

    Ids are the exact dyadic/``Δ``-adic rationals ``x_i = i/Δ^r``
    (smoothness ``ρ = 1``), the instance on which §2.1 proves the DHT
    isomorphic to the ``r``-dimensional De Bruijn graph.  Besides the
    isomorphism check below it serves as the ``ρ = 1`` reference network
    for the lookup and batch-throughput experiments: every bound of
    Corollary 2.5 / Theorem 2.8 is tight-modulo-constants here.
    """
    from fractions import Fraction

    from .network import DistanceHalvingNetwork

    if r < 1:
        raise ValueError("dimension r must be >= 1")
    n = delta**r
    net = DistanceHalvingNetwork(delta=delta, with_ring=with_ring)
    for i in range(n):
        net.join(Fraction(i, n))
    return net


def debruijn_nodes(r: int, delta: int = 2) -> Iterator[Tuple[int, ...]]:
    """All ``Δ^r`` digit strings of length ``r`` (lexicographic order)."""
    if r < 1:
        raise ValueError("dimension r must be >= 1")
    total = delta**r
    for value in range(total):
        yield value_to_string(value, r, delta)


def value_to_string(value: int, r: int, delta: int = 2) -> Tuple[int, ...]:
    """Integer ``value`` as an ``r``-digit base-``Δ`` string (MSB first)."""
    digits = []
    for k in range(r - 1, -1, -1):
        digits.append((value // delta**k) % delta)
    return tuple(digits)


def string_to_value(s: Iterable[int], delta: int = 2) -> int:
    """Inverse of :func:`value_to_string`."""
    v = 0
    for d in s:
        v = v * delta + d
    return v


def debruijn_successors(node: Tuple[int, ...], delta: int = 2) -> List[Tuple[int, ...]]:
    """Out-neighbours ``u_2 … u_r v`` for each alphabet digit ``v``."""
    return [node[1:] + (v,) for v in range(delta)]


def bit_reversal(node: Tuple[int, ...]) -> Tuple[int, ...]:
    """The paper's isomorphism map ``v_1 … v_r ↦ v_r … v_1``."""
    return tuple(reversed(node))


def distance_halving_is_debruijn(r: int, delta: int = 2) -> bool:
    """Verify §2.1's isomorphism claim for dimension ``r``.

    Builds the discrete Distance Halving graph on the ``Δ^r`` equally
    spaced points ``x_i = i/Δ^r`` (without ring edges), maps each server
    to the bit-reversed digit string of its index, and checks the edge
    sets coincide with the ``r``-dimensional De Bruijn graph's.

    Self-loops are compared too (the De Bruijn graph has one per constant
    string).  Note the discrete DH edge relation is "segments containing
    adjacent continuous points"; with exactly equal segments each image
    ``f_v(s(x_i))`` lies inside a single segment, which is what makes the
    correspondence exact.
    """
    net = equally_spaced_network(r, delta=delta, with_ring=False)

    points = list(net.points())
    dh_edges = set()
    for i, p in enumerate(points):
        for q in net.out_neighbor_points(p):
            j = points.index(q)
            dh_edges.add((i, j))

    db_edges = set()
    for node in debruijn_nodes(r, delta):
        i = string_to_value(bit_reversal(node), delta)
        for nxt in debruijn_successors(node, delta):
            j = string_to_value(bit_reversal(nxt), delta)
            db_edges.add((i, j))

    return dh_edges == db_edges
