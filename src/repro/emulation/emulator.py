"""General graph emulation over a smooth decomposition (paper §7).

Given a family ``{G_k}`` with ``2^k`` vertices and degree ``d``, and a
smooth point set ``x`` on ``[0,1)``, server ``V_i`` simulates the guests

    ``Φ_k(u_j) = V_i  ⟺  j / 2^k ∈ s(x_i)``

and hosts an edge for every guest edge.  The §7 properties, all checked
by tests/E15:

1. every server simulates at most ``ρ + 1`` guests;
2. every host edge simulates at most ``ρ²`` guest edges;
3. the host degree is at most ``ρ·d`` — so a smooth decomposition gives
   a *real-time* (constant slow-down) emulation of ``G_{⌈log n⌉}``.

When servers do not know ``n``, each estimates ``n_i = 1/|s(V_i)|`` and
opens edges for every level in ``[log n_i − log ρ, log n_i + log ρ]``
(Theorem 7.1: degree ≤ ``2 d ρ log ρ``); :meth:`GraphEmulator.multi_level_hosts`
implements that variant.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Set, Tuple


from .. import checks
from ..core.segments import SegmentMap
from .families import GraphFamily

__all__ = ["GraphEmulator"]


class GraphEmulator:
    """Emulates ``G_k`` on the servers of a segment decomposition."""

    def __init__(self, segments: SegmentMap, family: GraphFamily,
                 k: Optional[int] = None):
        if len(segments) < 1:
            raise ValueError("need at least one server")
        self.segments = segments
        self.family = family
        self.k = (checks.count(k, "k", 1) if k is not None
                  else max(1, math.ceil(math.log2(len(segments)))))

    # ------------------------------------------------------------- mapping
    def host_of(self, guest: int, k: Optional[int] = None) -> float:
        """``Φ_k(u_guest)`` — the server covering ``guest / 2^k``."""
        k = self.k if k is None else checks.count(k, "k", 1)
        checks.count(guest, "guest", 0, 1 << k)
        return self.segments.cover_point(guest / (1 << k))

    def guests_of(self, server_point: float, k: Optional[int] = None) -> List[int]:
        """All guests mapped to a server — computable locally from its segment."""
        k = self.k if k is None else checks.count(k, "k", 1)
        n = 1 << k
        seg = self.segments.segment_of(server_point)
        out: List[int] = []
        for a, b in seg.pieces():
            first = math.ceil(float(a) * n - 1e-12)
            while first / n < float(a):
                first += 1
            j = first
            while j / n < float(b) and j < n:
                out.append(j)
                j += 1
        return sorted(out)

    # ------------------------------------------------------------- topology

    def host_degree(self, server_point: float) -> int:
        """Degree of a server in the emulation overlay."""
        neighbors: Set[float] = set()
        for u in self.guests_of(server_point):
            for v in self.family.neighbors(self.k, u):
                hv = self.host_of(v)
                if hv != server_point:
                    neighbors.add(hv)
        return len(neighbors)

    def edge_multiplicity(self) -> Counter:
        """How many guest edges each host edge simulates (≤ ρ² each)."""
        counts: Counter = Counter()
        seen: Set[Tuple[int, int]] = set()
        for u in range(1 << self.k):
            for v in self.family.neighbors(self.k, u):
                e = (min(u, v), max(u, v))
                if e in seen:
                    continue
                seen.add(e)
                hu, hv = self.host_of(u), self.host_of(v)
                counts[(min(hu, hv), max(hu, hv))] += 1
        return counts

    # ----------------------------------------------------- §7 property checks
    def max_guests_per_server(self) -> int:
        return max(len(self.guests_of(p)) for p in self.segments)

    def check_properties(self) -> Dict[str, bool]:
        """Verify the three §7 emulation properties for the current ρ."""
        rho = self.segments.smoothness()
        d = self.family.degree_bound(self.k)
        guests_ok = self.max_guests_per_server() <= rho + 1
        mult = self.edge_multiplicity()
        mult_ok = (max(mult.values()) if mult else 0) <= rho * rho + 1e-9
        degree_ok = all(self.host_degree(p) <= rho * d for p in self.segments)
        return {
            "guests_le_rho_plus_1": guests_ok,
            "edge_multiplicity_le_rho_sq": mult_ok,
            "degree_le_rho_d": degree_ok,
        }

    # ------------------------------------------------- unknown-n (Thm 7.1)
    def level_list(self, server_point: float, rho_bound: float) -> List[int]:
        """Levels a server opens when ``n`` is unknown (§7's 2·log ρ list)."""
        seg_len = float(self.segments.segment_of(server_point).length)
        n_i = max(2.0, 1.0 / seg_len)
        checks.real(rho_bound, "rho_bound", "[1, inf)")
        log_rho = max(1.0, math.log2(max(2.0, rho_bound)))
        lo = max(1, math.floor(math.log2(n_i) - log_rho))
        hi = max(lo, math.ceil(math.log2(n_i) + log_rho))
        return list(range(lo, hi + 1))

    def multi_level_hosts(self, server_point: float, rho_bound: float
                          ) -> Set[float]:
        """Union of emulation neighbours over the server's level list.

        Theorem 7.1: with smoothness ≤ ρ the union has size at most
        ``2 d ρ log ρ`` and contains the true level ``⌈log n⌉``'s edges.
        """
        out: Set[float] = set()
        for k in self.level_list(server_point, rho_bound):
            for u in self.guests_of(server_point, k):
                for v in self.family.neighbors(k, u):
                    hv = self.host_of(v, k)
                    if hv != server_point:
                        out.add(hv)
        return out

    # ------------------------------------------------------ real-time demo
    def emulate_round(self, values: Dict[int, float]) -> Dict[int, float]:
        """One synchronous round of ``G_k``: every guest averages neighbours.

        Runs *on the hosts*: each server updates only its own guests,
        reading neighbour values through host edges — then the result is
        compared against the direct computation by the tests (real-time
        emulation in the sense of [28]/[23]).
        """
        new: Dict[int, float] = {}
        for p in self.segments:
            for u in self.guests_of(p):
                nb = self.family.neighbors(self.k, u)
                new[u] = sum(values[v] for v in nb) / len(nb)
        return new
