"""The discrete Distance Halving DHT ``G_x`` (paper §2.1).

Given a set of id points ``x``, each server owns the segment
``s(x_i) = [x_i, x_{i+1})``; a pair ``(V_i, V_j)`` is an edge whenever the
continuous graph has an edge ``(y, z)`` with ``y ∈ s(x_i)`` and
``z ∈ s(x_j)``; ring edges ``(V_i, V_{i+1})`` are added so ``G_x``
contains a ring.  Everything — joins, leaves, neighbour sets, edge counts,
item placement — is derived from the segment decomposition, which is what
the paper means by "think continuously, act discretely".

Key theorem hooks exposed here:

* :meth:`DistanceHalvingNetwork.typed_edge_count` — the edge count of
  Theorem 2.1 (``≤ 3n − 1`` without ring edges, for ``Δ = 2``);
* :meth:`DistanceHalvingNetwork.max_out_degree` /
  :meth:`max_in_degree` — Theorem 2.2's smoothness-controlled bounds
  (``ρ + 4`` and ``⌈2ρ⌉ + 1``);
* :meth:`DistanceHalvingNetwork.join` / :meth:`leave` — Algorithm Join and
  the simple Leave rule, with O(1) item movement verified by tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..hashing.kwise import Key, PointHasher
from .continuous import ContinuousGraph
from .interval import Arc, Number, normalize
from .node import Server
from .segments import SegmentMap
from .snapshot import OpJournal

__all__ = ["DistanceHalvingNetwork"]

IdSelector = Callable[["DistanceHalvingNetwork", np.random.Generator], float]

#: (kind, float(point), index) — one entry per join/leave, in order.
MembershipOp = tuple


class MembershipLog(OpJournal):
    """Bounded journal of join/leave operations for incremental routers.

    The membership instance of the shared
    :class:`~repro.core.snapshot.OpJournal`: every membership change
    appends ``(kind, float(point), index)`` where ``index`` is the
    point's position in the sorted id vector at the time of the
    operation (the insertion index for a join, the pre-removal index
    for a leave).  A :class:`~repro.core.batch.BatchRouter` synced at
    version ``v`` replays the suffix ``ops_since(v)`` to patch its
    frozen arrays in O(affected region) instead of recompiling; a
    router that fell behind the cap gets ``None`` and must rebuild.
    """

    def record(self, kind: str, point: float, index: int) -> None:
        """Append one ``(kind, float(point), index)`` op; kind is join/leave."""
        self.append((kind, float(point), int(index)))


class DistanceHalvingNetwork:
    """A dynamic Distance Halving DHT over ``[0, 1)``.

    Parameters
    ----------
    delta:
        Alphabet size of the underlying continuous De Bruijn graph
        (§2.3).  ``delta=2`` is the Distance Halving construction proper.
    with_ring:
        Keep the ring edges ``(V_i, V_{i+1})`` (§2.1).  The ablation
        experiment switches them off to measure their contribution.

    The system-wide item-to-point hash ``h`` is :attr:`item_hash`, a
    64-wise independent :class:`~repro.hashing.kwise.PointHasher` drawn
    from ``rng``.
    """

    def __init__(
        self,
        delta: int = 2,
        with_ring: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.graph = ContinuousGraph(delta)
        self.with_ring = with_ring
        self.segments = SegmentMap()
        self.servers: Dict[float, Server] = {}
        self._rng = rng if rng is not None else np.random.default_rng()
        self.item_hash: Callable[[Key], float] = PointHasher(self._rng)
        self.membership_log = MembershipLog()

    # ------------------------------------------------------------ properties
    @property
    def delta(self) -> int:
        """Alphabet size Δ of the underlying continuous graph."""
        return self.graph.delta

    @property
    def n(self) -> int:
        """Number of servers currently in the network."""
        return len(self.segments)

    def __len__(self) -> int:
        return self.n

    def points(self) -> Sequence[float]:
        """Sorted id points of all servers, as a tuple (an O(n) copy per call).

        One id: ``segments.point_at(i)``; all as float64: ``segments.column``.
        """
        return self.segments.points

    def server_at(self, point: Number) -> Server:
        """The server whose id point is exactly ``point``."""
        return self.servers[normalize(point)]

    def owner_of(self, y: Number) -> Server:
        """The server covering point ``y`` (the lookup oracle)."""
        return self.servers[self.segments.cover_point(y)]

    def segment_of(self, point: Number) -> Arc:
        """The segment owned by the server with id ``point``."""
        return self.segments.segment_of(point)

    def smoothness(self) -> float:
        """``ρ`` of the current decomposition (Definition 1)."""
        return self.segments.smoothness()

    @property
    def membership_version(self) -> int:
        """Counter bumped by every :meth:`join` and :meth:`leave`.

        Compiled routers remember the version they snapshotted; a
        mismatch is how staleness is detected (and, for auto-refresh
        routers, how the incremental replay window is delimited).
        """
        return self.membership_log.version

    # ------------------------------------------------------------ membership
    def join(self, point: Optional[Number] = None, name: str = "",
             selector: Optional[IdSelector] = None) -> Server:
        """Algorithm Join (§2.1).

        Step 1 chooses the id point: either the caller supplies it, or a
        ``selector`` (one of the §4 balancing strategies) picks it.  Step
        2's lookup is the segment-map cover query.  Step 3 splits the
        covering segment and moves the data items that now belong to the
        newcomer.  Step 4 (informing neighbours) is implicit because
        neighbour sets are always derived from the live decomposition.
        Returns the new :class:`Server`.
        """
        if point is None:
            if selector is not None:
                point = selector(self, self._rng)
            else:
                point = float(self._rng.random())
        # Preserve exact (Fraction) coordinates; cast everything else to
        # float.  The map normalizes (and refuses NaN / ±inf by name).
        idx = self.segments.insert(
            point if isinstance(point, Fraction) else float(point))
        p = self.segments.point_at(idx)
        srv = Server(point=p, name=name)
        self.servers[p] = srv
        self.membership_log.record("join", float(p), idx)
        if self.n > 1:
            # Move items that fall inside the newcomer's segment (step 3);
            # the server that covered p is now its ring predecessor.
            previous_owner = self.servers[self.segments.point_at(idx - 1)]
            if previous_owner.store:
                new_seg = self.segments.segment(idx)
                moved = [k for k, (pos, _v) in previous_owner.store.items()
                         if pos in new_seg]
                for k in moved:
                    srv.store[k] = previous_owner.store.pop(k)
        return srv

    def leave(self, point: Number) -> None:
        """Simple Leave rule (§2.1): the ring predecessor absorbs the segment.

        The departing server hands its data items to the predecessor.
        """
        p = normalize(point)
        if p not in self.servers:
            raise KeyError(f"no server at {p!r}")
        idx = self.segments.remove(p)
        departing = self.servers.pop(p)
        if self.n:  # what is at idx - 1 now was the ring predecessor
            pred = self.servers[self.segments.point_at(idx - 1)]
            pred.store.update(departing.store)
        self.membership_log.record("leave", float(p), idx)

    def populate(self, n: int, selector: Optional[IdSelector] = None) -> None:
        """Convenience: join ``n`` servers using ``selector`` (default uniform)."""
        for _ in range(n):
            self.join(selector=selector)

    # -------------------------------------------------------------- topology
    def out_neighbor_points(self, point: Number) -> List[float]:
        """Servers covering the images ``f_i(s(V))`` — the forward edges."""
        seg = self.segments.segment_of(point)
        out: dict[float, None] = {}
        for img in self.graph.image_arcs(seg):
            for q in self.segments.covering_points(img):
                out.setdefault(q, None)
        return list(out)

    def in_neighbor_points(self, point: Number) -> List[float]:
        """Servers covering the preimage ``b(s(V))`` — the backward edges."""
        seg = self.segments.segment_of(point)
        out: dict[float, None] = {}
        for pre in self.graph.preimage_arcs(seg):
            for q in self.segments.covering_points(pre):
                out.setdefault(q, None)
        return list(out)

    def ring_neighbor_points(self, point: Number) -> List[float]:
        """Ring predecessor and successor (§2.1 adds these edges)."""
        if self.n <= 1:
            return []
        return [self.segments.predecessor(point), self.segments.successor(point)]

    def neighbor_points(self, point: Number) -> List[float]:
        """The full (undirected) neighbour set of a server.

        Union of forward images, backward preimage, and — when enabled —
        the two ring neighbours.  The server itself is excluded.
        """
        p = normalize(point)
        out: dict[float, None] = {}
        for q in self.out_neighbor_points(p):
            out.setdefault(q, None)
        for q in self.in_neighbor_points(p):
            out.setdefault(q, None)
        if self.with_ring:
            for q in self.ring_neighbor_points(p):
                out.setdefault(q, None)
        out.pop(p, None)
        return list(out)

    def are_neighbors(self, p: Number, q: Number) -> bool:
        """True when ``q`` is in ``p``'s neighbour set (or ``p == q``)."""
        p, q = normalize(p), normalize(q)
        if p == q:
            return True
        return q in set(self.neighbor_points(p))

    def degree(self, point: Number) -> int:
        """Undirected degree of a server (with ring edges if enabled)."""
        return len(self.neighbor_points(point))

    # ----------------------------------------------------- theorem quantities
    def edge_count(self, include_ring: bool = False) -> int:
        """Number of distinct edges of ``G_x`` in the sense of Theorem 2.1.

        An (undirected) edge ``{V_i, V_j}`` exists when some continuous
        edge ``(y, z)`` has ``y ∈ s(x_i)`` and ``z ∈ s(x_j)``; self-loops
        count once.  Theorem 2.1: at most ``3n − 1`` without ring edges
        for ``Δ = 2`` (each insertion creates at most one new left, right
        and backward edge).  This is what makes the *average* degree at
        most 6 for every id vector.
        """
        pairs: set = set()
        for p in self.segments:
            seg = self.segments.segment_of(p)
            for img in self.graph.image_arcs(seg):
                for q in self.segments.covering_points(img):
                    pairs.add((p, q) if p <= q else (q, p))
        if include_ring and self.n > 1:
            for p in self.segments:
                q = self.segments.successor(p)
                pairs.add((p, q) if p <= q else (q, p))
        return len(pairs)

    def typed_edge_count(self) -> int:
        """Directed map-multiplicity edge count ``Σ_U Σ_i |covers(f_i(s(U)))|``.

        A finer diagnostic than :meth:`edge_count`: it equals the sum of
        out-degrees counted per edge map, i.e. the number of routing-table
        entries the network maintains.
        """
        total = 0
        for p in self.segments:
            seg = self.segments.segment_of(p)
            for per_digit in self.graph.image_arcs_by_digit(seg):
                covered: set = set()
                for img in per_digit:
                    covered.update(self.segments.covering(img))
                total += len(covered)
        return total

    def max_out_degree(self) -> int:
        """``max_U |covers(∪_i f_i(s(U)))|`` — Theorem 2.2 bounds it by ρ+4."""
        best = 0
        for p in self.segments:
            best = max(best, len(self.out_neighbor_points(p)))
        return best

    def max_in_degree(self) -> int:
        """``max_V |covers(b(s(V)))|`` — Theorem 2.2 bounds it by ⌈2ρ⌉+1."""
        best = 0
        for p in self.segments:
            best = max(best, len(self.in_neighbor_points(p)))
        return best

    def average_degree(self) -> float:
        """Mean undirected degree; Theorem 2.1 implies ≤ 6 + ring for Δ=2."""
        if self.n == 0:
            return 0.0
        return sum(self.degree(p) for p in self.segments) / self.n

    # ------------------------------------------------------------ data items
    def store_item(self, key: Key, value: Any) -> Server:
        """Place an item on the server covering ``h(key)`` (§2.1).

        The stored record keeps the hashed position so joins can migrate
        items without rehashing.
        """
        pos = self.item_hash(key)
        owner = self.owner_of(pos)
        owner.store[key] = (pos, value)
        return owner

    def get_item(self, key: Key) -> Any:
        """Oracle retrieval (no routing) — used to validate lookup paths."""
        pos = self.item_hash(key)
        owner = self.owner_of(pos)
        rec = owner.store.get(key)
        if rec is None:
            raise KeyError(key)
        return rec[1]

    def item_owner(self, key: Key) -> Server:
        """The server responsible for ``key``'s hash position."""
        return self.owner_of(self.item_hash(key))

    # ------------------------------------------------------------- exports
    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style ``(indptr, indices)`` of the undirected neighbour sets.

        Row ``i`` (servers in sorted id order) holds the sorted indices of
        ``neighbor_points(x_i)`` — forward, backward and (when enabled)
        ring neighbours, self excluded.  This is the routing table the
        batch engine consults for the Distance Halving lookup's
        "covered by a neighbour" test.
        """
        pts = list(self.segments)
        index = {p: i for i, p in enumerate(pts)}
        indptr = np.zeros(len(pts) + 1, dtype=np.int64)
        indices: List[int] = []
        for i, p in enumerate(pts):
            row = sorted(index[q] for q in self.neighbor_points(p))
            indices.extend(row)
            indptr[i + 1] = len(indices)
        return indptr, np.asarray(indices, dtype=np.int64)

    def compile_router(self, with_adjacency: bool = False):
        """Freeze the current decomposition into a vectorised BatchRouter.

        The router is a snapshot: after a join or leave it refuses to
        route (with an actionable error) until recompiled.  Use
        :meth:`router` for a handle that follows churn automatically.
        Pass ``with_adjacency=True`` when you will route with
        :meth:`~repro.core.batch.BatchRouter.batch_dh_lookup` (the fast
        path needs no neighbour table).
        """
        from .batch import BatchRouter

        return BatchRouter(self, build_adjacency=with_adjacency)

    def router(self, auto_refresh: bool = True, with_adjacency: bool = False,
               churn_budget: Optional[int] = None):
        """A BatchRouter handle that survives joins and leaves.

        With ``auto_refresh=True`` (the default) every batch call first
        syncs the router to :attr:`membership_version`: pending ops are
        replayed from the membership log with O(affected-region) patches
        to the sorted point/segment arrays (the adjacency ranges are
        re-derived from them once per refresh), falling back to a full
        recompile only when more than ``churn_budget`` ops are pending
        (default ``max(16, n // 16)``) or the log window was exceeded.  With ``auto_refresh=False``
        this is exactly :meth:`compile_router`.
        """
        from .batch import BatchRouter

        return BatchRouter(self, build_adjacency=with_adjacency,
                           auto_refresh=auto_refresh,
                           churn_budget=churn_budget)

    def to_networkx(self, include_ring: Optional[bool] = None):
        """Undirected NetworkX graph of the current topology."""
        import networkx as nx

        ring = self.with_ring if include_ring is None else include_ring
        g = nx.Graph()
        g.add_nodes_from(self.segments)
        for p in self.segments:
            for q in self.out_neighbor_points(p):
                if p != q:
                    g.add_edge(p, q)
            if ring and self.n > 1:
                g.add_edge(p, self.segments.successor(p))
        return g

    def check_invariants(self) -> None:
        """Structural sanity: segment map is consistent with the server dict."""
        self.segments.check_invariants()
        # the ids are distinct (asserted just above), so equal counts and
        # every id a key make the two sets equal
        assert len(self.servers) == len(self.segments) and all(
            map(self.servers.__contains__, self.segments)
        ), "server/point mismatch"
        for p, srv in self.servers.items():
            if not srv.store:
                continue
            seg = self.segments.segment_of(p)
            for key, (pos, _v) in srv.store.items():
                assert pos in seg, f"item {key!r} at {pos} outside {seg} of {p}"
