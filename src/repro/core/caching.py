"""Dynamic caching — the hot-spot relief protocol of paper §3.

The protocol couples cache trees with the overlay itself: the cache tree
of item ``i`` *is* the path tree rooted at ``h(i)``, whose nodes the
Distance Halving lookup already traverses.  Replication therefore needs
no extra connections and adds no lookup latency ("No Caching Latency").

Protocol (Continuous Hot Spots Protocol, §3.1):

1. every *leaf* of the active tree counts the requests it supplies during
   an epoch; past the threshold ``c`` it replicates the item into its
   children, blocking itself from further hits (deeper entries now stop
   at the children);
2. at the end of an epoch, a parent of leaves deletes both children if
   each supplied fewer than ``c`` requests;
3. step 2 recurses, collapsing the tree when demand fades.

The guarantees validated by experiments E7–E9:

* Observation 3.1 — the active tree never exceeds ``4 q / c`` nodes;
* Lemma 3.3 — depth reaches at most ``log(q/c) + O(1)``;
* Theorem 3.6 / 3.8 — per-server cache hits ``O(log² n)``, per-server
  stored items ``O(log n)``;
* content update — ``O(log n)`` messages/time down the active tree.

Hot-key salting (mitigation mode, selectable in this scalar engine and in
:class:`~repro.core.batch_cache.BatchCacheEngine`): with ``salts = s > 1``
each item is spread over ``s`` deterministic *salt points* — a request
picks the salt from its source position (:func:`salt_indices`), routes to
the tree rooted at ``h(salted_key(item, j))``, and per-item statistics
merge the ``s`` per-salt trees.  The salt choice is a pure function of
the source's float bits, so scalar and batch engines agree bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import checks
from ..hashing.kwise import Key
from .continuous import Digits
from .lookup import LookupResult, compress_path, dh_lookup, ring_point
from .network import DistanceHalvingNetwork
from .pathtree import PathTree

__all__ = ["ActiveTree", "CacheSystem", "CachedLookup", "salt_indices",
           "salted_key"]

#: Fibonacci-hash multiplier (odd, well-mixed high bits) for salt choice.
_SALT_MIX = np.uint64(0x9E3779B97F4A7C15)


def salt_indices(points: np.ndarray, salts: int) -> np.ndarray:
    """Deterministic salt choice per source point, identical scalar/batch.

    Views each normalized float64 source as its raw bit pattern, mixes
    with a Fibonacci-hash multiply, and reduces mod ``salts``.  A pure
    function of the float bits — no RNG — so the scalar engine and the
    batch engine route any given source to the same salt tree.
    """
    salts = checks.count(salts, "salts", 1)
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if salts == 1:
        return np.zeros(pts.shape, dtype=np.int64)
    bits = pts.view(np.uint64)
    mixed = bits * _SALT_MIX  # uint64 wrap-around multiply
    mixed = mixed ^ (mixed >> np.uint64(29))
    return (mixed % np.uint64(salts)).astype(np.int64)


def salted_key(item: Key, salt: int) -> str:
    """Routing key of one salt copy of ``item``.

    Uses ``repr`` so distinct key types cannot collide (``1`` vs ``"1"``)
    and feeds the network's :class:`~repro.hashing.kwise.PointHasher`
    like any other string key.
    """
    return f"{item!r}#salt{checks.count(salt, 'salt')}"


class ActiveTree:
    """The active (replicated) subtree of one item's path tree.

    Node addresses are digit tuples; the root ``()`` — the item's owner —
    is always active.  The active set is prefix-closed by construction.
    """

    def __init__(self, tree: PathTree, threshold: int):
        self.tree = tree
        self.c = checks.count(threshold, "threshold", 1)
        self.active: Set[Digits] = {()}
        self.served: Counter = Counter()          # requests supplied this epoch
        self.supplied_prev: Counter = Counter()   # last epoch's counts (for step 2)
        self.replications: int = 0                # total child activations (copies made)

    # ------------------------------------------------------------- structure
    def is_leaf(self, addr: Digits) -> bool:
        """Active node none of whose children is active."""
        return addr in self.active and not any(
            ch in self.active for ch in self.tree.children(addr)
        )

    def size(self) -> int:
        """Number of active nodes (Observation 3.1 bounds it by ``4q/c``)."""
        return len(self.active)

    def serving_node(self, tau: Sequence[int]) -> Digits:
        """Deepest active prefix of ``tau`` — where an entering request stops.

        Phase II visits ``τ[:t], τ[:t-1], …, ()`` in order; the first
        *active* node on that ascent serves the request.
        """
        t = tuple(tau)
        for j in range(len(t), -1, -1):
            if t[:j] in self.active:
                return t[:j]
        raise AssertionError("root is always active")  # pragma: no cover

    # -------------------------------------------------------------- protocol
    def serve(self, tau: Sequence[int]) -> Tuple[Digits, bool]:
        """Serve one request entering via digits ``tau``; maybe replicate.

        Returns ``(serving node, replicated?)``.  Step 1 of the protocol:
        when a leaf's counter exceeds ``c`` it activates its children (the
        item is copied into them; subsequent deep entries stop there).
        """
        node = self.serving_node(tau)
        self.served[node] += 1
        replicated = False
        if self.served[node] > self.c and self.is_leaf(node):
            for ch in self.tree.children(node):
                self.active.add(ch)
                self.replications += 1
            replicated = True
        return node, replicated

    def advance_epoch(self) -> int:
        """End the epoch: collapse unused fringe (steps 2–3); reset counters.

        A parent whose children are all leaves deletes them when every
        child supplied fewer than ``c`` requests; the deletion recurses
        within the same epoch.  Returns the number of deactivated nodes.

        Order-independence audit (step-2 recursion): every collapse
        decision reads only the *ended* epoch's ``served`` counters,
        which this pass never mutates — collapsing a sibling group can
        only turn its parent into a leaf, i.e. *enable* further
        collapses, never disable one.  The while-changed sweep therefore
        reaches a unique fixpoint regardless of scan order, and the
        counters are handed to ``supplied_prev`` only after the sweep
        finishes.  Pinned by ``TestAdvanceEpochOrderIndependence``.
        """
        removed = 0
        changed = True
        while changed:
            changed = False
            # scan deepest-first so collapses cascade in one epoch
            for addr in sorted(self.active, key=len, reverse=True):
                if addr == () or addr not in self.active:
                    continue
                parent = addr[:-1]
                siblings = self.tree.children(parent)
                if not all(s in self.active and self.is_leaf(s) for s in siblings):
                    continue
                if all(self.served[s] < self.c for s in siblings):
                    for s in siblings:
                        self.active.discard(s)
                        removed += 1
                    changed = True
        self.supplied_prev = self.served
        self.served = Counter()
        return removed

    # ----------------------------------------------------------------- stats


@dataclass
class CachedLookup:
    """Result of a cached request: the routed path plus cache accounting."""

    item: Key
    lookup: LookupResult
    serving_node: Digits
    serving_server: float
    entry_depth: int
    server_path: List[float] = field(default_factory=list)

    @property
    def hops(self) -> int:
        return max(0, len(self.server_path) - 1)


class CacheSystem:
    """Network-wide cache coordinator: one :class:`ActiveTree` per hot item.

    ``threshold`` is the paper's ``c`` — "typically in the order of
    log n" (§3.1).  Requests are routed with the standard Distance
    Halving lookup; the phase-II ascent stops at the deepest active node,
    which supplies the item.

    ``salts > 1`` turns on the hot-key mitigation mode: each request
    routes to one of ``salts`` deterministic salt trees of its item
    (chosen from the source position by :func:`salt_indices`), spreading
    a single hotspot's load over ``salts`` independent tree roots.
    """

    def __init__(self, net: DistanceHalvingNetwork, threshold: Optional[int] = None,
                 salts: int = 1):
        self.salts = checks.count(salts, "salts", 1)
        self.c = (checks.count(threshold, "threshold", 1)
                  if threshold is not None
                  else int(np.ceil(np.log2(max(2, net.n)))))
        self.net = net
        self.trees: Dict[Key, ActiveTree] = {}
        # per-server counters for the §3 guarantees
        self.cache_hits: Counter = Counter()       # requests supplied per server
        self.messages: Counter = Counter()         # routed + cache messages per server
        self.requests_served: int = 0

    def tree_for(self, item: Key) -> ActiveTree:
        if item not in self.trees:
            root = self.net.item_hash(item)
            self.trees[item] = ActiveTree(PathTree(root, self.net.graph), self.c)
        return self.trees[item]

    def route_key(self, item: Key, source_point: float) -> Key:
        """The key a request actually routes to (its salt copy, if salted)."""
        src = ring_point(source_point, "source_point")
        if self.salts == 1:
            return item
        salt = int(salt_indices(np.asarray([src]), self.salts)[0])
        return salted_key(item, salt)

    # -------------------------------------------------------------- requests
    def request(
        self,
        item: Key,
        source_point: float,
        rng: np.random.Generator,
        tau: Optional[Sequence[int]] = None,
    ) -> CachedLookup:
        """Route one request for ``item`` from ``source_point``.

        Runs the Distance Halving lookup toward ``h(item)``; the message
        stops at the deepest active cache node on its phase-II branch.
        All servers the message visits get their message counters bumped;
        the serving server gets a cache hit.  In salted mode the request
        routes toward its salt copy's root instead of ``h(item)``.
        """
        routed = self.route_key(item, source_point)
        target = self.net.item_hash(routed)
        res = dh_lookup(self.net, source_point, target, rng, tau=tau)
        tree = self.tree_for(routed)
        digits = res.phase2_digits
        node, replicated = tree.serve(digits)
        cover = self.net.segments.cover_point
        if replicated:
            # item copied to the Δ children: one message per covering server.
            for ch in tree.tree.children(node):
                self.messages[cover(tree.tree.position(ch))] += 1

        serving_server = cover(tree.tree.position(node))

        # The message's trajectory is the lookup's, cut where the cache
        # answered: phase II stops at depth |node| instead of 0.
        trajectory = res.continuous_path[: len(res.continuous_path) - len(node)]
        path = compress_path([cover(p) for p in trajectory])

        for s in path:
            self.messages[s] += 1
        self.cache_hits[serving_server] += 1
        self.requests_served += 1
        return CachedLookup(
            item=item,
            lookup=res,
            serving_node=node,
            serving_server=serving_server,
            entry_depth=len(digits),
            server_path=path,
        )

    # ---------------------------------------------------------------- epochs
    def advance_epoch(self) -> int:
        """End-of-epoch collapse across all items; returns nodes removed."""
        return sum(tree.advance_epoch() for tree in self.trees.values())

    # ----------------------------------------------------------------- stats
    def items_cached_at(self, server_point: float) -> int:
        """Distinct items with an active copy on this server (Thm 3.8 (i))."""
        seg = self.net.segments.segment_of(server_point)
        count = 0
        for tree in self.trees.values():
            if any(tree.tree.position(a) in seg for a in tree.active):
                count += 1
        return count

    def max_items_cached(self) -> int:
        """Max over servers of distinct cached items."""
        return max(
            (self.items_cached_at(p) for p in self.net.segments), default=0
        )

    def total_copies(self) -> int:
        """Total active nodes beyond the roots (extra copies in the network)."""
        return sum(t.size() - 1 for t in self.trees.values())

    def summary(self) -> Dict[str, float]:
        n = self.net.n
        return {
            "requests": float(self.requests_served),
            "threshold_c": float(self.c),
            "max_cache_hits": float(max(self.cache_hits.values(), default=0)),
            "max_messages": float(max(self.messages.values(), default=0)),
            "max_items_cached": float(self.max_items_cached()),
            "total_copies": float(self.total_copies()),
            "trees": float(len(self.trees)),
            "n": float(n),
        }
