"""Core library: the paper's primary contribution (§2–§3).

The Distance Halving DHT — continuous graph, dynamic discretization,
lookup algorithms, and the coupled dynamic-caching protocol.
"""

from .batch import BatchLookupResult, BatchRouter
from .batch_cache import (
    BatchCacheEngine,
    BatchCacheResult,
    decode_node_key,
)
from .caching import ActiveTree, CachedLookup, CacheSystem, salt_indices, salted_key
from .continuous import ContinuousGraph, binary_digits, digits_to_point
from .debruijn import (
    bit_reversal,
    distance_halving_is_debruijn,
    equally_spaced_network,
)
from .interval import (
    Arc,
    linear_distance,
    normalize,
)
from .lookup import (
    MAX_WALK_STEPS,
    LookupResult,
    compress_path,
    dh_lookup,
    fast_lookup,
    lookup_many,
)
from .network import DistanceHalvingNetwork
from .node import Server
from .pathtree import PathTree
from .routing_stats import BatchCongestion, CongestionCounter
from .segments import SegmentMap

__all__ = [
    "ActiveTree",
    "Arc",
    "BatchCacheEngine",
    "BatchCacheResult",
    "BatchCongestion",
    "BatchLookupResult",
    "BatchRouter",
    "CacheSystem",
    "CachedLookup",
    "CongestionCounter",
    "ContinuousGraph",
    "DistanceHalvingNetwork",
    "LookupResult",
    "MAX_WALK_STEPS",
    "PathTree",
    "SegmentMap",
    "Server",
    "binary_digits",
    "bit_reversal",
    "compress_path",
    "decode_node_key",
    "dh_lookup",
    "digits_to_point",
    "distance_halving_is_debruijn",
    "equally_spaced_network",
    "fast_lookup",
    "linear_distance",
    "lookup_many",
    "normalize",
    "salt_indices",
    "salted_key",
]
