"""Id load-balancing algorithms (paper §4 and §5.3).

Strategies keep the decomposition smoothness ρ small; the bucket balancer
additionally survives deletions.
"""

from .buckets import Bucket, BucketBalancer
from .strategies import (
    ImprovedSingleChoice,
    MultipleChoice,
    SingleChoice,
    estimate_log_n,
)
from .two_dim import (
    TwoDimMultipleChoice,
    coarse_grid_side,
    fine_grid_side,
    is_smooth_2d,
)

__all__ = [
    "Bucket",
    "BucketBalancer",
    "ImprovedSingleChoice",
    "MultipleChoice",
    "SingleChoice",
    "TwoDimMultipleChoice",
    "coarse_grid_side",
    "estimate_log_n",
    "fine_grid_side",
    "is_smooth_2d",
]
