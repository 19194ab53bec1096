"""Baseline lookup schemes for the Table 1 comparison."""

from .base import (
    BaselineBatchResult,
    BaselineBatchRouter,
    BaselineDHT,
    MeasuredRow,
    measure_scheme_batch,
)
from .can import CanBatchRouter, CanNetwork
from .chord import ChordBatchRouter, ChordNetwork
from .dh_adapter import DistanceHalvingAdapter, DistanceHalvingBatchRouter
from .kleinberg import KleinbergBatchRouter, KleinbergRing
from .koorde import KoordeBatchRouter, KoordeNetwork
from .tapestry import TapestryBatchRouter, TapestryNetwork
from .viceroy import ViceroyBatchRouter, ViceroyNetwork

__all__ = [
    "BaselineBatchResult",
    "BaselineBatchRouter",
    "BaselineDHT",
    "CanBatchRouter",
    "CanNetwork",
    "ChordBatchRouter",
    "ChordNetwork",
    "DistanceHalvingAdapter",
    "DistanceHalvingBatchRouter",
    "KleinbergBatchRouter",
    "KleinbergRing",
    "KoordeBatchRouter",
    "KoordeNetwork",
    "MeasuredRow",
    "TapestryBatchRouter",
    "TapestryNetwork",
    "ViceroyBatchRouter",
    "ViceroyNetwork",
    "measure_scheme_batch",
]
