"""Statistics helpers shared by the experiment harness.

Small, dependency-light utilities: robust summaries of sample vectors and
log–log slope fitting, used to compare measured scaling exponents with
the paper's asymptotic claims (e.g. path length ~ log n, CAN ~ n^{1/d}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["summarize", "loglog_slope", "log_slope", "Summary"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    p50: float
    p95: float
    max: float


def summarize(samples: Iterable[float]) -> Summary:
    """Summary statistics of a sample vector."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        return Summary(0, float("nan"), float("nan"), float("nan"), float("nan"), float("nan"))
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        max=float(arr.max()),
    )


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x.

    Used to recover polynomial scaling exponents: CAN's path length is
    ``Θ(n^{1/d})`` so the fitted slope over n should be ≈ 1/d.
    """
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(x, y, 1)[0])


def log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of y against log2 x.

    Logarithmic-growth check: path length ≈ c·log2 n gives slope ≈ c.
    """
    x = np.log2(np.asarray(xs, dtype=float))
    y = np.asarray(ys, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    return float(np.polyfit(x, y, 1)[0])
