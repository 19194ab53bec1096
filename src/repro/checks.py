"""One refusal vocabulary for the numeric inputs of every public entry point.

The paper's inputs have exact types: ids are ring points, Δ, the cache
threshold ``c``, the probe multiplier ``t`` and the independence ``k``
are integers, and shares are probabilities.  Entry points check them
with the rules below, once per call (a batch is one call, never a lane
or a hop), and every refusal is a ``ValueError`` of one shape::

    "{what} must be {rule}, got {value!r}"

The numeric rules refuse bool and truncate nothing: ``2.5`` is not the
count 2 and ``True`` is not 1.  This module imports only the
standard library and NumPy, so every layer may call it.  The inputs the
public surface takes on purpose (ring points fold, ``temperature=inf``
is the uniform pick) are listed with their reasons in the ``ACCEPTS``
table of ``tests/core/test_input_sweep.py``; docs/ARCHITECTURE.md
"Input checks" states the contract.
"""

import math
import numbers

import numpy as np

__all__ = ["choice", "count", "finite", "real"]


def _number(value, common: type, kind: type) -> bool:
    """``value`` is a ``kind`` number and no bool (``common`` skips the ABC)."""
    return type(value) is common or (not isinstance(value, bool)
                                     and isinstance(value, kind))


def count(value, what: str, lo: int = 0, hi=None) -> int:
    """``value`` as an int in ``[lo, hi)``; NumPy integers pass."""
    if (not _number(value, int, numbers.Integral)
            or value < lo or (hi is not None and value >= hi)):
        rule = f"an int >= {lo}" if hi is None else f"an int in [{lo}, {hi})"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return int(value)


def real(value, what: str, interval: str = "[0, inf)"):
    """``value`` unchanged if it is a real in ``interval``, e.g. ``"(0, 1]"``.

    The interval reads as the message quotes it; ``inf`` may be a bound.
    """
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    if (not _number(value, float, numbers.Real)
            or not (lo < value if interval[0] == "(" else lo <= value)
            or not (value < hi if interval[-1] == ")" else value <= hi)):
        raise ValueError(f"{what} must be a real in {interval}, got {value!r}")
    return value


def finite(values, what: str):
    """``values`` unchanged if every entry is a finite real.

    A ring point that is NaN or infinite has no cover.  A scalar is
    named ``what``, an array by its first bad lane, ``what[lane]``.
    """
    if not isinstance(values, np.ndarray) or values.ndim == 0:
        if not (_number(values, float, numbers.Real) and math.isfinite(values)):
            raise ValueError(f"{what} must be a finite real, got {values!r}")
        return values
    bad = ~np.isfinite(values)
    if bad.any():
        lane = int(np.argmax(bad))
        raise ValueError(f"{what}[{lane}] must be a finite real, "
                         f"got {float(values[lane])!r}")
    return values


def choice(value, what: str, options: tuple):
    """``value`` unchanged if it is one of ``options``."""
    if value not in options:
        raise ValueError(f"{what} must be one of {options!r}, got {value!r}")
    return value
