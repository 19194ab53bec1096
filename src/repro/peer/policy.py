"""Covering-edge selection policies with bit-parity-proof scalar twins.

Three policies choose among K masked candidates per lane:

* ``uniform``  — the paper's rule: the ⌊u·cnt⌋-th valid candidate;
* ``greedy``   — argmin cost among valid candidates (first-minimum
  tie-break, i.e. scan order = ring-predecessor order);
* ``weighted`` — softmin: weight ``exp(-(cost - min_cost))`` per valid
  candidate, sampled by inverse CDF from the same uniform.

The batch form :func:`select_rows` and the scalar form
:func:`select_index` are floating-point twins: given the same costs and
the same uniform they pick the same candidate **bit-for-bit**, because
the batch cumulative sums only ever add exact zeros for masked rows and
the count of rows with ``cum <= x`` is ``searchsorted(side="right")``.
When every cost is equal (e.g. the degenerate all-zero map) the weights
are exactly 1.0, the cumulative sums are exact small integers, and
``weighted`` degenerates to ``uniform`` bit-for-bit.
"""

from typing import Optional

import numpy as np

from .. import checks
from ..core.walk import count_rows, first_rows, uniform_lanes

POLICIES = ("uniform", "greedy", "weighted")


def select_rows(
    costs: Optional[np.ndarray],
    ok: Optional[np.ndarray],
    u: Optional[np.ndarray],
    policy: str,
) -> np.ndarray:
    """Pick one candidate row per lane from (K, B) masked costs.

    ``costs`` is (K, B) and finite; ``ok`` is its (K, B) validity mask.
    ``uniform`` reads only the mask, so it takes ``costs=None`` and
    needs ``ok``; the cost policies read ``ok=None`` as every candidate
    valid (the core walk: all Δ digits are candidates) and otherwise
    read the mask once, into ``masked = where(ok, costs, inf)``.  ``u``
    is the per-lane uniform in ``[0, 1)`` (unused by ``greedy``); a ``u``
    outside it, NaN included, is refused as the engines' ``choices=``
    are.
    Returns int64 row indices of shape (B,).
    Lanes with no valid row get an arbitrary index — the caller is
    responsible for masking them out (the FT engine marks them failed).

    Every pass runs over whole rows, K NumPy calls a step at most:
    ``argmin`` / ``argmax`` / ``cumsum`` along axis 0 of a C-ordered
    matrix cost one inner loop per lane.  Running sums and counts never
    decrease, so a first row whose running value passes a lane's
    threshold is the count of rows that do not.
    """
    checks.choice(policy, "policy", POLICIES)
    if ok is not None:
        ok = np.asarray(ok, dtype=bool)
    if policy != "greedy":
        if u is None:
            raise ValueError(f"policy {policy!r} needs per-lane uniforms")
        u = uniform_lanes(np.asarray(u, dtype=np.float64), "u")
    if policy == "uniform":
        if ok is None:
            raise ValueError("policy 'uniform' picks among the valid rows, "
                             "so it needs the mask ok")
        k = len(ok)
        # running valid counts, in the narrowest dtype that holds K (one
        # byte a cell up to K = 255); the pick is the first row whose
        # count passes ⌊u·cnt⌋
        cum = ok.astype(np.min_scalar_type(k))
        for r in range(1, k):
            cum[r] += cum[r - 1]
        cnt = cum[-1].astype(np.int64)
        pick = np.minimum((u * cnt).astype(np.int64), np.maximum(cnt - 1, 0))
        sel = count_rows(cum <= pick.astype(cum.dtype))
        sel[cnt == 0] = 0
        return sel.astype(np.int64)
    costs = np.asarray(costs, dtype=np.float64)
    masked = costs if ok is None else np.where(ok, costs, np.inf)
    if policy == "greedy":
        # the first minimum: a later row takes a lane only when it is
        # strictly below the running minimum, and rows come in order, so
        # the running pick is the maximum of the rows that did
        narrow = np.min_scalar_type(len(masked))
        best, sel = masked[0], np.zeros(masked.shape[1], dtype=narrow)
        for r in range(1, len(masked)):
            np.maximum(sel, (masked[r] < best) * narrow.type(r), out=sel)
            if r + 1 < len(masked):
                best = np.minimum(best, masked[r])
        return sel.astype(np.int64)
    lo = masked.min(axis=0)
    lo = np.where(np.isfinite(lo), lo, 0.0)  # all-invalid lanes
    w = -(costs - lo[None, :])
    if ok is not None:
        w[~ok] = -np.inf
    np.exp(w, out=w)  # exactly 0.0 on masked rows
    for r in range(1, len(w)):  # the running sum, as cumsum adds it
        w[r] += w[r - 1]
    sel = count_rows(w <= u * w[-1])
    # no running sum passes u·total only where the total is 0 (for
    # u < 1, u·total rounds below every positive total): the last valid row
    need = np.flatnonzero(sel == len(w))
    if need.size:
        sel[need] = len(w) - 1 - (0 if ok is None
                                  else first_rows(ok[::-1, need]))
    return sel.astype(np.int64)


def select_index(
    costs: np.ndarray,
    u: Optional[float],
    policy: str,
) -> int:
    """Scalar twin of :func:`select_rows` over an already-valid vector.

    ``costs`` holds only the valid candidates, in the same scan order as
    the batch rows; returns the index into that vector.  Bit-identical
    to the batch pick for the same costs and uniform, and refuses the
    uniforms the batch engines' ``choices=`` refuse: NaN, ±inf and
    anything outside ``[0, 1)`` raise ``ValueError``.
    """
    checks.choice(policy, "policy", POLICIES)
    if u is not None:
        checks.real(u, "u", "[0, 1)")
    costs = np.asarray(costs, dtype=np.float64)
    cnt = int(costs.size)
    if cnt == 0:
        raise ValueError("select_index needs at least one candidate")
    if policy == "greedy":
        return int(np.argmin(costs))
    if u is None:
        raise ValueError(f"policy {policy!r} needs a uniform")
    if policy == "uniform":
        return min(int(u * cnt), cnt - 1)
    w = np.exp(-(costs - costs.min()))
    cum = np.cumsum(w)
    x = u * cum[-1]
    return min(int(np.searchsorted(cum, x, side="right")), cnt - 1)
