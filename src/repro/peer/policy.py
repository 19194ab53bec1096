"""Covering-edge selection policies with bit-parity-proof scalar twins.

Three policies choose among K masked candidates per lane:

* ``uniform``  — the paper's rule: the ⌊u·cnt⌋-th valid candidate;
* ``greedy``   — argmin cost among valid candidates (first-minimum
  tie-break, i.e. scan order = ring-predecessor order);
* ``weighted`` — softmin: weight ``exp(-(cost - min_cost)/temperature)``
  per valid candidate, sampled by inverse CDF from the same uniform.

The batch form :func:`select_rows` and the scalar form
:func:`select_index` are floating-point twins: given the same costs and
the same uniform they pick the same candidate **bit-for-bit**, because
the batch cumulative sums only ever add exact zeros for masked rows and
``cum > x`` first-hit equals ``searchsorted(side="right")``.  When every
cost is equal (e.g. the degenerate all-zero map) the weights are exactly
1.0, the cumulative sums are exact small integers, and ``weighted``
degenerates to ``uniform`` bit-for-bit.
"""

from typing import Optional

import numpy as np

from .. import checks

POLICIES = ("uniform", "greedy", "weighted")


def select_rows(
    costs: Optional[np.ndarray],
    ok: Optional[np.ndarray],
    u: Optional[np.ndarray],
    policy: str,
    temperature: float = 1.0,
) -> np.ndarray:
    """Pick one candidate row per lane from (K, B) masked costs.

    ``costs`` is (K, B) and finite; ``ok`` is its (K, B) validity mask,
    or ``None`` when every candidate is valid (the core walk: all Δ
    digits are candidates).  ``uniform`` reads only the mask, so it
    takes ``costs=None`` beside a mask; the other policies read the
    mask once, into ``masked = where(ok, costs, inf)``, and a row is
    valid where ``masked`` is finite.  ``u`` is the per-lane uniform in
    ``[0, 1)`` (unused by ``greedy``).  Returns int64 row indices of
    shape (B,).
    Lanes with no valid row get an arbitrary index — the caller is
    responsible for masking them out (the FT engine marks them failed).
    ``temperature`` is a real in ``(0, inf]``: at ``inf`` every valid
    weight is ``exp(-0.0) = 1.0``, the uniform pick.
    """
    checks.choice(policy, "policy", POLICIES)
    checks.real(temperature, "temperature", "(0, inf]")
    if policy != "greedy":
        if u is None:
            raise ValueError(f"policy {policy!r} needs per-lane uniforms")
        u = np.asarray(u, dtype=np.float64)
    if policy == "uniform":
        valid = np.ones(np.shape(costs), dtype=bool) if ok is None else ok
        # the first row whose running count reaches pick + 1 is valid;
        # the count never exceeds K, so it is kept in the narrowest
        # dtype that holds K (one byte a cell up to K = 255)
        narrow = np.min_scalar_type(np.shape(valid)[0])
        cum = np.cumsum(valid, axis=0, dtype=narrow)
        cnt = cum[-1].astype(np.int64)
        pick = np.minimum((u * cnt).astype(np.int64), np.maximum(cnt - 1, 0))
        return np.argmax(cum == (pick + 1).astype(narrow), axis=0).astype(
            np.int64)
    costs = np.asarray(costs, dtype=np.float64)
    masked = costs if ok is None else np.where(ok, costs, np.inf)
    if policy == "greedy":
        return np.argmin(masked, axis=0).astype(np.int64)
    valid = masked < np.inf
    lo = masked.min(axis=0)
    lo = np.where(np.isfinite(lo), lo, 0.0)  # all-invalid lanes
    expo = np.where(valid, -(costs - lo[None, :]) / temperature, -np.inf)
    w = np.exp(expo)  # exactly 0.0 on masked rows
    cum = np.cumsum(w, axis=0)
    x = u * cum[-1]
    found = cum > x[None, :]
    sel = np.argmax(found, axis=0)
    last_valid = (valid.shape[0] - 1) - np.argmax(valid[::-1], axis=0)
    sel = np.where(found.any(axis=0), sel, np.maximum(last_valid, 0))
    return sel.astype(np.int64)


def select_index(
    costs: np.ndarray,
    u: Optional[float],
    policy: str,
    temperature: float = 1.0,
) -> int:
    """Scalar twin of :func:`select_rows` over an already-valid vector.

    ``costs`` holds only the valid candidates, in the same scan order as
    the batch rows; returns the index into that vector.  Bit-identical
    to the batch pick for the same costs and uniform, and refuses the
    uniforms the batch engines' ``choices=`` refuse: NaN, ±inf and
    anything outside ``[0, 1)`` raise ``ValueError``.
    """
    checks.choice(policy, "policy", POLICIES)
    checks.real(temperature, "temperature", "(0, inf]")
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
    w = np.exp(-(costs - costs.min()) / temperature)
    cum = np.cumsum(w)
    x = u * cum[-1]
    return min(int(np.searchsorted(cum, x, side="right")), cnt - 1)
