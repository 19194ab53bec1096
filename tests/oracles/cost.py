"""Oracles of :mod:`repro.peer`: the ISP accountants, ``select_rows``."""

from typing import Optional

import numpy as np

from repro import checks
from repro.peer.policy import POLICIES


def _parent_pair_costs(isp_a, isp_b, xa, ya, xb, yb, isp_cost: np.ndarray):
    dx = xa - xb
    dy = ya - yb
    return isp_cost[isp_a, isp_b] + np.sqrt(dx * dx + dy * dy)


def _parent_edge_costs(oracle, i_idx, j_idx):
    i_idx = np.asarray(i_idx)
    j_idx = np.asarray(j_idx)
    return _parent_pair_costs(
        oracle.isp[i_idx], oracle.isp[j_idx],
        oracle.x[i_idx], oracle.y[i_idx],
        oracle.x[j_idx], oracle.y[j_idx],
        oracle.cost_map.isp_cost,
    )


def _parent_csr_transitions(path_servers, path_offsets):
    rows = np.repeat(
        np.arange(path_offsets.size - 1), np.diff(path_offsets)
    )
    same = rows[:-1] == rows[1:] if rows.size else np.zeros(0, dtype=bool)
    return path_servers[:-1][same], path_servers[1:][same], rows[:-1][same]


def _parent_cross_isp_counts(isp_labels, path_servers, path_offsets):
    frm, to, row = _parent_csr_transitions(path_servers, path_offsets)
    cross = isp_labels[frm] != isp_labels[to]
    return np.bincount(row[cross], minlength=path_offsets.size - 1)


def _parent_path_cost_totals(oracle, path_servers, path_offsets):
    frm, to, row = _parent_csr_transitions(path_servers, path_offsets)
    costs = _parent_edge_costs(oracle, frm, to)
    return np.bincount(
        row, weights=costs, minlength=path_offsets.size - 1
    )


def _parent_select_rows(costs, ok, u, policy, temperature=1.0):
    costs = np.asarray(costs, dtype=np.float64)
    ok = np.asarray(ok, dtype=bool)
    if policy == "greedy":
        return np.argmin(np.where(ok, costs, np.inf), axis=0).astype(np.int64)
    u = np.asarray(u, dtype=np.float64)
    cnt = ok.sum(axis=0)
    if policy == "uniform":
        pick = np.minimum((u * cnt).astype(np.int64), np.maximum(cnt - 1, 0))
        hit = ok & (np.cumsum(ok, axis=0) == pick + 1)
        return np.argmax(hit, axis=0).astype(np.int64)
    lo = np.where(ok, costs, np.inf).min(axis=0)
    lo = np.where(np.isfinite(lo), lo, 0.0)  # all-invalid lanes
    expo = np.where(ok, -(costs - lo[None, :]) / temperature, -np.inf)
    w = np.exp(expo)  # exactly 0.0 on masked rows
    cum = np.cumsum(w, axis=0)
    x = u * cum[-1]
    found = cum > x[None, :]
    sel = np.argmax(found, axis=0)
    last_valid = (ok.shape[0] - 1) - np.argmax(ok[::-1], axis=0)
    sel = np.where(found.any(axis=0), sel, np.maximum(last_valid, 0))
    return sel.astype(np.int64)


def _axis_select_rows(
    costs: Optional[np.ndarray],
    ok: Optional[np.ndarray],
    u: Optional[np.ndarray],
    policy: str,
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
    """
    checks.choice(policy, "policy", POLICIES)
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
    expo = np.where(valid, -(costs - lo[None, :]), -np.inf)
    w = np.exp(expo)  # exactly 0.0 on masked rows
    cum = np.cumsum(w, axis=0)
    x = u * cum[-1]
    found = cum > x[None, :]
    sel = np.argmax(found, axis=0)
    last_valid = (valid.shape[0] - 1) - np.argmax(valid[::-1], axis=0)
    sel = np.where(found.any(axis=0), sel, np.maximum(last_valid, 0))
    return sel.astype(np.int64)
