"""Oracles of :mod:`repro.core.walk`: the masked descent, the dense
writer, the dividing level kernels, and the keyed lanes' SplitMix64 in
Python ints."""

import math

import numpy as np

from repro.core.lookup import MAX_WALK_STEPS
from repro.core.segments import fold_unit
from repro.core.walk import LANE_INT


def levels_to_csr(size: int, level_mats) -> tuple:
    """Flatten per-level server matrices into CSR path arrays.

    ``level_mats`` lists ``(levels × size)`` int matrices whose rows are
    in path order for every lookup (column); ``-1`` marks "no server
    recorded at this level".  The result is the vectorized equivalent of
    running :func:`~repro.core.lookup.compress_path` per column: lookup
    ``i``'s compressed server-index path is
    ``path_servers[path_offsets[i]:path_offsets[i + 1]]``.
    """
    offsets = np.zeros(size + 1, dtype=np.int64)
    mats = [m for m in level_mats if m is not None and m.size]
    if not mats or size == 0:
        return np.zeros(0, dtype=np.int32), offsets
    stacked = np.concatenate(mats, axis=0)
    depth = stacked.shape[0]
    flat = stacked.T.ravel()  # lookup-major; rows keep path order inside
    at = np.flatnonzero(flat >= 0)
    vals = flat[at]
    lane = at // depth
    keep = np.ones(vals.size, dtype=bool)
    if vals.size > 1:
        keep[1:] = (vals[1:] != vals[:-1]) | (lane[1:] != lane[:-1])
    np.cumsum(np.bincount(lane[keep], minlength=size), out=offsets[1:])
    return vals[keep].astype(np.int32), offsets


def masked_descent(router, y, off, depth, head_rows):
    """The replaced backward loop on the kernel's arguments."""
    cover = router.cover_index.cover
    tmax = int(depth.max()) if y.size else 0
    back = np.full((tmax, y.size), -1, dtype=np.int64)
    for j in range(tmax - 1, -1, -1):
        scale_j = float(router.delta) ** j
        p = fold_unit((y + np.mod(off, scale_j)) / scale_j)
        live = depth > j
        back[j, live] = cover(p)[live]
    return levels_to_csr(y.size, [np.vstack(head_rows), back[::-1]])


def masked_fast_lookup(router, src, y, max_levels=MAX_WALK_STEPS):
    """The replaced fast lookup: masked forward search, masked descent."""
    delta = router.delta
    ci = router.cover_index.cover(src)
    z = router.midpoints[ci]
    in_own = router._segment_test(ci)
    t = np.zeros(y.size, dtype=np.int64)
    s_final = np.zeros(y.size, dtype=np.float64)
    pending = np.ones(y.size, dtype=bool)
    cap = (max_levels if delta & (delta - 1) == 0
           else min(max_levels, int(52 / math.log2(delta))))
    for level in range(cap + 1):
        scale = float(delta) ** level
        s_level = np.trunc(z * scale) if level else np.zeros(y.size)
        p = fold_unit((y + s_level) / scale) if level else y
        newly = pending & in_own(p)
        t[newly] = level
        s_final[newly] = s_level[newly]
        pending &= ~newly
        if not pending.any():
            break
    else:
        raise RuntimeError("masked_fast_lookup failed to converge")
    servers, offsets = masked_descent(router, y, s_final, t, [ci])
    return {"owner_idx": router.cover_index.cover(y), "source_idx": ci,
            "t": t, "hops": np.diff(offsets) - 1,
            "path_servers": servers, "path_offsets": offsets}


def parent_forward_levels(y, z, delta: int, segment_test,
                          level_cap: int) -> tuple:
    """The replaced ``forward_levels``, verbatim: it divided by the scale."""
    size = y.size
    t = np.zeros(size, dtype=LANE_INT)
    s_final = np.zeros(size, dtype=np.float64)
    lanes = np.arange(size)
    yp, zp, in_own = y, z, segment_test(lanes)
    finished = []  # lanes per level, in the order the levels ran
    retired = 0
    for level in range(level_cap + 1):
        if retired == lanes.size:
            break
        scale = float(delta) ** level
        s_level = np.trunc(zp * scale)
        p = fold_unit((yp + s_level) / scale)
        hit = np.flatnonzero(in_own(p))
        if not hit.size:
            continue
        newly = lanes[hit]
        t[newly] = level
        s_final[newly] = s_level[hit]
        finished.append(newly)
        retired += hit.size
        zp[hit] = np.nan
        if retired < lanes.size <= 2 * retired:
            rest = np.flatnonzero(zp == zp)
            lanes, yp, zp = lanes[rest], yp[rest], zp[rest]
            in_own = segment_test(lanes)
            retired = 0
    if retired < lanes.size:
        raise RuntimeError("forward search failed to converge")
    return t, s_final, np.concatenate(finished[::-1] or [lanes])


def parent_level_points(y, off, scale, delta: int) -> np.ndarray:
    """The replaced ``level_points``, verbatim: two true divisions."""
    if delta & (delta - 1) == 0:
        low = off - scale * np.floor(off / scale)
    else:
        low = (off % np.asarray(scale, dtype=np.int64)).astype(np.float64)
    return fold_unit((y + low) / scale)


def dense_ragged_to_csr(buf, starts, lens=None) -> tuple:
    """The previous writer, kept verbatim as the oracle."""
    first = np.zeros(buf.size, dtype=bool)
    first[starts] = True
    keep = first.copy()
    keep[1:] |= buf[1:] != buf[:-1]
    if lens is not None:
        alloc = np.diff(np.append(starts, buf.size))
        slot = np.arange(buf.size) - np.repeat(starts, alloc)
        keep &= slot < np.repeat(lens, alloc)
    kept = np.flatnonzero(keep)
    return (buf[kept].astype(np.int32, copy=False),
            np.append(np.flatnonzero(first[kept]), kept.size))


def head_to_rows(head, size: int) -> list:
    """The compact head as ``max(head_len)`` rows of ``size`` lanes.

    At least one row, even for no lanes: every lane holds its source.
    ``lane`` may be a slice, as the fast lookup's every-lane head is.
    """
    head_len, lane, slot, server = head
    lane = np.arange(size)[lane]
    rows = np.full((int(np.max(head_len, initial=1)), size), -1,
                   dtype=np.int64)
    rows[np.broadcast_to(slot, lane.shape), lane] = server
    return list(rows)


def rows_to_head(rows) -> tuple:
    """Hole-free per-slot rows as the compact head."""
    stacked = np.vstack(rows)
    held = stacked >= 0
    slot, lane = np.nonzero(held)
    return held.sum(axis=0), lane, slot, stacked[slot, lane]


#: SplitMix64's increment and the 64-bit mask, as the construction states them.
GAMMA = 0x9E3779B97F4A7C15
M64 = (1 << 64) - 1


def splitmix(z: int) -> int:
    """SplitMix64's finaliser in Python ints (Steele, Lea & Flood 2014)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & M64
    return z ^ (z >> 31)


def keyed_word(key: int, lane: int, w: int) -> int:
    """Word ``w`` of lane ``lane``'s stream under ``key``."""
    seed = splitmix((key + (lane + 1) * GAMMA) & M64)
    return splitmix((seed + (w + 1) * GAMMA) & M64)


def keyed_digit(key: int, lane: int, step: int, delta: int) -> int:
    """Digit ``step`` of lane ``lane``: the construction, spelled out."""
    if delta & (delta - 1) == 0:
        bits = delta.bit_length() - 1
        per = 64 // bits
        return keyed_word(key, lane, step // per) >> (step % per) * bits & delta - 1
    per = max(p for p in range(1, 33) if delta ** p <= 1 << 32)
    return keyed_word(key, lane, step // per) // delta ** (step % per) % delta
