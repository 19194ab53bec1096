"""What every batch engine shares: one walk, one CSR writer, one result contract.

The paper derives the lookup (§2.2), the cache's path tree (§3) and the
fault-tolerant canonical path (§6.3) from *one* continuous walk
``w(σ, y)`` read through a cover map.  This module is the single home
of that walk's vectorized pieces — entry checks, the forward search,
the closed-form level point, the backward descent and its replay, the
CSR writer and the result base — so the engines (:mod:`~repro.core.batch`,
:mod:`~repro.core.batch_cache`, :mod:`~repro.faults.batch_ft`,
:mod:`~repro.baselines.base`) differ only in their policy: which cover,
which member of a cover set, where a cached copy stops the walk.

Every float operation keeps the order of the scalar engines', so
whatever is built from these pieces stays bit-identical to its oracle.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import checks
from .segments import fold_unit, normalize_array

__all__ = ["PathResult", "descend", "forward_levels",
           "integral_array", "level_points", "normalize_pair",
           "normalize_points", "per_lane_matrix", "ragged_to_csr", "replay"]


# ---------------------------------------------------------------- entry checks
#: The path-recording modes every batch lookup takes (``True`` and
#: ``"csr"`` are synonyms).
KEEP_PATHS = (False, True, "csr")


def normalize_points(values, size: Optional[int] = None,
                     what: str = "targets") -> np.ndarray:
    """:func:`~repro.core.segments.normalize_array` with scalar broadcast.

    Scalars broadcast to ``size`` when given; arrays are flattened.
    Non-finite values raise ``ValueError`` naming ``what`` and the first
    offending lane (they have no cover).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(size if size is not None else 1, float(arr))
    return normalize_array(checks.finite(arr.ravel(), what))


def normalize_pair(sources, targets) -> tuple:
    """Normalized ``(sources, targets)`` of one common length.

    The entry preamble of every batch lookup: a scalar on either side
    broadcasts to the other side's length, both sides are checked finite
    and folded into ``[0, 1)``, and two arrays must agree in length.
    """
    src = np.asarray(sources, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    y = normalize_points(y, size=src.size)
    src = normalize_points(src, size=y.size, what="sources")
    if src.size != y.size:
        raise ValueError("sources and targets must have the same length")
    return src, y


def integral_array(values, what: str) -> np.ndarray:
    """``values`` as ``int64``, refusing what the cast would truncate.

    Integer and bool arrays of any width pass, and so do integer-valued
    floats (``1.0``); a fractional or non-finite entry raises
    ``ValueError`` naming ``what`` — digit ``0.5`` is not digit ``0``.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iub":
        return arr.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        as_int = arr.astype(np.int64)
    if (as_int != arr).any():
        raise ValueError(f"{what} must be integers")
    return as_int


def per_lane_matrix(values, size: int, dtype, what: str) -> np.ndarray:
    """``values`` as a ``(size, L)`` matrix, one row per lane.

    The shape rule of every per-step input (``tau`` digit strings,
    ``choices`` uniforms): a 1-D row is shared by all lanes, a 2-D
    matrix must bring exactly one row per lane, and any other rank is
    refused.  An integer ``dtype`` means digits, which must be integral
    (:func:`integral_array`); integer digits keep the width they came
    in — a ``uint8`` string stays one byte a digit, since every reader
    casts a digit to ``float64`` or adds it to an ``int64`` key — and
    only floats, bools and ``uint64`` (which does not mix with
    ``int64``) become ``dtype``.  A float ``dtype`` means uniforms,
    which must be finite and in ``[0, 1)``.  Every refusal is a
    ``ValueError`` naming ``what``, and for a bad uniform its lane.
    """
    mat = np.asarray(values)
    if np.issubdtype(dtype, np.integer):
        if mat.dtype.kind not in "iu" or mat.dtype == np.uint64:
            mat = integral_array(mat, f"{what} digits").astype(dtype, copy=False)
    else:
        mat = mat.astype(dtype, copy=False)
    if mat.ndim not in (1, 2):
        raise ValueError(
            f"{what} must be one row (1-d) or one row per lookup (2-d); "
            f"got a {mat.ndim}-d array")
    if mat.dtype.kind == "f" and mat.size and not (
            mat.min() >= 0.0 and mat.max() < 1.0):  # NaN fails both
        bad = ~((mat >= 0.0) & (mat < 1.0))
        at = np.unravel_index(int(np.argmax(bad)), mat.shape)
        lane = int(at[0]) if mat.ndim == 2 else 0
        raise ValueError(
            f"{what}: lane {lane} holds {float(mat[at])!r}; uniforms must "
            "be finite and in [0, 1)")
    if mat.ndim == 1:
        mat = np.broadcast_to(mat, (size, mat.size))
    if mat.shape[0] != size:
        raise ValueError(f"{what} must have one row per lookup")
    return mat


# --------------------------------------------------------------------- kernels
def forward_levels(y, z, delta: int, segment_test, level_cap: int) -> tuple:
    """Smallest ``t`` with ``w(σ(z)_t, y)`` inside the source's segment.

    The forward search of the fast lookup (§2.2.1) and of the canonical
    path (§6.3), which differ only in what "the source's segment" is:
    ``segment_test(lanes)`` returns the membership test ``p -> bool``
    for the lanes it is given, with whatever bounds it needs gathered
    once.  ``z`` is each lane's walk origin (consumed: a lane that finds
    its level retires with ``z = NaN``, so its later walk points fail
    every comparison), and once half the carried lanes have retired the
    rest are compacted — the work follows ``Σ t_i``, not
    ``size · max t``.

    Returns ``(t, s_final, order)``: the level, ``⌊z·Δ^t⌋`` at that
    level, and the lanes by ``t`` descending (the levels ran shallow to
    deep, so reversed they are the order :func:`descend` walks prefixes
    of).  Raises ``RuntimeError`` when a lane is still searching past
    ``level_cap``.
    """
    size = y.size
    t = np.zeros(size, dtype=np.int64)
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


def level_points(y, off, scale, delta: int) -> np.ndarray:
    """Walk points ``(y + off mod scale) / scale`` for ``scale = Δ^j``.

    The one closed form every level of every walk evaluates; ``scale``
    is a float, one for the call or one per lane.  ``off`` holds
    integer-valued floats for power-of-two ``Δ`` — the scale then only
    shifts exponents, so the low digits come out exact at any depth
    (offsets pass ``2^63`` on segments shorter than ``2^-63``) — and
    ``int64`` otherwise, which the callers' level caps keep below
    ``2^53``.
    """
    if delta & (delta - 1) == 0:
        low = off - scale * np.floor(off / scale)
    else:
        low = (off % np.asarray(scale, dtype=np.int64)).astype(np.float64)
    return fold_unit((y + low) / scale)


def descend(y, off, depth, order, head, delta: int, cover) -> tuple:
    """Backward descent ``w(σ[:j], y)``, ``j = depth_i − 1 … 0``, as CSR.

    The kernel under every walk whose levels are still uncovered: the
    fast lookup's, and the test oracles'.  A dh walk's phase I has
    covered all of them, so it hands them to :func:`replay`.  Lane
    ``i``'s raw path is its head, then ``cover((y_i + off_i mod Δ^j) /
    Δ^j)`` for ``j`` descending.  The head comes compact, as ``(head_len, lane, slot,
    server)``: lane ``i`` holds ``head_len[i]`` head entries (an int
    serves every lane), and entry ``k`` of the three aligned arrays
    puts ``server[k]`` in slot ``slot[k]`` of lane ``lane[k]`` (a
    scalar ``slot`` serves every entry).  Every slot below a lane's
    ``head_len`` is given exactly once, so the head is hole-free and
    lands with one scatter.  A fast lookup's head is its source column
    as one slot; a dh lookup's is the source plus the servers phase I
    moved each lane to, step by step.  ``off`` holds integer-valued
    floats, ``order`` lists the lanes by ``depth`` descending: the
    lanes live at level ``j`` are then a prefix of the sorted arrays —
    no mask — and each level's covers are scattered to their final
    slot of a lane-major ragged buffer, which :func:`ragged_to_csr`
    compresses into ``(path_servers, path_offsets)`` — almost always
    by handing the buffer itself through, since consecutive covers
    rarely repeat.  A path's last entry is ``cover(y_i)``: the
    ``j = 0`` point is ``y_i``.
    """
    buf, starts, ends = _head_buffer(depth, head)
    ys, offs, deep = y[order], off[order], depth[order]
    level0 = ends[order] - 1  # slot of each lane's last (j = 0) cover
    tmax = int(deep[0]) if deep.size else 0
    live = np.searchsorted(-deep, -np.arange(tmax))  # lanes deeper than j
    if delta & (delta - 1):
        offs = offs.astype(np.int64)
    for j in range(tmax - 1, -1, -1):
        o = offs[:live[j]]
        p = level_points(ys[:o.size], o, float(delta) ** j, delta)
        buf.put(level0[:o.size] - j, cover(p))
    return ragged_to_csr(buf, starts)


def replay(depth, head, levels) -> tuple:
    """:func:`descend`'s CSR from covers a walk has already taken.

    ``levels[j]`` is ``(lanes, servers)``, level ``j``'s covers for
    exactly the lanes with ``depth > j``: each lands in the slot
    :func:`descend` writes at level ``j``, after the same head.
    """
    buf, starts, ends = _head_buffer(depth, head)
    last = ends - 1
    for j, (lanes, servers) in enumerate(levels):
        buf[last[lanes] - j] = servers
    return ragged_to_csr(buf, starts)


def _head_buffer(depth, head) -> tuple:
    """``(buf, starts, ends)``: ``head_len + depth`` slots a lane, head in."""
    head_len, lane, slot, server = head
    lens = depth + head_len
    ends = np.cumsum(lens)
    starts = ends - lens
    buf = np.empty(ends[-1] if ends.size else 0, dtype=np.int32)
    buf[starts[lane] + slot] = server
    return buf, starts, ends


def ragged_to_csr(buf, starts, lens=None) -> tuple:
    """Compress a lane-major ragged server buffer into CSR path arrays.

    Lane ``i`` owns the slots from ``starts[i]`` up to the next lane's
    start (``starts[0] = 0``), of which the first ``lens[i]`` were
    written (all of them when ``lens`` is ``None``; every lane has at
    least its source).  A slot repeating its predecessor inside a lane
    merges into it — the vectorized
    :func:`~repro.core.lookup.compress_path` — and so does an unwritten
    tail slot: ``path_servers`` comes back ``int32``, ``path_offsets``
    ``int64`` of length ``lanes + 1``.

    Repeats are rare (220 in 82.7M raw entries of fast routes at
    n = 16384), so one shifted compare finds them sparsely and
    everything after it costs O(lanes + dropped slots).  With nothing
    to drop, ``buf`` itself comes back as ``path_servers`` when it
    already is ``int32`` — every caller hands over a freshly allocated
    buffer, so the result aliases nothing anyone else holds.
    """
    starts = np.asarray(starts, dtype=np.int64)
    drop = np.flatnonzero(buf[1:] == buf[:-1]) + 1
    lane = np.searchsorted(starts, drop, side="right") - 1
    slot = drop - starts[lane]
    if lens is None:
        drop = drop[slot > 0]        # a lane's first slot never merges
    else:
        lens = np.asarray(lens, dtype=np.int64)
        drop = drop[(slot > 0) & (slot < lens[lane])]
        end = np.append(starts, buf.size)[1:]
        first = starts + lens          # each lane's first unwritten slot
        short = np.flatnonzero(first < end)
        if short.size:
            spare = end[short] - first[short]
            tails = (np.repeat(first[short] - np.cumsum(spare) + spare, spare)
                     + np.arange(spare.sum()))
            drop = np.sort(np.concatenate([drop, tails]))
    if not drop.size:
        return (buf.astype(np.int32, copy=False),
                np.append(starts, buf.size))
    return (np.delete(buf, drop).astype(np.int32, copy=False),
            np.append(starts - np.searchsorted(drop, starts),
                      buf.size - drop.size))


# ------------------------------------------------------------- result contract
class PathResult:
    """The CSR read contract of every batch result.

    A result keeps its paths flattened: ``path_servers`` (``int32``, one
    entry per path segment, indices into ``points``) and
    ``path_offsets`` (``int64``, length ``size + 1``), both ``None``
    when the batch was routed with ``keep_paths=False``.  Lookup ``i``'s
    compressed server path is
    ``path_servers[path_offsets[i]:path_offsets[i + 1]]`` — a lossless
    re-encoding of the scalar engines' ``server_path``.  Together with
    the subclass's ``size`` and ``hops`` this is the duck type
    :meth:`~repro.core.routing_stats.BatchCongestion.record_batch`
    books with one ``np.bincount``.
    """

    points: np.ndarray
    path_servers: Optional[np.ndarray]
    path_offsets: Optional[np.ndarray]

    def to_csr(self) -> tuple:
        """The ``(path_servers, path_offsets)`` CSR arrays.

        Requires the batch to have been routed with paths
        (``keep_paths=True`` or ``"csr"``, synonyms).
        """
        if self.path_servers is None:
            raise ValueError("batch was routed with keep_paths=False")
        return self.path_servers, self.path_offsets

    def path_points(self, i: int) -> np.ndarray:
        """Id points of lookup ``i``'s compressed server path (CSR decode)."""
        servers, offsets = self.to_csr()
        return self.points[servers[offsets[i]:offsets[i + 1]]]

    def server_path(self, i: int) -> List[float]:
        """Compressed server path of lookup ``i``, as id points.

        Identical to the scalar engine's ``server_path`` for the same
        lookup — the parity tests compare them element-wise.
        """
        return self.path_points(i).tolist()
