"""What every batch engine shares: one walk, one CSR writer, one result contract.

The paper derives the lookup (§2.2), the cache's path tree (§3) and the
fault-tolerant canonical path (§6.3) from *one* continuous walk
``w(σ, y)`` read through a cover map.  This module is the single home
of that walk's vectorized pieces — entry checks, the forward search,
the closed-form level point, the backward descent and its replay, the
CSR writer, the result base and the lanes' keyed randomness — so the
engines (:mod:`~repro.core.batch`, :mod:`~repro.core.batch_cache`,
:mod:`~repro.faults.batch_ft`, :mod:`~repro.baselines.base`) differ
only in their policy: which cover, which member of a cover set, where a
cached copy stops the walk.

Every float operation keeps the order of the scalar engines', so
whatever is built from these pieces stays bit-identical to its oracle.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .. import checks
from .segments import fold_unit, normalize_array

__all__ = ["KeyedLanes", "LANE_BLOCK", "LANE_INT", "PathResult", "count_rows",
           "descend", "draw_key", "first_rows", "forward_levels",
           "integral_array", "lane_blocks",
           "lane_key", "level_points", "normalize_pair", "normalize_points",
           "path_hops", "per_lane_matrix", "ragged_to_csr", "replay",
           "uniform_lanes", "walking_lanes"]


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


def exact_digits(delta: int) -> int:
    """How many base-``delta`` digits a float64 walk offset holds exactly.

    A walk's offset ``Σ d_k Δ^k`` and its scale ``Δ^t`` are exact in
    float64 below ``2^53``, so ``⌊52 / log₂Δ⌋`` digits are safe: the cap
    of the dh walk, of the fast lookup's levels for a non-power-of-two
    ``Δ``, and of the §3 serve's tree depth and keyed digit strings.
    """
    return int(52 / math.log2(delta))


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
    if mat.dtype.kind == "f":  # a shared row is every lane's: lane 0's
        uniform_lanes(mat if mat.ndim == 2 else mat[None], what)
    if mat.ndim == 1:
        mat = np.broadcast_to(mat, (size, mat.size))
    if mat.shape[0] != size:
        raise ValueError(f"{what} must have one row per lookup")
    return mat


def uniform_lanes(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` unchanged if every entry is finite and in ``[0, 1)``.

    The rule of every per-lane uniform: ``values`` holds one entry a
    lane (1-d) or one row a lane (2-d), and a refusal is a
    ``ValueError`` naming ``what`` and the first bad entry's lane.
    """
    if values.size and not (values.min() >= 0.0
                            and values.max() < 1.0):  # NaN fails both
        bad = ~((values >= 0.0) & (values < 1.0))
        at = np.unravel_index(int(np.argmax(bad)), values.shape)
        raise ValueError(
            f"{what}: lane {int(at[0])} holds {float(values[at])!r}; "
            "uniforms must be finite and in [0, 1)")
    return values


# ------------------------------------------------------------------ lane block
#: Lanes an engine whose lanes walk independently carries through its
#: per-level loop at once: the ``(W, B)`` tables and per-level
#: temporaries of a batch of any size stay one block wide.
LANE_BLOCK = 1 << 14


def lane_blocks(size: int):
    """Yield ``(lo, hi)`` over ``range(size)``, :data:`LANE_BLOCK` lanes each."""
    for lo in range(0, size, LANE_BLOCK):
        yield lo, min(lo + LANE_BLOCK, size)


# ---------------------------------------------------------------- lane matrix
# A (K, B) lane matrix holds K candidate rows of B lanes, C-ordered.
# NumPy runs argmin / argmax / cumsum along its axis 0 as one inner-loop
# call per lane, so every per-lane pick or count over one is K passes
# over whole rows instead.


def count_rows(hit: np.ndarray) -> np.ndarray:
    """``hit.sum(axis=0)`` of a (K, B) bool lane matrix, summed as bytes
    in the narrowest dtype that holds K (a bool sum casts every cell to
    ``int64`` first)."""
    return hit.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(len(hit)))


def first_rows(hit: np.ndarray) -> np.ndarray:
    """``argmax(hit, axis=0)`` of a (K, B) bool lane matrix: each lane's
    first true row, 0 where it has none, in the narrowest dtype that
    holds K: one pass a row counts the rows with a true row above them,
    K − 1 − f of them when ``f`` is the first."""
    seen = hit[0].copy()
    first = np.zeros(seen.size, dtype=np.min_scalar_type(len(hit)))
    for row in hit[1:]:
        first += seen
        seen |= row
    np.subtract(len(hit) - 1, first, out=first)
    first *= seen
    return first


# ------------------------------------------------------------------ randomness
#: SplitMix64's odd increment ⌊2^64/φ⌋ (Steele, Lea & Flood, OOPSLA 2014).
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray, w=0) -> np.ndarray:
    """SplitMix64 output ``w`` (an int, or ``uint64`` per lane) of each
    ``uint64`` state ``z``: ``mix(z + (w + 1)·γ)``, in wrapping array ops
    on one fresh array."""
    z = z + ((w + np.uint64(1)) * np.uint64(_GAMMA) if isinstance(w, np.ndarray)
             else np.uint64((w + 1) * _GAMMA % (1 << 64)))
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return z


def draw_key(rng: np.random.Generator) -> int:
    """The one draw a keyed call makes: a uniform key in ``[0, 2^64)``."""
    return int(rng.integers(0, 1 << 64, dtype=np.uint64))


def lane_key(key: int, start: int) -> int:
    """The key of a stream's lanes from ``start`` on: ``key + start·γ``."""
    return (key + start * _GAMMA) % (1 << 64)


class KeyedLanes:
    """Lanes ``0 … size − 1`` of ``key``, read as a pinned per-step matrix.

    Lane ``i``'s seed is the key's ``i``-th SplitMix64 output ``mix(key +
    (i + 1)·γ)``, and word ``w`` of its stream ``mix(seed + (w + 1)·γ)``.
    ``[lanes, step]`` (one step, or one per lane) is a uniform in
    ``[0, 1)``, word ``step``'s top 53 bits times 2⁻⁵³ (NumPy's double),
    or with ``delta`` a digit (``int64``): word ``w`` holds ``per``
    digits, ``log₂Δ``-bit slices for power-of-two Δ (``per = ⌊64 /
    log₂Δ⌋``), else ``(word // Δ^k) % Δ`` for the largest ``per`` with
    ``Δ^per ≤ 2^32`` (each biased by ≤ 2⁻³²).  ``shape`` is ``(size,
    width)``, ``width`` the steps a reader may take; a slice of lanes
    gives their ``width`` digits in the narrowest unsigned dtype, the
    ``tau`` a walk over one lane block takes.

    Uniforms read a fresh word each step, so only the ``seeds`` are
    held.  Digits hold the ``⌈width / per⌉`` words themselves in their
    place (``words``, one row a word: a single ``uint64`` a lane at
    Δ = 2, 4, 8 and 16 for a dh walk's width), so a read is a gather, a
    shift or division, and a mask.
    """

    def __init__(self, key: int, size: int, width: int,
                 delta: Optional[int] = None) -> None:
        seeds = _mix(np.arange(size, dtype=np.uint64) * np.uint64(_GAMMA)
                     + np.uint64(key))
        self.delta, self.shape = delta, (size, width)
        if delta is None:
            self.seeds = seeds
            return
        self._bits = (delta.bit_length() - 1 if delta & (delta - 1) == 0
                      else None)
        self._per = (64 // self._bits if self._bits else
                     next(p for p in range(32, 0, -1)
                          if delta ** p <= 1 << 32 or p == 1))
        self.words = np.empty((-(-width // self._per), size), dtype=np.uint64)
        for w in range(len(self.words)):
            self.words[w] = _mix(seeds, w)

    def __getitem__(self, at) -> np.ndarray:
        if isinstance(at, slice):
            lanes = range(self.shape[0])[at]
            block = np.empty((len(lanes), self.shape[1]),
                             dtype=np.min_scalar_type(self.delta - 1))
            for j in range(self.shape[1]):
                block[:, j] = self[at, j]
            return block
        lanes, step = at
        delta = self.delta
        if isinstance(step, np.ndarray):
            step = step.astype(np.uint64)
        if delta is None:
            return (_mix(self.seeds[lanes], step) >> 11) * 2.0 ** -53
        w, k = divmod(step, self._per)
        if isinstance(step, np.ndarray):  # one word a lane
            if isinstance(lanes, slice):
                lanes = np.arange(self.shape[0])[lanes]
            word = self.words[w, lanes]
        else:
            word = self.words[w][lanes]
        if self._bits:
            digit = word >> k * self._bits
            digit &= np.uint64(delta - 1)
        else:
            digit = word // delta ** k
            digit %= np.uint64(delta)
        return digit.view(np.int64)


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

    Returns ``(t, s_final, order)``: the level (a :data:`LANE_INT`
    count), ``⌊z·Δ^t⌋`` at that
    level, and the lanes by ``t`` descending (the levels ran shallow to
    deep, so reversed they are the order :func:`descend` walks prefixes
    of).  Raises ``RuntimeError`` when a lane is still searching past
    ``level_cap``.
    """
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
        s_level = zp * scale
        np.trunc(s_level, out=s_level)
        p = yp + s_level
        if delta & (delta - 1) == 0:
            p *= 1.0 / scale  # an exact 2^-k: the quotient, bit for bit
        else:
            p /= scale
        fold_unit(p)
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

    A power-of-two scale divides as a multiply by ``1 / scale``: every
    finite ``Δ^j`` is at most ``2^1023``, so its reciprocal is an exact
    power of two (subnormal at ``2^-1023``), and a correctly rounded
    product by it is the quotient bit for bit.  The chain runs in one
    array.
    """
    if delta & (delta - 1):
        low = (off % np.asarray(scale, dtype=np.int64)).astype(np.float64)
        return fold_unit((y + low) / scale)
    inv = 1.0 / scale
    p = off * inv
    np.floor(p, out=p)
    p *= scale
    np.subtract(off, p, out=p)  # off mod scale
    p += y
    p *= inv
    return fold_unit(p)


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
    scalar ``slot`` serves every entry, and ``lane = slice(None)``
    every lane once, in order).  Every slot below a lane's
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

    The level loop holds the buffer, the sorted ``y`` and ``off`` and
    each lane's last slot, and nothing else a lane wide: the live
    counts come from one ``bincount`` of ``depth``, a level's slots are
    shifted in place, and the lane starts are rebuilt from the last
    slots once the covers are in.
    """
    live = np.bincount(depth)[:0:-1].cumsum()[::-1]  # lanes deeper than j
    buf, starts, ends = _head_buffer(depth, head)
    del starts
    last = ends.take(order)  # slot of each lane's last (j = 0) cover
    last -= 1
    del ends
    ys, offs = y.take(order), off.take(order)
    if delta & (delta - 1):
        offs = offs.astype(np.int64)
    for j in range(live.size - 1, -1, -1):
        at = last[:live[j]]
        at -= j
        buf.put(at, cover(level_points(ys[:at.size], offs[:at.size],
                                       float(delta) ** j, delta)))
        at += j
    del ys, offs
    starts = np.empty_like(last)  # lane i starts past lane i − 1's last
    starts[order] = last
    starts[1:] = starts[:-1] + 1
    starts[:1] = 0
    return ragged_to_csr(buf, starts)


def replay(t, source, hop, owner, steps) -> tuple:
    """A dh walk's CSR paths from the servers its two phases covered.

    Lane ``i``'s raw path is ``2·t_i + 2 + via_i`` slots: its source
    ``source[i]``, the server phase I moved it to at each of its
    ``t_i`` steps, the neighbour ``hop[i]`` it hopped to when it stopped
    (``via`` lanes only: ``hop`` is ``-1`` on the others), then phase
    II's image covers from level ``t_i`` down to ``owner[i]`` at level
    0.  ``steps[s]`` is ``(moved, image)``, ``int32``, for exactly the
    lanes with ``t > s`` in index order — phase I's walking lanes at
    step ``s``, as its compaction keeps their order — so the records
    carry no lanes: :func:`walking_lanes` rebuilds them from ``t`` one
    step at a time, and each record is dropped from ``steps`` once it
    is written.  The buffer goes to :func:`ragged_to_csr`, like
    :func:`descend`'s.
    """
    via = np.flatnonzero(hop >= 0)
    ends = np.int64(2) * t + 2  # int64 whatever t's width: summed next
    ends[via] += 1
    np.cumsum(ends, out=ends)
    starts = np.roll(ends, 1)
    starts[:1] = 0
    buf = np.empty(ends[-1] if ends.size else 0, dtype=np.int32)
    buf[starts] = source
    buf[starts[via] + t[via] + 1] = hop[via]
    buf[ends - 1] = owner
    for s, lanes in enumerate(walking_lanes(t)):
        moved, image = steps[s]
        steps[s] = None
        buf[starts[lanes] + (s + 1)] = moved
        buf[ends[lanes] - (s + 2)] = image
    return ragged_to_csr(buf, starts)


def walking_lanes(t):
    """Yield phase I's walking lanes per step: ``flatnonzero(t > s)``.

    Step ``s + 1``'s lanes are compacted from step ``s``'s, so the
    whole sequence costs O(Σ t) and holds one step's lanes at a time.
    """
    lanes = np.flatnonzero(t > 0)
    s = 0
    while lanes.size:
        yield lanes
        s += 1
        lanes = lanes[t[lanes] > s]


def _head_buffer(depth, head) -> tuple:
    """``(buf, starts, ends)``: ``head_len + depth`` slots a lane, head in.

    ``depth`` may be ``int32``; the offsets are summed in ``int64``.
    """
    head_len, lane, slot, server = head
    lens = depth + head_len
    ends = np.cumsum(lens, dtype=np.int64)
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

    The writer consumes ``buf``: every caller hands over a freshly
    allocated buffer, and an ``int32`` one comes back as
    ``path_servers`` itself, or as its leading slice once the dropped
    slots are compacted away in place (:func:`_compact`).  Repeats are
    rare (220 in 82.7M raw entries of fast routes at n = 16384), so one
    shifted compare finds them sparsely and everything after it costs
    O(lanes + dropped slots) beside the move of the entries past the
    first drop.
    """
    buf = buf.astype(np.int32, copy=False)
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
        return buf, np.append(starts, buf.size)
    return (buf[:_compact(buf, drop)],
            np.append(starts - np.searchsorted(drop, starts),
                      buf.size - drop.size))


#: Entries :func:`_compact` moves per step, which bounds its transient.
_BLOCK = 1 << 16
#: Drops in a block up to which its drop-free stretches move one slice
#: assignment each; a denser block moves through one boolean gather.
_SPARSE = 16


def _compact(buf, drop) -> int:
    """Move ``buf``'s entries left over the slots ``drop`` (sorted, unique).

    ``np.delete`` without its mask and copy of the whole buffer: the
    entries before the first drop stay put, and the rest are walked
    ``_BLOCK`` at a time.  A block with few drops moves each drop-free
    stretch with one slice assignment — an overlapping copy to a lower
    address, which NumPy makes in place — and a denser one gathers its
    survivors through a mask of one block.  Returns the survivor count.
    """
    edges = np.append(np.arange(drop[0], buf.size, _BLOCK), buf.size)
    cut = np.searchsorted(drop, edges)
    w = int(drop[0])
    for b, (lo, hi) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
        local = drop[cut[b]:cut[b + 1]]
        if local.size <= _SPARSE:
            for stop in local.tolist() + [hi]:
                buf[w:w + stop - lo] = buf[lo:stop]
                w += stop - lo
                lo = stop + 1
        else:
            keep = np.ones(hi - lo, dtype=bool)
            keep[local - lo] = False
            kept = buf[lo:hi][keep]
            buf[w:w + kept.size] = kept
            w += kept.size
    return w


# ------------------------------------------------------------- result contract
#: The lane contract's integer: the dtype of every server-index column
#: (an index is below n) and every per-lane count column (a path holds
#: at most 2·``MAX_WALK_STEPS`` + 2 entries) of a batch result.
LANE_INT = np.int32


def path_hops(offsets) -> np.ndarray:
    """Each CSR path's hops, its entries less one: one :data:`LANE_INT`
    subtraction over the ``int64`` offsets, with no wide temporary."""
    hops = np.subtract(offsets[1:], offsets[:-1], dtype=LANE_INT)
    hops -= 1
    return hops


class PathResult:
    """The CSR read contract of every batch result, and its lane contract.

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

    The lane contract fixes the dtype of every per-lane column, so a
    held result costs the same bytes whichever engine built it, and
    each engine builds a column at its width once:

    * server indices, :data:`LANE_INT`: ``source_idx``, ``owner_idx``,
      ``holder_idx``, ``serving_server_idx``, ``path_servers``, and the
      §3 tree index ``trees``;
    * per-lane counts, :data:`LANE_INT`: ``t``, ``hops``,
      ``phase1_hops``, ``serving_depth``, ``lookup_hops``,
      ``messages``, ``parallel_time``;
    * ``int64``: the CSR ``path_offsets`` and the §3
      ``serving_node_key`` (every prefix sum over a count widens before
      it sums);
    * a digit matrix (``tau_used``): the narrowest unsigned type that
      holds Δ − 1, as the walks' own step records.

    The kernels gather through ``intp`` indices — NumPy widens an
    ``int32`` index on every fancy read — and narrow when they build
    the result.
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
        i = checks.count(i, "i", 0, offsets.size - 1)
        return self.points[servers[offsets[i]:offsets[i + 1]]]

    def server_path(self, i: int) -> List[float]:
        """Compressed server path of lookup ``i``, as id points.

        Identical to the scalar engine's ``server_path`` for the same
        lookup — the parity tests compare them element-wise.
        """
        return self.path_points(i).tolist()
