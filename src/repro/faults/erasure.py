"""Erasure-coded storage over the replica groups (paper §6.2).

The paper closes §6.2 by observing that since an item's covering servers
form a clique, "storing the data using an erasure correcting code (for
instance the digital fountains suggested by Byers et al.) … avoid[s] the
need for replication", citing Weatherspoon–Kubiatowicz for the bandwidth/
storage win.  This module supplies that substrate:

* a systematic Reed–Solomon-style code over ``GF(256)`` (Vandermonde
  generator matrix; any ``k`` of the ``n`` shares reconstruct);
* :class:`ErasureStore` — integration with
  :class:`~repro.faults.overlap.OverlappingDHNetwork`: shares are spread
  over the replica group, retrieval gathers any ``k`` alive shares;
* **self-healing** (read-repair): when share holders fail-stop,
  :meth:`ErasureStore.read_repair` reconstructs the item from any ``k``
  surviving shares and re-encodes it to full redundancy over the *alive*
  replica group — the repair loop long-running deployments run when
  servers die mid-soak; :meth:`ErasureStore.heal` sweeps every item;
* the storage-overhead comparison of the paper's remark: replication
  stores ``m·|item|`` bytes for ``m``-fault tolerance, the code stores
  ``(k + m)/k·|item|``.

Implemented from scratch (tables + Gaussian elimination) — no external
dependency carries GF(256) arithmetic.  Scalar field arithmetic builds
the generator and inverts share matrices (``O(k³)`` per code and per
distinct share subset); every payload byte goes through one 256 × 256
product table instead (:func:`_gf_matmul`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import checks


__all__ = ["GF256", "ReedSolomonCode", "ErasureStore", "RepairReport"]


def _log_tables() -> Tuple[List[int], List[int]]:
    """``(exp, log)`` of GF(2^8): ``exp`` runs twice round, so a sum of
    two logs needs no reduction."""
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by the generator 3 = x+1 (2 is NOT primitive for 0x11B)
        y = x << 1
        if y & 0x100:
            y ^= 0x11B
        x = y ^ x
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


_EXP, _LOG = _log_tables()


def _mul(a: int, b: int) -> int:
    """``a · b`` on elements already known to lie in ``[0, 256)``."""
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


class GF256:
    """Arithmetic in GF(2^8) with the AES polynomial ``x⁸+x⁴+x³+x+1``.

    An element is an int in ``[0, 256)``; anything else, a bool
    included, is refused with ``ValueError`` naming the argument.  The
    codec's elimination (:func:`_gf_mat_inv`) makes its ``O(k³)``
    products on bytes it built itself, unchecked (:func:`_mul`).
    """

    @staticmethod
    def mul(a: int, b: int) -> int:
        return _mul(checks.count(a, "a", 0, 256), checks.count(b, "b", 0, 256))

    @staticmethod
    def inv(a: int) -> int:
        a = checks.count(a, "a", 0, 256)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return _EXP[255 - _LOG[a]]

    @staticmethod
    def pow(a: int, e: int) -> int:
        a, e = checks.count(a, "a", 0, 256), checks.count(e, "e")
        if a == 0:
            return 0 if e else 1
        return _EXP[(_LOG[a] * e) % 255]


def _product_table() -> np.ndarray:
    """``table[a, b] = GF256.mul(a, b)`` for every byte pair (64 KiB)."""
    exp = np.array(_EXP, dtype=np.uint8)
    log = np.array(_LOG, dtype=np.intp)
    table = exp[log[:, None] + log[None, :]]
    table[0, :] = table[:, 0] = 0       # log 0 is a placeholder, not a log
    return table


_MUL = _product_table()


def _gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256): ``(r, k)`` times ``(k, size)`` bytes."""
    return np.bitwise_xor.reduce(_MUL[a[:, :, None], b[None, :, :]], axis=1)


def _gf_mat_inv(m: List[List[int]]) -> List[List[int]]:
    """Invert a square matrix over GF(256) by Gauss–Jordan elimination."""
    k = len(m)
    a = [row[:] for row in m]
    inv = [[1 if r == c else 0 for c in range(k)] for r in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix over GF(256)")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = GF256.inv(a[col][col])
        a[col] = [GF256.mul(scale, v) for v in a[col]]
        inv[col] = [GF256.mul(scale, v) for v in inv[col]]
        for r in range(k):  # the O(k³) loop: unchecked products, XOR sums
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col]
            a[r] = [v ^ _mul(factor, w) for v, w in zip(a[r], a[col])]
            inv[r] = [v ^ _mul(factor, w) for v, w in zip(inv[r], inv[col])]
    return inv


class ReedSolomonCode:
    """Systematic ``(k, n)`` MDS code: any ``k`` of ``n`` shares suffice.

    The generator is ``G = V · (V_top)⁻¹`` where ``V`` is the ``n × k``
    Vandermonde matrix over distinct field points: the top block becomes
    the identity (share ``i < k`` is the ``i``-th data chunk verbatim),
    and since any ``k`` rows of ``V`` form an invertible Vandermonde,
    any ``k`` rows of ``G`` stay invertible.  (Stacking identity rows on
    *raw* Vandermonde parity rows — the textbook shortcut — does NOT
    have this property; mixed identity/parity subsets can be singular.)
    """

    #: decode inverses kept per code, oldest evicted first (fault plans
    #: produce few distinct share subsets; the cap only bounds a sweep
    #: over all of them)
    MAX_INVERSES = 64

    def __init__(self, k: int, n: int):
        self.k = k = checks.count(k, "k", 1)
        self.n = n = checks.count(n, "n", k, 256)
        vand = [[GF256.pow(i + 1, j) for j in range(k)] for i in range(n)]
        #: the ``(n, k)`` generator ``V · (V_top)⁻¹``: identity on top,
        #: parity rows below
        self._generator = _gf_matmul(
            np.array(vand, dtype=np.uint8),
            np.array(_gf_mat_inv(vand[:k]), dtype=np.uint8))
        self._inverses: Dict[Tuple[int, ...], np.ndarray] = {}

    # ------------------------------------------------------------- encoding
    def encode(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Split ``data`` into ``n`` shares ``(index, payload)``.

        The original length is prepended so decode can strip padding.
        """
        framed = len(data).to_bytes(8, "big") + data
        framed += b"\0" * ((-len(framed)) % self.k)
        chunks = np.frombuffer(framed, dtype=np.uint8).reshape(self.k, -1)
        parity = _gf_matmul(self._generator[self.k:], chunks)
        return [(i, row.tobytes())
                for i, row in enumerate(np.concatenate([chunks, parity]))]

    # ------------------------------------------------------------- decoding
    def _inverse_of(self, indices: Tuple[int, ...]) -> np.ndarray:
        """Inverse of the generator rows ``indices``, remembered per subset."""
        inv = self._inverses.get(indices)
        if inv is None:
            if len(self._inverses) >= self.MAX_INVERSES:
                del self._inverses[next(iter(self._inverses))]
            inv = np.array(
                _gf_mat_inv(self._generator[list(indices)].tolist()),
                dtype=np.uint8)
            self._inverses[indices] = inv
        return inv

    def decode(self, shares: Sequence[Tuple[int, bytes]]) -> bytes:
        """Reconstruct from any ``k`` distinct shares.

        Raises ``ValueError`` when fewer than ``k`` distinct indices are
        given or when the payloads it would combine differ in length.
        """
        distinct = {i: p for i, p in shares}
        if len(distinct) < self.k:
            raise ValueError(f"need at least {self.k} distinct shares")
        chosen = sorted(distinct.items())[: self.k]
        first, size = chosen[0][0], len(chosen[0][1])
        for i, p in chosen:
            if len(p) != size:
                raise ValueError(
                    f"share {i} has {len(p)} bytes but share {first} has "
                    f"{size}: payloads of one item must be equally long")
        # solve M · data = payloads over GF(256): data = M⁻¹ · payloads
        payloads = np.frombuffer(b"".join(p for _, p in chosen),
                                 dtype=np.uint8).reshape(self.k, size)
        inverse = self._inverse_of(tuple(i for i, _ in chosen))
        framed = _gf_matmul(inverse, payloads).tobytes()
        length = int.from_bytes(framed[:8], "big")
        return framed[8: 8 + length]


@lru_cache(maxsize=128)
def _shared_code(k: int, n: int) -> ReedSolomonCode:
    """The one ``(k, n)`` code every put and repair of that shape uses
    (the generator depends on nothing else)."""
    return ReedSolomonCode(k, n)


@dataclass
class _StoredItem:
    code: ReedSolomonCode
    share_at: Dict[float, Tuple[int, bytes]]
    pos: float = 0.0            # the item's hash point (replica-group anchor)
    digest: str = ""            # sha256 of the plaintext, for repair audits


@dataclass
class RepairReport:
    """Outcome of one :meth:`ErasureStore.heal` sweep."""

    items: int = 0              # items examined
    healthy: int = 0            # already at full redundancy on alive holders
    repaired: int = 0           # reconstructed and re-encoded
    shares_rebuilt: int = 0     # share payloads (re)written during repairs
    lost: int = 0               # unrecoverable (fewer than k alive shares)

    def merge(self, other: "RepairReport") -> "RepairReport":
        """Fold another sweep's counters into this one (all plain sums)."""
        self.items += other.items
        self.healthy += other.healthy
        self.repaired += other.repaired
        self.shares_rebuilt += other.shares_rebuilt
        self.lost += other.lost
        return self


class ErasureStore:
    """Erasure-coded items over an overlapping DHT's replica groups."""

    def __init__(self, net, data_fraction: float = 0.5):
        self.net = net
        self.data_fraction = checks.real(data_fraction, "data_fraction", "(0, 1]")
        self._items: Dict[object, _StoredItem] = {}

    def keys(self) -> List:
        """The stored item keys (insertion order)."""
        return list(self._items)

    def _code_for(self, group_size: int) -> ReedSolomonCode:
        k = max(1, int(round(group_size * self.data_fraction)))
        return _shared_code(k, group_size)

    def put(self, key, data: bytes) -> int:
        """Encode and spread shares over the replica group; returns n shares."""
        pos = float(self.net.item_hash(key))
        group = self.net.covers(pos)
        code = self._code_for(len(group))
        shares = code.encode(data)
        self._items[key] = _StoredItem(
            code=code,
            share_at={srv: sh for srv, sh in zip(group, shares)},
            pos=pos,
            digest=hashlib.sha256(data).hexdigest(),
        )
        return len(group)

    def get(self, key, alive: Optional[Set[float]] = None) -> bytes:
        """Gather any ``k`` alive shares and reconstruct (Thm 6.4 regime)."""
        item = self._items[key]
        available = [
            sh for srv, sh in item.share_at.items()
            if alive is None or srv in alive
        ]
        return item.code.decode(available)

    def tolerance(self, key) -> int:
        """How many simultaneous share losses the item survives."""
        item = self._items[key]
        return len(item.share_at) - item.code.k

    def storage_bytes(self, key) -> int:
        item = self._items[key]
        return sum(len(p) for _, p in item.share_at.values())

    # ------------------------------------------------------------ self-healing
    def shares_alive(self, key, alive: Optional[Set[float]] = None) -> int:
        """Shares still held by alive servers (``k`` of them reconstruct)."""
        item = self._items[key]
        if alive is None:
            return len(item.share_at)
        return sum(1 for srv in item.share_at if srv in alive)

    def is_recoverable(self, key, alive: Optional[Set[float]] = None) -> bool:
        """Can the item still be reconstructed under this fault set?"""
        return self.shares_alive(key, alive) >= self._items[key].code.k

    def verify(self, key, alive: Optional[Set[float]] = None) -> bool:
        """Byte-level audit of the item under the current fault set.

        Decodes from the alive shares, checks the plaintext against the
        put-time sha256, then re-encodes and compares **every** alive
        share payload to its expected value — so a single corrupted
        share fails the audit even when the decode happened to pick an
        honest ``k``-subset.
        """
        item = self._items[key]
        if not self.is_recoverable(key, alive):
            return False
        available = [
            sh for srv, sh in item.share_at.items()
            if alive is None or srv in alive
        ]
        try:
            data = item.code.decode(available)
        except ValueError:      # a share of the wrong length is corrupt
            return False
        if hashlib.sha256(data).hexdigest() != item.digest:
            return False
        expected = item.code.encode(data)
        return all(sh == expected[sh[0]] for sh in available)

    def read_repair(self, key, alive: Set[float]) -> int:
        """Restore full redundancy over the alive replica group.

        Decodes the item from any ``k`` surviving shares, re-encodes it
        with a code sized to the *alive* members of its replica group,
        and redistributes the shares — exactly the read-repair a lookup
        that notices missing shares would trigger.  Returns the number
        of share payloads written (0 when every holder is still alive
        and the item needs no repair).  Raises ``ValueError`` when fewer
        than ``k`` shares survive (the item is genuinely lost) or when
        the whole replica group is dead.
        """
        item = self._items[key]
        holders_alive = all(srv in alive for srv in item.share_at)
        if holders_alive:
            return 0
        if not self.is_recoverable(key, alive):
            raise ValueError(
                f"item {key!r} is unrecoverable: "
                f"{self.shares_alive(key, alive)} alive shares < "
                f"k={item.code.k}"
            )
        data = item.code.decode([
            sh for srv, sh in item.share_at.items() if srv in alive
        ])
        if hashlib.sha256(data).hexdigest() != item.digest:
            raise ValueError(  # pragma: no cover - decode is exact
                f"item {key!r} failed its integrity audit during repair")
        group = self.net.covers(item.pos, alive=alive)
        if not group:
            raise ValueError(
                f"item {key!r} cannot be re-homed: its whole replica "
                "group is dead"
            )
        code = self._code_for(len(group))
        placed = dict(zip(group, code.encode(data)))
        old = item.share_at
        rebuilt = sum(1 for srv, sh in placed.items() if old.get(srv) != sh)
        item.code = code
        item.share_at = placed
        return rebuilt

    def heal(self, alive: Set[float],
             keys: Optional[Iterable] = None) -> RepairReport:
        """Read-repair sweep over ``keys`` (default: every stored item).

        Items with at least ``k`` surviving shares are reconstructed and
        re-encoded to full redundancy; items below the threshold are
        counted as ``lost`` and left untouched (their surviving shares
        may still matter to a later, larger repair).
        """
        report = RepairReport()
        for key in (self.keys() if keys is None else keys):
            report.items += 1
            item = self._items[key]
            if all(srv in alive for srv in item.share_at):
                report.healthy += 1
                continue
            if not self.is_recoverable(key, alive):
                report.lost += 1
                continue
            report.shares_rebuilt += self.read_repair(key, alive)
            report.repaired += 1
        return report
