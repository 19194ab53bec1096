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
dependency carries GF(256) arithmetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


__all__ = ["GF256", "ReedSolomonCode", "ErasureStore", "RepairReport"]


class GF256:
    """Arithmetic in GF(2^8) with the AES polynomial ``x⁸+x⁴+x³+x+1``."""

    _EXP: List[int] = []
    _LOG: List[int] = []

    @classmethod
    def _init_tables(cls) -> None:
        if cls._EXP:
            return
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
        cls._EXP, cls._LOG = exp, log

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        cls._init_tables()
        if a == 0 or b == 0:
            return 0
        return cls._EXP[cls._LOG[a] + cls._LOG[b]]

    @classmethod
    def inv(cls, a: int) -> int:
        cls._init_tables()
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return cls._EXP[255 - cls._LOG[a]]

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    @classmethod
    def pow(cls, a: int, e: int) -> int:
        cls._init_tables()
        if a == 0:
            return 0 if e else 1
        return cls._EXP[(cls._LOG[a] * e) % 255]


def _xor_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Inner product over GF(256) (multiply then XOR-accumulate)."""
    acc = 0
    for a, b in zip(u, v):
        acc ^= GF256.mul(a, b)
    return acc


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
        for r in range(k):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col]
            a[r] = [GF256.add(v, GF256.mul(factor, w))
                    for v, w in zip(a[r], a[col])]
            inv[r] = [GF256.add(v, GF256.mul(factor, w))
                      for v, w in zip(inv[r], inv[col])]
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

    def __init__(self, k: int, n: int):
        if not 1 <= k <= n <= 255:
            raise ValueError("need 1 <= k <= n <= 255")
        self.k = k
        self.n = n
        vand = [[GF256.pow(i + 1, j) for j in range(k)] for i in range(n)]
        top_inv = _gf_mat_inv(vand[:k])
        self._parity_rows: List[List[int]] = [
            [
                _xor_dot(vand[i], [top_inv[j][c] for j in range(k)])
                for c in range(k)
            ]
            for i in range(k, n)
        ]

    # ------------------------------------------------------------- encoding
    def _chunks(self, data: bytes) -> List[bytes]:
        pad = (-len(data)) % self.k
        padded = data + b"\0" * pad
        size = len(padded) // self.k
        return [padded[i * size: (i + 1) * size] for i in range(self.k)]

    def encode(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Split ``data`` into ``n`` shares ``(index, payload)``.

        The original length is prepended so decode can strip padding.
        """
        framed = len(data).to_bytes(8, "big") + data
        chunks = self._chunks(framed)
        shares: List[Tuple[int, bytes]] = [(i, chunks[i]) for i in range(self.k)]
        size = len(chunks[0])
        for r, row in enumerate(self._parity_rows):
            payload = bytearray(size)
            for j, coef in enumerate(row):
                if coef == 0:
                    continue
                chunk = chunks[j]
                for b in range(size):
                    payload[b] ^= GF256.mul(coef, chunk[b])
            shares.append((self.k + r, bytes(payload)))
        return shares

    # ------------------------------------------------------------- decoding
    def _row_of(self, index: int) -> List[int]:
        if index < self.k:
            return [1 if j == index else 0 for j in range(self.k)]
        return self._parity_rows[index - self.k]

    def decode(self, shares: Sequence[Tuple[int, bytes]]) -> bytes:
        """Reconstruct from any ``k`` distinct shares."""
        if len({i for i, _ in shares}) < self.k:
            raise ValueError(f"need at least {self.k} distinct shares")
        chosen = sorted({i: p for i, p in shares}.items())[: self.k]
        size = len(chosen[0][1])
        # solve M · data = payloads over GF(256) by Gaussian elimination
        m = [list(self._row_of(i)) for i, _ in chosen]
        payloads = [bytearray(p) for _, p in chosen]
        for col in range(self.k):
            pivot = next(
                (r for r in range(col, self.k) if m[r][col] != 0), None
            )
            if pivot is None:  # pragma: no cover - Vandermonde is invertible
                raise ValueError("singular share matrix")
            m[col], m[pivot] = m[pivot], m[col]
            payloads[col], payloads[pivot] = payloads[pivot], payloads[col]
            inv = GF256.inv(m[col][col])
            m[col] = [GF256.mul(inv, v) for v in m[col]]
            payloads[col] = bytearray(GF256.mul(inv, b) for b in payloads[col])
            for r in range(self.k):
                if r == col or m[r][col] == 0:
                    continue
                factor = m[r][col]
                m[r] = [GF256.add(v, GF256.mul(factor, w))
                        for v, w in zip(m[r], m[col])]
                payloads[r] = bytearray(
                    GF256.add(b, GF256.mul(factor, c))
                    for b, c in zip(payloads[r], payloads[col])
                )
        framed = b"".join(bytes(p) for p in payloads)
        length = int.from_bytes(framed[:8], "big")
        return framed[8: 8 + length]

    def overhead(self) -> float:
        """Storage blow-up factor ``n/k`` (replication with the same fault
        tolerance would pay ``n − k + 1``)."""
        return self.n / self.k


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
        if not 0 < data_fraction <= 1:
            raise ValueError("data fraction must be in (0, 1]")
        self.net = net
        self.data_fraction = data_fraction
        self._items: Dict[object, _StoredItem] = {}

    def keys(self) -> List:
        """The stored item keys (insertion order)."""
        return list(self._items)

    def _code_for(self, group_size: int) -> ReedSolomonCode:
        k = max(1, int(round(group_size * self.data_fraction)))
        return ReedSolomonCode(k, group_size)

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
        data = item.code.decode(available)
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
