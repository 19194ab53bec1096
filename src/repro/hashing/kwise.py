"""k-wise independent hash families over ``[0, 1)``.

The paper's congestion theorems need hash functions with bounded
independence rather than idealised random oracles:

* Theorem 2.11 (permutation routing with hashed targets) assumes ``h`` is
  ``log n``-wise independent;
* Theorem 3.8 (multiple hotspots) assumes ``k >= log n``;
* Lemma 3.7 only needs 1-wise (uniform marginals).

We implement the textbook construction: a degree-``(k-1)`` polynomial with
uniform coefficients over the prime field ``GF(p)``, ``p = 2^61 - 1`` (a
Mersenne prime, so reduction is cheap and the field is large enough that
the ``[0, 1)`` image is effectively continuous: collisions of distinct
keys happen with probability ``≈ 2^-61`` per pair).

Keys may be integers, strings or bytes; non-integers are first mapped to
integers with BLAKE2b (a fixed, seedless digest, so a hash family member
is a deterministic pure function of its coefficients).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

import numpy as np

__all__ = ["MERSENNE_P", "KWiseHash", "key_to_int", "PointHasher"]

MERSENNE_P = (1 << 61) - 1

Key = Union[int, str, bytes]


def key_to_int(key: Key) -> int:
    """Stable injective-ish mapping of a key into ``GF(p)``.

    Integers are reduced mod ``p``; strings/bytes go through BLAKE2b so
    that adversarially chosen names (the §3 hotspot adversary picks data
    items, not hash values) cannot align with the polynomial structure.
    """
    if isinstance(key, bool):  # bool is an int subclass; keep it distinct from 0/1 keys
        key = int(key) + (1 << 40)
    if isinstance(key, int):
        return key % MERSENNE_P
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, bytes):
        digest = hashlib.blake2b(key, digest_size=16).digest()
        return int.from_bytes(digest, "big") % MERSENNE_P
    raise TypeError(f"unsupported key type {type(key)!r}")


class KWiseHash:
    """A random member of a ``k``-wise independent family ``GF(p) -> [0, 1)``.

    Evaluates ``h(x) = (a_0 + a_1 x + … + a_{k-1} x^{k-1} mod p) / p``
    by Horner's rule.  With coefficients drawn uniformly the values on any
    ``k`` distinct keys are independent and uniform on ``{0/p, …, (p-1)/p}``
    — the discrete approximation of uniform-on-``[0,1)`` the paper's
    precision remark (§2.2.3) sanctions.
    """

    def __init__(self, k: int, rng: np.random.Generator):
        if k < 1:
            raise ValueError("independence parameter k must be >= 1")
        self.k = int(k)
        # rng.integers is limited to 64-bit; compose two draws for safety margin.
        self.coefficients: list[int] = [
            (int(rng.integers(0, 1 << 61)) ^ (int(rng.integers(0, 1 << 61)) << 1))
            % MERSENNE_P
            for _ in range(self.k)
        ]

    def hash_int(self, key: Key) -> int:
        """Polynomial evaluation in ``GF(p)`` (an integer in ``[0, p)``)."""
        x = key_to_int(key)
        acc = 0
        for a in reversed(self.coefficients):
            acc = (acc * x + a) % MERSENNE_P
        return acc

    def __call__(self, key: Key) -> float:
        """Hash a key to a point of ``[0, 1)``."""
        return self.hash_int(key) / MERSENNE_P

    def hash_many(self, keys: Iterable[Key]) -> np.ndarray:
        """Vectorised convenience: hash a sequence of keys to float64 points."""
        return np.asarray([self(k) for k in keys], dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KWiseHash(k={self.k}, coeffs[0]={self.coefficients[0]})"


class PointHasher:
    """The system-wide item-to-point map ``h`` handed to every joining server.

    Paper §2.1 ("Mapping the data items to servers"): *"we assume that h is
    some hash function (for instance a k-wise independent function for some
    k), which is chosen at the construction of the system and is given to
    every server upon joining."*  This wrapper fixes ``k = max(log2 n_max,
    pairwise)`` at construction and memoises item positions so repeated
    lookups of the same item are cheap and consistent.
    """

    def __init__(self, rng: np.random.Generator, k: int = 64):
        self._fn = KWiseHash(k, rng)
        self._memo: dict[Key, float] = {}

    @property
    def k(self) -> int:
        """Independence of the underlying family."""
        return self._fn.k

    def __call__(self, key: Key) -> float:
        if key not in self._memo:
            self._memo[key] = self._fn(key)
        return self._memo[key]

    def clear_memo(self) -> None:
        """Drop memoised positions (e.g. between experiment repetitions)."""
        self._memo.clear()
