"""The product-table codec against the per-byte codec it replaced (§6.2).

:class:`ScalarReedSolomon` is the codec as it was — one ``GF256.mul``
call per byte per coefficient, Gaussian elimination over the payloads —
kept verbatim as the oracle (but its field additions, now spelled ``^``,
since ``GF256.add`` went): shares and plaintext must stay
byte-identical, since stored artifacts and put-time digests depend on
them.  The share digests below were recorded on that code.
"""

import copy
import hashlib
import itertools
import pickle

import numpy as np
import pytest

from repro.faults import (
    ErasureStore,
    FTBatchEngine,
    GF256,
    OverlappingDHNetwork,
    ReedSolomonCode,
    random_failstop,
)
import repro.faults.erasure as erasure
from repro.faults.erasure import _MUL, _gf_mat_inv


def _xor_dot(u, v):
    acc = 0
    for a, b in zip(u, v):
        acc ^= GF256.mul(a, b)
    return acc


class ScalarReedSolomon:
    """``ReedSolomonCode`` before the product table (reference semantics)."""

    def __init__(self, k, n):
        self.k = k
        self.n = n
        vand = [[GF256.pow(i + 1, j) for j in range(k)] for i in range(n)]
        top_inv = _gf_mat_inv(vand[:k])
        self._parity_rows = [
            [
                _xor_dot(vand[i], [top_inv[j][c] for j in range(k)])
                for c in range(k)
            ]
            for i in range(k, n)
        ]

    def _chunks(self, data):
        pad = (-len(data)) % self.k
        padded = data + b"\0" * pad
        size = len(padded) // self.k
        return [padded[i * size: (i + 1) * size] for i in range(self.k)]

    def encode(self, data):
        framed = len(data).to_bytes(8, "big") + data
        chunks = self._chunks(framed)
        shares = [(i, chunks[i]) for i in range(self.k)]
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

    def _row_of(self, index):
        if index < self.k:
            return [1 if j == index else 0 for j in range(self.k)]
        return self._parity_rows[index - self.k]

    def decode(self, shares):
        if len({i for i, _ in shares}) < self.k:
            raise ValueError(f"need at least {self.k} distinct shares")
        chosen = sorted({i: p for i, p in shares}.items())[: self.k]
        m = [list(self._row_of(i)) for i, _ in chosen]
        payloads = [bytearray(p) for _, p in chosen]
        for col in range(self.k):
            pivot = next(
                (r for r in range(col, self.k) if m[r][col] != 0), None
            )
            if pivot is None:
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
                m[r] = [v ^ GF256.mul(factor, w)
                        for v, w in zip(m[r], m[col])]
                payloads[r] = bytearray(
                    b ^ GF256.mul(factor, c)
                    for b, c in zip(payloads[r], payloads[col])
                )
        framed = b"".join(bytes(p) for p in payloads)
        length = int.from_bytes(framed[:8], "big")
        return framed[8: 8 + length]


def _blob(seed, size):
    return bytes(np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8))


def _share_digest(shares):
    h = hashlib.sha256()
    for i, payload in shares:
        h.update(i.to_bytes(2, "big"))
        h.update(len(payload).to_bytes(8, "big"))
        h.update(payload)
    return h.hexdigest()


SHAPES = [(1, 1), (1, 4), (2, 4), (3, 6), (4, 4), (4, 8), (5, 10), (7, 14),
          (8, 8), (12, 24), (1, 24), (23, 24), (24, 24)]
LENGTHS = [0, 1, 2, 7, 8, 9, 23, 100, 255, 256, 600]


class TestProductTable:
    def test_every_product_matches_the_scalar_field(self):
        assert _MUL.shape == (256, 256) and _MUL.dtype == np.uint8
        for a in range(256):
            assert _MUL[a].tolist() == [GF256.mul(a, b) for b in range(256)]


class TestElementRange:
    """Every element is an int in [0, 256): Python's negative index once
    read -1 as 255 (``mul(-1, 3) == 26``, ``inv(-1) == 28``)."""

    @pytest.mark.parametrize("call", [
        lambda: GF256.mul(-1, 3), lambda: GF256.mul(3, 256),
        lambda: GF256.inv(-1), lambda: GF256.mul(True, 3),
        lambda: GF256.pow(-1, 2), lambda: GF256.pow(3, -1)])
    def test_out_of_field_is_refused(self, call):
        with pytest.raises(ValueError, match="must be an int"):
            call()

    def test_field_edges_still_compute(self):
        assert GF256.mul(255, 3) == 26 and GF256.inv(255) == 28
        assert GF256.pow(0, 0) == 1
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)


class TestCodecParity:
    @pytest.mark.parametrize("k,n", SHAPES)
    def test_shares_and_plaintext_match_the_scalar_codec(self, k, n):
        code, ref = ReedSolomonCode(k, n), ScalarReedSolomon(k, n)
        rng = np.random.default_rng(100 * k + n)
        for length in LENGTHS:           # several are shorter than k
            data = _blob(length + 1, length)
            shares = code.encode(data)
            assert shares == ref.encode(data)
            assert all(type(p) is bytes for _, p in shares)
            # one random k-subset per length, given in shuffled order
            pick = rng.permutation(n)[:k]
            subset = [shares[i] for i in pick]
            assert code.decode(subset) == ref.decode(subset) == data

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 9)
                                     for k in range(1, n + 1)])
    def test_every_k_subset_decodes_like_the_scalar_codec(self, k, n):
        code, ref = ReedSolomonCode(k, n), ScalarReedSolomon(k, n)
        data = _blob(n * 16 + k, 37)
        shares = code.encode(data)
        for subset in itertools.combinations(shares, k):
            assert code.decode(subset) == data
        # the scalar elimination on a spread of them (it is the slow side)
        for subset in list(itertools.combinations(shares, k))[::5]:
            assert ref.decode(subset) == data

    def test_duplicate_share_indices(self):
        code, ref = ReedSolomonCode(3, 6), ScalarReedSolomon(3, 6)
        data = b"duplicates keep the last payload given for an index"
        s = code.encode(data)
        repeated = [s[4], s[1], s[4], s[5], s[1]]
        assert code.decode(repeated) == ref.decode(repeated) == data
        with pytest.raises(ValueError, match="at least 3 distinct"):
            code.decode([s[0], s[0], s[1], s[1]])
        # more than k distinct: the k lowest indices are the ones combined
        stale = (5, bytes(len(s[5][1])))
        assert code.decode([s[0], s[2], s[3], stale]) == data

    @pytest.mark.parametrize("k,n,blob,digest", [
        (5, 10, "a",
         "d83f48990fe164b955bf316dc137fff4bc0d930c27ce6dc0ca9a51ff79034bf0"),
        (5, 10, "b",
         "ab777ec55652daf5b56388fa92081378ca02f8ee210a1e52db57a0ce26ae635b"),
        (7, 14, "a",
         "f3ba9fb956e620c5671da4356064829f96def9c28b02d2a1c2897c0d56fdf4c6"),
        (7, 14, "b",
         "91e18d87d1668c3f87df618d41f36b80de8fcf81e208ec41fbaa2caaa10348ac"),
    ])
    def test_share_digests_recorded_on_the_scalar_codec(self, k, n, blob,
                                                        digest):
        data = {"a": _blob(20, 4096),
                "b": b"the continuous-discrete approach " * 37}[blob]
        assert _share_digest(ReedSolomonCode(k, n).encode(data)) == digest


class TestShareLengthMismatch:
    def test_decode_rejects_shares_of_unequal_length(self):
        """Was: ``zip`` truncated the elimination and wrong bytes came back."""
        c = ReedSolomonCode(3, 6)
        s = c.encode(b"hello world, this is a test")
        with pytest.raises(ValueError, match=r"share 3 has 10 bytes.*"
                                             r"share 1 has 12"):
            c.decode([s[1], (3, s[3][1][:-2]), s[5]])
        with pytest.raises(ValueError, match="share 5 has 13 bytes"):
            c.decode([s[1], s[3], (5, s[5][1] + b"\0")])

    @pytest.fixture()
    def truncated(self):
        net = OverlappingDHNetwork(128, np.random.default_rng(3))
        store = ErasureStore(net)
        store.put("doc", b"audit me " * 50)
        item = store._items["doc"]
        holder = next(iter(item.share_at))
        index, payload = item.share_at[holder]
        item.share_at[holder] = (index, payload[:-1])
        return net, store, holder

    def test_verify_fails_the_audit_on_a_truncated_share(self, truncated):
        net, store, holder = truncated
        assert store.verify("doc") is False
        # ... also when the decode would not have picked that share
        assert store.verify("doc", alive=set(net.points)) is False
        assert store.verify("doc", alive=set(net.points) - {holder}) is True

    def test_get_and_read_repair_let_the_error_out(self, truncated):
        net, store, holder = truncated
        with pytest.raises(ValueError, match="bytes but share"):
            store.get("doc")
        dead = next(srv for srv in store._items["doc"].share_at
                    if srv != holder)
        with pytest.raises(ValueError, match="bytes but share"):
            store.read_repair("doc", set(net.points) - {dead})


class TestSharedCodes:
    def test_one_code_per_shape(self):
        net = OverlappingDHNetwork(128, np.random.default_rng(3))
        store, other = ErasureStore(net), ErasureStore(net)
        assert store._code_for(12) is other._code_for(12)
        assert store._code_for(12) is not store._code_for(13)
        store.put("a", b"x" * 100)
        other.put("a", b"y" * 100)
        assert store._items["a"].code is other._items["a"].code

    def test_decode_inverses_are_bounded(self):
        code = ReedSolomonCode(5, 10)
        data = _blob(9, 333)
        shares = code.encode(data)
        subsets = list(itertools.combinations(shares, 5))
        assert len(subsets) > 2 * code.MAX_INVERSES
        for subset in subsets[: 2 * code.MAX_INVERSES]:
            assert code.decode(subset) == data
            assert len(code._inverses) <= code.MAX_INVERSES
        assert len(code._inverses) == code.MAX_INVERSES
        # evicted subsets are simply inverted again
        assert code.decode(subsets[0]) == data


class TestScalarMultiplicationCount:
    def test_verify_multiplies_per_subset_not_per_byte(self, monkeypatch):
        """The gain, kept without a clock: ``verify`` of a 4 KiB item makes
        at most the ``2k³`` scalar products of one share-matrix inversion
        (the per-byte codec made at least ``k`` per plaintext byte)."""
        net = OverlappingDHNetwork(128, np.random.default_rng(3))
        store = ErasureStore(net)
        data = _blob(4, 4096)
        store.put("doc", data)
        item = store._items["doc"]
        k = item.code.k
        # lose the first data share so the decode has a matrix to invert
        alive = set(net.points) - {next(iter(item.share_at))}
        item.code._inverses.clear()  # codes are shared: forget other tests'

        calls = []
        scalar_mul = erasure._mul  # elimination's unchecked product

        def counted(a, b):
            calls.append(1)
            return scalar_mul(a, b)

        monkeypatch.setattr(erasure, "_mul", counted)
        assert store.verify("doc", alive) is True
        assert 0 < len(calls) <= 2 * k ** 3 < k * len(data)
        first = len(calls)
        assert store.verify("doc", alive) is True      # inverse remembered
        assert len(calls) == first


class TestCopiesKeepWorking:
    """Network, engine and store survive pickle / deepcopy (the spine
    restores each pass's state with ``pickle``): derived tables included."""

    @pytest.mark.parametrize("clone", [
        lambda obj: pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trip_then_one_more_batch_and_verify(self, clone):
        rng = np.random.default_rng(11)
        net = OverlappingDHNetwork(64, rng)
        engine = FTBatchEngine(net)
        store = ErasureStore(net)
        blobs = {f"item{i}": _blob(i, 200 + 17 * i) for i in range(6)}
        for key, data in blobs.items():
            store.put(key, data)
        plan = random_failstop(net.points, 0.1, rng)
        alive = set(net.points) - plan.failed
        report = store.heal(alive)
        assert report.repaired > 0 and report.lost == 0

        net2, engine2, store2 = clone((net, engine, store))
        assert engine2.net is net2 and store2.net is net2
        assert np.array_equal(net2.cover_class, net.cover_class)

        src = net.points_array[rng.integers(0, net.n, size=50)]
        tgt = rng.random(50)
        ys = rng.random(200)
        for a, b in zip(net.cover_table(ys), net2.cover_table(ys)):
            assert np.array_equal(a, b)
        for batch in (
            lambda e: e.batch_simple_lookup(
                src, tgt, plan=plan, rng=np.random.default_rng(5)),
            lambda e: e.batch_resistant_lookup(src, tgt, plan=plan),
        ):
            one, two = batch(engine), batch(engine2)
            assert np.array_equal(one.success, two.success)
            assert np.array_equal(one.messages, two.messages)
        for key, data in blobs.items():
            assert store2.verify(key, alive) is True
            assert store2.get(key, alive) == data
        # a second wave of failures heals on the copy as on the original
        more = set(list(alive)[::7])
        left = store.heal(alive - more)
        assert store2.heal(alive - more) == left
        assert all(store2.verify(key, alive - more) ==
                   store.verify(key, alive - more) for key in blobs)
