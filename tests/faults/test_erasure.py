"""Unit tests for erasure-coded storage (the §6.2 erasure-code remark)."""

import numpy as np
import pytest

from repro.faults import ErasureStore, GF256, OverlappingDHNetwork, ReedSolomonCode
from repro.faults.models import random_failstop


class TestGF256:
    def test_addition_is_xor(self):
        assert GF256.add(0x53, 0xCA) == 0x53 ^ 0xCA

    def test_multiplicative_identity(self):
        for a in (1, 7, 123, 255):
            assert GF256.mul(a, 1) == a

    def test_zero_annihilates(self):
        assert GF256.mul(0, 99) == 0
        assert GF256.mul(99, 0) == 0

    def test_known_product(self):
        # AES field: 0x53 * 0xCA = 0x01
        assert GF256.mul(0x53, 0xCA) == 0x01

    def test_inverse(self):
        for a in range(1, 256):
            assert GF256.mul(a, GF256.inv(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_mul_commutative_associative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c = (int(x) for x in rng.integers(0, 256, 3))
            assert GF256.mul(a, b) == GF256.mul(b, a)
            assert GF256.mul(a, GF256.mul(b, c)) == GF256.mul(GF256.mul(a, b), c)

    def test_distributive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = (int(x) for x in rng.integers(0, 256, 3))
            assert GF256.mul(a, GF256.add(b, c)) == GF256.add(
                GF256.mul(a, b), GF256.mul(a, c)
            )

    def test_pow(self):
        assert GF256.pow(2, 0) == 1
        assert GF256.pow(2, 1) == 2
        assert GF256.pow(2, 8) == 0x1B ^ 0x100 & 0xFF or GF256.pow(2, 8) == GF256.mul(GF256.pow(2, 4), GF256.pow(2, 4))


class TestReedSolomon:
    def test_roundtrip_all_shares(self):
        code = ReedSolomonCode(3, 6)
        data = b"the quick brown fox jumps over the lazy dog"
        shares = code.encode(data)
        assert len(shares) == 6
        assert code.decode(shares) == data

    def test_any_k_shares_suffice(self):
        code = ReedSolomonCode(3, 6)
        data = bytes(range(100))
        shares = code.encode(data)
        import itertools

        for combo in itertools.combinations(shares, 3):
            assert code.decode(list(combo)) == data

    def test_fewer_than_k_rejected(self):
        code = ReedSolomonCode(4, 8)
        shares = code.encode(b"data")
        with pytest.raises(ValueError):
            code.decode(shares[:3])

    def test_empty_payload(self):
        code = ReedSolomonCode(2, 4)
        assert code.decode(code.encode(b"")) == b""

    def test_binary_payload(self):
        rng = np.random.default_rng(2)
        data = bytes(rng.integers(0, 256, size=333, dtype=np.uint8))
        code = ReedSolomonCode(5, 9)
        shares = code.encode(data)
        assert code.decode(shares[4:]) == data  # parity-heavy subset

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 4)
        with pytest.raises(ValueError):
            ReedSolomonCode(5, 4)


class TestErasureStore:
    @pytest.fixture()
    def net(self):
        return OverlappingDHNetwork(128, np.random.default_rng(3))

    def test_put_get_roundtrip(self, net):
        store = ErasureStore(net)
        data = b"x" * 500
        n = store.put("doc", data)
        assert n >= 4
        assert store.get("doc") == data

    def test_survives_failstop_of_tolerated_shares(self, net):
        rng = np.random.default_rng(4)
        store = ErasureStore(net, data_fraction=0.5)
        data = b"precious bytes" * 20
        store.put("doc", data)
        tol = store.tolerance("doc")
        assert tol >= 1
        # kill exactly `tol` of the share holders
        holders = list(store._items["doc"].share_at)
        dead = set(holders[:tol])
        alive = set(net.points) - dead
        assert store.get("doc", alive=alive) == data

    def test_fails_beyond_tolerance(self, net):
        store = ErasureStore(net, data_fraction=0.5)
        store.put("doc", b"abc")
        holders = list(store._items["doc"].share_at)
        tol = store.tolerance("doc")
        alive = set(net.points) - set(holders[: tol + 1])
        with pytest.raises(ValueError):
            store.get("doc", alive=alive)

    def test_storage_beats_replication(self, net):
        """The Weatherspoon–Kubiatowicz point: same fault tolerance for
        a fraction of replication's bytes."""
        store = ErasureStore(net, data_fraction=0.5)
        data = b"y" * 1024
        store.put("doc", data)
        tol = store.tolerance("doc")
        replication_bytes = (tol + 1) * len(data)
        assert store.storage_bytes("doc") < replication_bytes

    def test_random_failstop_availability(self, net):
        """Under p=0.2 fail-stop the coded item stays retrievable."""
        rng = np.random.default_rng(5)
        store = ErasureStore(net, data_fraction=0.4)
        data = b"z" * 256
        store.put("doc", data)
        ok = 0
        for rep in range(20):
            plan = random_failstop(net.points, 0.2, rng)
            alive = set(net.points) - plan.failed
            try:
                ok += store.get("doc", alive=alive) == data
            except ValueError:
                pass
        assert ok >= 19

    def test_fraction_validation(self, net):
        with pytest.raises(ValueError):
            ErasureStore(net, data_fraction=0.0)
