"""Unit tests for the k-wise independent hash families."""

import numpy as np
import pytest

from repro.hashing.kwise import MERSENNE_P, KWiseHash, PointHasher, key_to_int


class TestKeyToInt:
    def test_int_reduced_mod_p(self):
        assert key_to_int(MERSENNE_P + 5) == 5

    def test_string_deterministic(self):
        assert key_to_int("abc") == key_to_int("abc")

    def test_string_and_bytes_consistent(self):
        assert key_to_int("abc") == key_to_int(b"abc")

    def test_distinct_strings_differ(self):
        assert key_to_int("abc") != key_to_int("abd")

    def test_bool_distinct_from_int(self):
        assert key_to_int(True) != key_to_int(1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            key_to_int(1.5)


class TestKWiseHash:
    def test_range(self):
        rng = np.random.default_rng(0)
        h = KWiseHash(4, rng)
        for key in range(1000):
            assert 0.0 <= h(key) < 1.0

    def test_deterministic_per_instance(self):
        rng = np.random.default_rng(1)
        h = KWiseHash(4, rng)
        assert h("k") == h("k")

    def test_different_members_differ(self):
        rng = np.random.default_rng(2)
        h1, h2 = KWiseHash(4, rng), KWiseHash(4, rng)
        vals1 = [h1(i) for i in range(20)]
        vals2 = [h2(i) for i in range(20)]
        assert vals1 != vals2

    def test_uniform_marginals(self):
        """Empirical CDF of hashed keys close to uniform (KS-style check)."""
        rng = np.random.default_rng(3)
        h = KWiseHash(8, rng)
        vals = np.sort(h.hash_many(range(5000)))
        ecdf_dev = np.abs(vals - np.arange(5000) / 5000).max()
        assert ecdf_dev < 0.03

    def test_pairwise_independence_correlation(self):
        """Values on distinct keys are uncorrelated across family members."""
        rng = np.random.default_rng(4)
        a_vals, b_vals = [], []
        for _ in range(400):
            h = KWiseHash(2, rng)
            a_vals.append(h(12345))
            b_vals.append(h(54321))
        corr = np.corrcoef(a_vals, b_vals)[0, 1]
        assert abs(corr) < 0.15

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            KWiseHash(0, np.random.default_rng(0))

    def test_hash_many_matches_scalar(self):
        rng = np.random.default_rng(5)
        h = KWiseHash(3, rng)
        keys = ["a", "b", "c"]
        np.testing.assert_allclose(h.hash_many(keys), [h(k) for k in keys])

    def test_polynomial_structure(self):
        """Degree-(k-1) polynomial: k collinear constraints determine it."""
        rng = np.random.default_rng(6)
        h = KWiseHash(2, rng)  # affine: h(x) = (a x + b)/p
        a, b = h.coefficients[1], h.coefficients[0]
        x = 777
        assert h.hash_int(x) == (a * x + b) % MERSENNE_P

    def test_field_is_the_mersenne_prime(self):
        h = KWiseHash(5, np.random.default_rng(7))
        assert all(0 <= a < MERSENNE_P for a in h.coefficients)
        assert h("key") == h.hash_int("key") / MERSENNE_P


class TestPointHasher:
    def test_memoisation(self):
        rng = np.random.default_rng(7)
        ph = PointHasher(rng)
        v1 = ph("item")
        v2 = ph("item")
        assert v1 == v2

    def test_clear_memo_keeps_function(self):
        rng = np.random.default_rng(8)
        ph = PointHasher(rng)
        v1 = ph("item")
        ph.clear_memo()
        assert ph("item") == v1  # same family member, same value

    def test_k_exposed(self):
        ph = PointHasher(np.random.default_rng(9), k=16)
        assert ph.k == 16
