import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import globalcert.hashing as hashing
from globalcert import (
    HashFamilySpec,
    InvalidParams,
    NoPerfectHash,
    eval_hash,
    family_size,
    find_perfect_hash,
    is_perfect,
    perfect_hash_search,
)

GOLDEN = Path(__file__).parent / "data" / "mixer_golden.txt"

# frozen truth: ceil(k * e^k * log2 ell), computed independently before the
# implementation existed
FROZEN_SIZES = {
    (1, 2): 3,
    (2, 16): 60,
    (3, 8): 181,
    (4, 8): 656,
    (2, 4): 30,
    (1, 8): 9,
    (2, 8): 45,
    (12, 20736): 28006552,
    (8, 1 << 64): 1526251,
    (8, 1 << 128): 3052501,
    (1, 1 << 128): 348,
    (14, 1 << 128): 2155066878,
    (64, 1 << 128): 51078341270008765504792483503543,
}


def oracle_family_size(k, ell):
    """Independent evaluation at fixed high precision (plain mpf context,
    not the interval arithmetic the implementation uses)."""
    if ell == 1:
        return 1
    old = mpmath.mp.dps
    try:
        mpmath.mp.dps = 160
        value = mpmath.mpf(k) * mpmath.exp(k) * mpmath.log(ell, 2)
        floor = int(value)
        return floor if value == floor else floor + 1
    finally:
        mpmath.mp.dps = old


class TestFamilySize:
    def test_frozen_values(self):
        for (k, ell), expected in FROZEN_SIZES.items():
            assert family_size(k, ell) == expected

    def test_agrees_with_independent_oracle_on_grid(self):
        rng = random.Random(2)
        cases = [(k, ell) for k in (1, 2, 3, 5, 9, 16, 33, 64) for ell in (None,)]
        for k, _ in cases:
            for _ in range(4):
                ell = rng.randrange(k, 1 << rng.randrange(k.bit_length() + 1, 129))
                assert family_size(k, ell) == oracle_family_size(k, ell)

    def test_degenerate_domain(self):
        assert family_size(1, 1) == 1

    def test_parameter_validation(self):
        with pytest.raises(InvalidParams):
            family_size(0, 4)
        with pytest.raises(InvalidParams):
            family_size(5, 4)

    def test_monotone_in_both_arguments(self):
        for k in range(1, 7):
            for ell in range(k, 40):
                here = family_size(k, ell)
                assert here >= 1
                if ell > k:
                    assert here >= family_size(k, ell - 1)
                if k > 1:
                    assert here >= family_size(k - 1, ell)

    def test_spec_helper(self):
        spec = HashFamilySpec.for_params(2, 4)
        assert spec.size == 30
        assert spec.index_width == 5
        assert HashFamilySpec.for_params(1, 1).index_width == 0

    def test_a_size_that_does_not_converge_is_tried_once(self, monkeypatch):
        # lru_cache keeps no raised error; the failed (k, ell) is kept instead
        monkeypatch.setattr(hashing, "_UNRESOLVED", set())
        endpoints = []
        ceil_exact = hashing._ceil_exact
        monkeypatch.setattr(hashing, "_ceil_exact", lambda x: endpoints.append(x) or ceil_exact(x))
        for _ in range(3):
            with pytest.raises(InvalidParams, match="did not converge"):
                family_size(40_000, 40_000**2)
        assert len(endpoints) == 16  # eight precisions, two endpoints, first call only


# --- independent mixer implementation on numpy uint64 words -----------------


def _np_fin(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def np_eval_hash(index, x, k):
    mask = (1 << 64) - 1
    x0 = np.uint64(x & mask)
    x1 = np.uint64((x >> 64) & mask)
    a = _np_fin(x0 ^ np.uint64(0x9E3779B97F4A7C15))
    b = _np_fin(x1 ^ np.uint64(0xC2B2AE3D27D4EB4F))
    with np.errstate(over="ignore"):
        rot = (b << np.uint64(32)) | (b >> np.uint64(32))
        d = _np_fin(a ^ rot ^ _np_fin(np.uint64(index & mask)))
    return int(d) % k


class TestMixer:
    def test_golden_vectors(self):
        lines = GOLDEN.read_text().strip().splitlines()
        assert len(lines) >= 40
        for line in lines:
            index, x, k, bucket = (int(f) for f in line.split())
            assert eval_hash(index, x, k) == bucket
            assert np_eval_hash(index, x, k) == bucket

    def test_agrees_with_independent_implementation(self):
        rng = random.Random(99)
        for _ in range(300):
            index = rng.randrange(1 << rng.randrange(1, 65))
            x = rng.randrange(1 << rng.randrange(1, 129))
            k = rng.randrange(1, 100)
            assert eval_hash(index, x, k) == np_eval_hash(index, x, k)

    def test_single_bucket(self):
        for x in (0, 7, 2**100):
            assert eval_hash(12345, x, 1) == 0

    def test_deterministic(self):
        assert eval_hash(3, 17, 5) == eval_hash(3, 17, 5)

    def test_pinned_origin_value(self):
        assert eval_hash(0, 0, 2) == 1

    @settings(max_examples=200)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**128 - 1),
        st.integers(1, 64),
    )
    def test_bucket_in_range(self, index, x, k):
        assert 0 <= eval_hash(index, x, k) < k


class TestPerfectHashSearch:
    def test_singleton_is_index_zero(self):
        assert find_perfect_hash({7}, 1, 100) == 0

    def test_two_keys_smallest_separating_index(self):
        found = find_perfect_hash({0, 1}, 2, 2)
        by_scan = next(
            i for i in range(family_size(2, 2)) if eval_hash(i, 0, 2) != eval_hash(i, 1, 2)
        )
        assert found == by_scan

    def test_three_subsets_of_eight(self):
        rng = random.Random(5)
        for _ in range(20):
            keys = set(rng.sample(range(8), 3))
            index = find_perfect_hash(keys, 3, 8)
            assert index < 181
            assert is_perfect(index, keys, 3)

    def test_minimality_by_full_prefix_scan(self):
        rng = random.Random(31)
        for _ in range(30):
            k = rng.randrange(1, 7)
            ell = rng.randrange(max(k, 2), 1 << 20)
            keys = set()
            while len(keys) < k:
                keys.add(rng.randrange(ell))
            result = perfect_hash_search(keys, k, ell)
            assert result.probes == result.index + 1
            for j in range(result.index)[:5000]:
                assert not is_perfect(j, keys, k)

    def test_randomized_injectivity(self):
        rng = random.Random(8)
        for _ in range(60):
            k = rng.randrange(1, 9)
            ell = rng.randrange(max(k, 2), 1 << 20)
            keys = set()
            while len(keys) < k:
                keys.add(rng.randrange(ell))
            index = find_perfect_hash(keys, k, ell)
            assert index < family_size(k, ell)
            buckets = {eval_hash(index, x, k) for x in keys}
            assert len(buckets) == k

    def test_parameter_validation(self):
        with pytest.raises(InvalidParams):
            find_perfect_hash({0, 1, 2}, 2, 8)  # more keys than buckets
        with pytest.raises(InvalidParams):
            find_perfect_hash({0, 1}, 3, 2)  # k > ell
        with pytest.raises(InvalidParams):
            find_perfect_hash({9}, 1, 8)  # key outside the domain

    def test_family_exhaustion_raises(self, monkeypatch):
        # collapse the family to constant functions: nothing separates two keys
        monkeypatch.setattr(hashing, "_fin", lambda z: 0)
        with pytest.raises(NoPerfectHash):
            perfect_hash_search({0, 1}, 2, 4)


class TestIsPerfect:
    def test_singleton_always(self):
        assert is_perfect(3, {5}, 1)

    def test_pigeonhole(self):
        assert not is_perfect(0, {0, 1, 2}, 2)

    def test_found_index_is_perfect(self):
        keys = {3, 77, 1024}
        assert is_perfect(find_perfect_hash(keys, 3, 2**20), keys, 3)
