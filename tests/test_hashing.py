import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import globalcert.hashing as hashing
from globalcert import (
    HashIndex,
    InvalidParams,
    NoPerfectHash,
    PerfectHashSearch,
    TooLarge,
    eval_hash,
    family_size,
    find_perfect_hash,
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
    """Independent evaluation in mpmath floating point, with at least 50
    decimal digits beyond the integer digits of k * e^k * log2 ell (not the
    integer bounds the implementation uses)."""
    if ell == 1:
        return 1
    with mpmath.workdps(60 + k // 2):
        value = mpmath.mpf(k) * mpmath.exp(k) * mpmath.log(ell, 2)
        floor = int(value)
        return floor if value == floor else floor + 1


class TestFamilySize:
    def test_frozen_values(self):
        for (k, ell), expected in FROZEN_SIZES.items():
            assert family_size(k, ell) == expected

    def test_agrees_with_independent_oracle_on_grid(self):
        rng = random.Random(2)
        for k in (1, 2, 3, 5, 9, 16, 33, 64, 100, 300, 1000):
            ells = [k, k + 1, (1 << 128) - 1, 3 * k + 1]
            ells += [rng.randrange(k, 1 << rng.randrange(k.bit_length() + 1, 129)) for _ in range(4)]
            for ell in ells:
                assert family_size(k, ell) == oracle_family_size(k, ell), (k, ell)
        cap = hashing.MAX_FAMILY_K
        assert family_size(cap, cap**2) == oracle_family_size(cap, cap**2)

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

    def test_a_k_above_the_cap_is_refused_before_any_arithmetic(self, monkeypatch):
        def no_arithmetic(*args):
            raise AssertionError("bounds computed for a k above the cap")

        for helper in ("_e_bounds", "_atanh_bounds", "_log2_bounds", "_power_bound"):
            monkeypatch.setattr(hashing, helper, no_arithmetic)
        cap = hashing.MAX_FAMILY_K
        for k, ell in ((cap + 1, (cap + 1) ** 2), (40_000, 40_000**2), (10**9, 1 << 128)):
            with pytest.raises(InvalidParams, match="above the cap"):
                family_size(k, ell)

    def test_sizes_without_mpmath(self):
        # the package has no runtime dependency: with mpmath unimportable it
        # still sizes the family and accepts an honest hash certificate
        script = """
import sys
sys.modules["mpmath"] = None
from globalcert import (IdRangePolicy, SchemeParams, SchemeTag, clique, cycle, family_size,
                        prove_and_run, random_id_assignment)
assert family_size(12, 20736) == 28006552
params = SchemeParams(clique(2), IdRangePolicy.poly(2))
_, result = prove_and_run(cycle(6), random_id_assignment(6, 36, 1), SchemeTag.HASH, params)
assert result.all_accept, result.decisions
"""
        subprocess.run([sys.executable, "-c", script], check=True, timeout=60,
                       cwd=Path(__file__).parents[1] / "src")


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

    @pytest.mark.parametrize("x, k, message", [(1, 0, "k must be positive"), (-1, 2, "x must be non-negative")])
    def test_argument_validation(self, x, k, message):
        with pytest.raises(InvalidParams, match=message):
            eval_hash(0, x, k)

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


def scalar_scan(keys, k, ell):
    """The member-by-member scan, one key at a time with a bucket bitmask:
    the independent oracle for perfect_hash_search's block scan. None when
    no member of the family is injective on the keys."""
    mixed = [hashing._mix_input(x) for x in sorted(keys)]
    for index in range(family_size(k, ell)):
        salt = hashing._fin(index)
        seen = 0
        for m in mixed:
            bucket = 1 << (hashing._fin(m ^ salt) % k)
            if seen & bucket:
                break
            seen |= bucket
        else:
            return PerfectHashSearch(HashIndex(index), index + 1)
    return None


def block_starts(n, count):
    """The first `count` member indices at which the block scan of n keys
    starts a block."""
    starts, rows = [0], hashing._FIRST_ROWS
    most = max(rows, hashing._BLOCK_CELLS // max(1, n))
    while len(starts) < count:
        starts.append(starts[-1] + rows)
        rows = min(2 * rows, most)
    return starts


# key sets whose smallest perfect member is the last of one block or the
# first of the next: (keys, k, ell, index)
BLOCK_EDGE_CASES = [
    ((18, 39, 68), 3, 81, 31),
    ((24, 30, 45), 3, 81, 32),
    ((7, 24, 64, 438, 507), 5, 625, 95),
    ((17, 46, 61, 471, 497), 5, 625, 96),
    ((1074, 1443, 2711, 2731, 4405, 4428, 5294, 6121, 7592, 7597), 10, 10**4, 2015),
    ((832, 1182, 2080, 2140, 2202, 4631, 4785, 5926, 8042, 8840), 10, 10**4, 2016),
    # past the first block that the cell cap shortens
    ((764, 2298, 3331, 3531, 4239, 5095, 5356, 5546, 9859, 9910), 10, 10**4, 3653),
    ((474, 2933, 3104, 3794, 5789, 6220, 6236, 6322, 6774, 7399), 10, 10**4, 3654),
]


@st.composite
def scan_cases(draw):
    """(keys, k, ell) with n <= 12 keys, k = ceil(lambda n) buckets for
    lambda in {1, 3/2, 2}, and a domain of up to 2^128 identifiers."""
    n = draw(st.integers(0, 12))
    multiplier = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
    k = max(1, math.ceil(multiplier * n))
    bits = draw(st.integers(max(k, 2).bit_length(), 128))
    ell = draw(st.integers(max(k, 2), 1 << bits))
    keys = draw(st.sets(st.integers(0, ell - 1), min_size=n, max_size=n))
    return frozenset(keys), k, ell


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
            assert len({eval_hash(index, x, 3) for x in keys}) == 3

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
                assert len({eval_hash(j, x, k) for x in keys}) < k

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
        # shrink the family to the members before the first perfect one:
        # the scan ends without a member and raises
        keys, k, ell, index = BLOCK_EDGE_CASES[-1]
        monkeypatch.setattr(hashing, "family_size", lambda k, ell: index)
        with pytest.raises(NoPerfectHash):
            perfect_hash_search(frozenset(keys), k, ell)
        monkeypatch.setattr(hashing, "family_size", lambda k, ell: index + 1)
        assert perfect_hash_search(frozenset(keys), k, ell).index == index

    def test_scan_cap_raises_too_large(self, monkeypatch):
        # a cap at the members before the first perfect one stops the scan;
        # one more member finds it, with the same index and probe count
        keys, k, ell, index = BLOCK_EDGE_CASES[-1]
        assert family_size(k, ell) > index + 1
        monkeypatch.setattr(hashing, "MAX_SCAN_PROBES", index)
        with pytest.raises(TooLarge, match=f"first {index} members"):
            perfect_hash_search(frozenset(keys), k, ell)
        monkeypatch.setattr(hashing, "MAX_SCAN_PROBES", index + 1)
        assert perfect_hash_search(frozenset(keys), k, ell) == PerfectHashSearch(HashIndex(index), index + 1)
        # a family no larger than the cap still ends in NoPerfectHash
        monkeypatch.setattr(hashing, "family_size", lambda k, ell: index)
        with pytest.raises(NoPerfectHash):
            perfect_hash_search(frozenset(keys), k, ell)

    def test_scan_cap_makes_prove_exit_3(self, tmp_path, capsys, monkeypatch):
        from globalcert.cli import main

        graph = tmp_path / "g.txt"
        assert main(["gen", "--n", "8", "--seed", "2", "--id-range", "poly:2", "--out", str(graph)]) == 0
        prove = ["prove", "--scheme", "hash", "--graph", str(graph), "--id-range", "poly:2",
                 "--out", str(tmp_path / "c.bin")]
        assert main(prove) == 0
        probes = int(capsys.readouterr().out.split("probes=")[1])
        assert probes > 1
        monkeypatch.setattr(hashing, "MAX_SCAN_PROBES", probes - 1)
        assert main(prove) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("TooLarge: ") and captured.err.count("\n") == 1

    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    @example((frozenset(), 1, 1))
    @example((frozenset(), 4, 1 << 128))
    @example((frozenset({(1 << 128) - 1}), 2, 1 << 128))
    def test_block_scan_equals_the_scalar_scan(self, case):
        assert perfect_hash_search(*case) == scalar_scan(*case)

    @pytest.mark.parametrize("keys, k, ell, index", BLOCK_EDGE_CASES)
    def test_first_member_at_a_block_edge(self, keys, k, ell, index):
        starts = block_starts(len(keys), 12)
        assert index in starts or index + 1 in starts
        expected = PerfectHashSearch(HashIndex(index), index + 1)
        assert scalar_scan(keys, k, ell) == expected
        assert perfect_hash_search(frozenset(keys), k, ell) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 12, 63, 64, 65, 80])
    def test_every_block_cell_is_eval_hash(self, k):
        # 103 keys, some at and above 2^64: the cell cap shortens the fourth
        # block, two more follow it, and the family ends inside the last
        rng = random.Random(k)
        keys = [rng.getrandbits(bits) for bits in (8, 63, 64, 65, 128) for _ in range(20)]
        keys += [(1 << 64) - 1, 1 << 64, (1 << 128) - 1]
        starts = block_starts(len(keys), 7)
        assert starts[4] - starts[3] < 2 * (starts[3] - starts[2])
        size = starts[-1] - 5
        blocks = list(hashing.member_blocks(keys, k, size))
        assert [start for start, _ in blocks] == starts[:-1]
        assert sum(len(buckets) for _, buckets in blocks) == size
        for start, buckets in blocks:
            expected = [[eval_hash(start + i, x, k) for x in keys] for i in range(len(buckets))]
            assert buckets.tolist() == expected

    @pytest.mark.parametrize("n, k, index", [(0, 64, 0), (0, 66, 0), (32, 64, 2161), (33, 66, 11310)])
    def test_both_sides_of_the_bitmask_test(self, n, k, index):
        # the scan tests a row with one 64-bit mask up to k = 64 and sorts
        # it above; both find the scalar scan's member, past the cell cap
        rng = random.Random(0)
        keys = set()
        while len(keys) < n:
            keys.add(rng.getrandbits(rng.choice((20, 64, 65, 128))))
        expected = PerfectHashSearch(HashIndex(index), index + 1)
        assert scalar_scan(keys, k, 1 << 128) == expected
        assert perfect_hash_search(frozenset(keys), k, 1 << 128) == expected

    def test_import_and_verify_never_import_numpy(self, tmp_path):
        # numpy is imported at call time by the hash kernel, which the prover
        # and the audits run, and by the graph generator: an honest hash
        # certificate, found here member by member through eval_hash, of a
        # fixed graph passes the verify CLI without loading it
        script = """
import sys
from pathlib import Path
import globalcert
from globalcert import (
    Graph, IdRangePolicy, SchemeParams, clique, eval_hash, find_homomorphism, random_id_assignment, serialize_graph,
)
from globalcert.cli import main
from globalcert.schemes import HashCertificate, encode_certificate
work = Path(sys.argv[1])
graph_file, cert_file = str(work / "g.txt"), str(work / "g.cert")
graph = Graph.of(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
ids = random_id_assignment(6, 36, 3)
Path(graph_file).write_text(serialize_graph(graph, ids))
n = graph.vertex_count
index = next(i for i in range(10**6) if len({eval_hash(i, x, n) for x in ids.ids}) == n)
table = [0] * n
for x, color in zip(ids.ids, find_homomorphism(graph, clique(2))):
    table[eval_hash(index, x, n)] = color
params = SchemeParams(clique(2), IdRangePolicy.fixed(ids.id_range))
Path(cert_file).write_bytes(encode_certificate(HashCertificate(n, index, tuple(table)), params).to_bytes())
assert main(["verify", "--graph", graph_file, "--cert", cert_file]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], check=True, timeout=60,
                       capture_output=True, cwd=Path(__file__).parents[1] / "src")

    def test_gen_never_imports_numpy_random(self, tmp_path):
        # numpy.random adds about 7 MB of resident memory; the generator
        # draws from random.Random and loads numpy's core only
        script = """
import sys
from globalcert.cli import main
assert main(["gen", "--n", "50", "--target", "C5", "--seed", "3", "--out", sys.argv[1]]) == 0
assert "numpy" in sys.modules, "numpy was not imported"
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "g.txt")], check=True, timeout=60,
                       capture_output=True, cwd=Path(__file__).parents[1] / "src")


class TestIsPerfect:
    """A member is perfect on a key set when eval_hash is injective on it."""

    def test_singleton_always(self):
        # every member is injective on one key, so every scan stops at index 0
        for k, ell in ((1, 8), (3, 8), (9, 1 << 40)):
            assert perfect_hash_search({5}, k, ell) == PerfectHashSearch(HashIndex(0), 1)

    def test_pigeonhole(self, monkeypatch):
        # no member puts k + 1 keys in k buckets: refused before the family
        # is sized or scanned
        monkeypatch.setattr(hashing, "family_size", None)
        with pytest.raises(InvalidParams, match="more keys than buckets"):
            perfect_hash_search({0, 1, 2}, 2, 8)

    def test_found_index_is_perfect(self):
        keys = {3, 77, 1024}
        index = find_perfect_hash(keys, 3, 2**20)
        assert sorted(eval_hash(index, x, 3) for x in keys) == [0, 1, 2]
