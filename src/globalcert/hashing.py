"""Numbered (k, l)-hash-function family and perfect-hash search.

The family maps {0, ..., l-1} into {0, ..., k-1} and is indexed densely by
0 <= index < family_size(k, l) with family_size(k, l) = ceil(k * e^k * log2 l).
Members are avalanche mixers seeded by their index, so any candidate can be
evaluated directly without materializing tables.

The size is computed in integers, from lower and upper bounds of e^k and
log2 l in binary fixed point, for k up to MAX_FAMILY_K = 20000.

A uniformly random function is injective on a fixed k-set with probability
k!/k^k, so scanning for a perfect member costs about e^k / sqrt(2*pi*k)
candidates in expectation. The scan tests blocks of members in numpy at
2.3-2.8 million probes per second (a 2-vCPU Xeon VM), so an honest proof at
k = 16 took a median 0.43 s and at k = 18 2.3 s. Each step of k costs
about e times more, so the exponential search keeps honest proving
desk-scale at lambda = 1. A scan stops with TooLarge after MAX_SCAN_PROBES
= 10^8 members, about 40 s at that rate, so a large k is refused rather
than scanned without end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NewType

from .errors import InvalidParams, NoPerfectHash, TooLarge

HashIndex = NewType("HashIndex", int)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_HIGH_SALT = 0xC2B2AE3D27D4EB4F
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

MAX_FAMILY_K = 20_000
# members a perfect-hash scan probes before it raises TooLarge
MAX_SCAN_PROBES = 10**8


def _e_bounds(p: int) -> tuple[int, int]:
    """lo <= e * 2^p <= hi. The series sums 2^p / i!, each term floored from
    the last: every term is short of its true value by less than 2, and
    once a term is 0 the rest of the series sums to less than 4."""
    total, term, i = 0, 1 << p, 0
    while term:
        total += term
        i += 1
        term //= i
    return total, total + 2 * i + 4


def _atanh_bounds(a: int, b: int, p: int) -> tuple[int, int]:
    """lo <= atanh(a / b) * 2^p <= hi for 0 <= a / b < 1/3. The series sums
    x^(2j+1) / (2j+1), each power floored from the last: every term is
    short of its true value by less than 2, and once a power is 0 the rest
    of the series sums to less than 2."""
    total, power, j = 0, (a << p) // b, 0
    while power:
        total += power // (2 * j + 1)
        j += 1
        power = power * a * a // (b * b)
    return total, total + 2 * j + 2


def _log2_bounds(ell: int, p: int) -> tuple[int, int]:
    """lo <= log2(ell) * 2^p <= hi, as m + ln r / ln 2 with ell = r * 2^m,
    r in [1, 2): ln r = 2 atanh((ell - 2^m) / (ell + 2^m)) and
    ln 2 = 2 atanh(1/3)."""
    m = ell.bit_length() - 1
    r_lo, r_hi = _atanh_bounds(ell - (1 << m), ell + (1 << m), p)
    two_lo, two_hi = _atanh_bounds(1, 3, p)
    return (m << p) + (r_lo << p) // two_hi, (m << p) - (-(r_hi << p) // two_lo)


def _power_bound(x: int, k: int, p: int, up: bool) -> int:
    """x^k at scale 2^p by binary powering, every product rounded down, or
    up if `up`, so the result bounds the true power."""
    result = 1 << p
    while k:
        if k & 1:
            result = -(-result * x >> p) if up else result * x >> p
        x = -(-x * x >> p) if up else x * x >> p
        k >>= 1
    return result


@lru_cache(maxsize=None)
def family_size(k: int, ell: int) -> int:
    """Exact ceil(k * e^k * log2(ell)); the degenerate l = 1 family has size 1.

    The product lies between k * e_lo^k * log2_lo and k * e_hi^k * log2_hi
    at scale 2^(2p), each factor bounded as its helper states. p starts at
    64 + 3k/2 + 2 bitlen(log2 l) fractional bits, past the 1.45k integer
    bits of e^k, and doubles until the two ceilings agree; that ends because
    the product is never an integer for k >= 1, l >= 2. A k above
    MAX_FAMILY_K is refused with InvalidParams before any arithmetic; one
    evaluation at the cap took 0.2-0.6 s on a 2-vCPU Xeon VM (Python 3.11).
    """
    if k < 1:
        raise InvalidParams("k must be positive")
    if k > MAX_FAMILY_K:
        raise InvalidParams(f"family of {k} buckets is above the cap of {MAX_FAMILY_K}")
    if k > ell:
        raise InvalidParams(f"family needs k <= ell, got k={k}, ell={ell}")
    if ell == 1:
        return 1
    p = 64 + 3 * k // 2 + 2 * (ell.bit_length() - 1).bit_length()
    while True:
        e_lo, e_hi = _e_bounds(p)
        log_lo, log_hi = _log2_bounds(ell, p)
        lo = -(-k * _power_bound(e_lo, k, p, False) * log_lo >> 2 * p)
        hi = -(-k * _power_bound(e_hi, k, p, True) * log_hi >> 2 * p)
        if lo == hi:
            return hi
        p *= 2


def _fin(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_input(x: int) -> int:
    # 128-bit input folded to one 64-bit word; depends only on x, so
    # searches over many indices hoist this out of the scan loop.
    a = _fin((x & _MASK64) ^ _GOLDEN)
    b = _fin((x >> 64) ^ _HIGH_SALT)
    return a ^ (((b << 32) | (b >> 32)) & _MASK64)


def eval_hash(index: int, x: int, k: int) -> int:
    """Apply family member `index` to `x`, returning a bucket in {0, ..., k-1}.

    Bit-exact: all steps are unsigned 64-bit with wraparound; the final
    bucket is the mixed word mod k (bias <= k / 2^64, tolerated).
    """
    if k < 1:
        raise InvalidParams("k must be positive")
    if x < 0:
        raise InvalidParams("x must be non-negative")
    return _fin(_mix_input(x) ^ _fin(index)) % k


@dataclass(frozen=True)
class PerfectHashSearch:
    """Outcome of a family scan: the member found and the number of
    candidate indices probed before succeeding."""

    index: HashIndex
    probes: int


def _fin_words(z):
    """_fin on a numpy uint64 array, with the same 64-bit wraparound."""
    u64 = z.dtype.type
    z = (z ^ (z >> u64(30))) * u64(_MIX1)
    z = (z ^ (z >> u64(27))) * u64(_MIX2)
    return z ^ (z >> u64(31))


# a scan's blocks start at _FIRST_ROWS members and double while a block
# holds at most _BLOCK_CELLS buckets, so short scans stay short and long
# ones amortize numpy's per-call cost
_FIRST_ROWS = 32
_BLOCK_CELLS = 1 << 14


def member_blocks(keys, k: int, size: int):
    """Yield (start, buckets) over the members 0 .. size - 1 in blocks of
    consecutive members: row i of the uint64 array `buckets` holds member
    start + i's bucket of each key, in the order of `keys`. Each bucket is
    eval_hash's, the vectorised _fin of the member's salt xor the key's
    mixed word, mod k. numpy is imported here, on the first block."""
    import numpy as np

    u64 = np.uint64
    mixed = np.array([_mix_input(x) for x in keys], dtype=u64)
    most_rows = max(_FIRST_ROWS, _BLOCK_CELLS // max(1, len(mixed)))
    start, rows = 0, _FIRST_ROWS
    while start < size:
        stop = min(size, start + rows)
        salts = _fin_words(np.arange(stop - start, dtype=u64) + u64(start))
        yield start, _fin_words(mixed ^ salts[:, None]) % u64(k)
        start, rows = stop, min(2 * rows, most_rows)


def perfect_hash_search(keys: frozenset[int] | set[int], k: int, ell: int) -> PerfectHashSearch:
    """Scan indices 0, 1, 2, ... for the smallest member injective on `keys`.

    Requires len(keys) <= k <= ell and every key < ell. Raises TooLarge
    after MAX_SCAN_PROBES members without a perfect one, and NoPerfectHash
    if a smaller family is exhausted (never observed in practice; the family
    size leaves room for ~e^k misses).

    The scan tests the blocks of member_blocks in turn, and the first row
    whose sorted buckets are pairwise distinct wins. numpy is imported on
    the first block, so importing the package and verifying never load it.
    """
    if len(keys) > k:
        raise InvalidParams("more keys than buckets; no injective member exists")
    if k > ell:
        raise InvalidParams(f"family needs k <= ell, got k={k}, ell={ell}")
    for x in keys:
        if not 0 <= x < ell:
            raise InvalidParams(f"key {x} outside the family domain [0, {ell})")
    size = family_size(k, ell)
    for start, buckets in member_blocks(keys, k, min(size, MAX_SCAN_PROBES)):
        buckets.sort(axis=1)
        distinct = (buckets[:, 1:] != buckets[:, :-1]).all(axis=1)
        if distinct.any():
            index = start + int(distinct.argmax())
            return PerfectHashSearch(index=HashIndex(index), probes=index + 1)
    if size > MAX_SCAN_PROBES:
        raise TooLarge(f"none of the first {MAX_SCAN_PROBES} members of the ({k}, {ell}) family is injective")
    raise NoPerfectHash(f"no member of the ({k}, {ell}) family is injective on the keys")


def find_perfect_hash(keys: frozenset[int] | set[int], k: int, ell: int) -> HashIndex:
    """Smallest family index injective on `keys` (see perfect_hash_search)."""
    return perfect_hash_search(keys, k, ell).index
