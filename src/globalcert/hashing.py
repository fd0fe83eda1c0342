"""Numbered (k, l)-hash-function family and perfect-hash search.

The family maps {0, ..., l-1} into {0, ..., k-1} and is indexed densely by
0 <= index < family_size(k, l) with family_size(k, l) = ceil(k * e^k * log2 l).
Members are avalanche mixers seeded by their index, so any candidate can be
evaluated directly without materializing tables.

A uniformly random function is injective on a fixed k-set with probability
k!/k^k, so scanning for a perfect member costs about e^k / sqrt(2*pi*k)
candidates in expectation; that exponential search is what keeps honest
proving desk-scale (k up to ~14).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NewType

import mpmath

from .errors import InvalidParams, NoPerfectHash

HashIndex = NewType("HashIndex", int)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_HIGH_SALT = 0xC2B2AE3D27D4EB4F
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FAMILY_PRECISION_BITS = 384  # >= 192 fractional bits for k <= 64, l <= 2^128


def _ceil_exact(endpoint) -> int:
    # int() on an interval endpoint truncates exactly, independent of any
    # ambient mpmath precision; mpmath.ceil would re-round the mantissa.
    n = int(endpoint)
    return n if endpoint == n else n + 1


# (k, ell) whose size did not converge: lru_cache keeps no raised errors,
# and one failed evaluation of a large k costs most of a second
_UNRESOLVED: set[tuple[int, int]] = set()


@lru_cache(maxsize=None)
def family_size(k: int, ell: int) -> int:
    """Exact ceil(k * e^k * log2(ell)); the degenerate l = 1 family has size 1.

    Evaluated with interval arithmetic and directed rounding so the ceiling
    is provably correct; precision is doubled until both interval endpoints
    agree, which terminates because the product is never an integer for
    k >= 1, ell >= 2. After eight doublings it gives up with InvalidParams
    (k = 20000 still converges; k = 40000 does not), at most once per
    (k, ell) in a process.
    """
    if k < 1:
        raise InvalidParams("k must be positive")
    if k > ell:
        raise InvalidParams(f"family needs k <= ell, got k={k}, ell={ell}")
    if ell == 1:
        return 1
    if (k, ell) in _UNRESOLVED:
        raise InvalidParams(f"family_size({k}, {ell}) did not converge")
    iv = mpmath.iv
    prec = _FAMILY_PRECISION_BITS + 2 * k.bit_length()
    for _ in range(8):
        old = iv.prec
        try:
            iv.prec = prec
            product = iv.mpf(k) * iv.exp(iv.mpf(k)) * (iv.log(iv.mpf(ell)) / iv.log(iv.mpf(2)))
            lo = _ceil_exact(product.a)
            hi = _ceil_exact(product.b)
        finally:
            iv.prec = old
        if lo == hi:
            return lo
        prec *= 2
    _UNRESOLVED.add((k, ell))
    raise InvalidParams(f"family_size({k}, {ell}) did not converge")


@dataclass(frozen=True)
class HashFamilySpec:
    """Parameters of one (k, ell) family together with its exact size."""

    k: int
    ell: int
    size: int

    @classmethod
    def for_params(cls, k: int, ell: int) -> "HashFamilySpec":
        return cls(k=k, ell=ell, size=family_size(k, ell))

    @property
    def index_width(self) -> int:
        """Bits needed to write any member index, ceil(log2 size)."""
        return (self.size - 1).bit_length()


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


def is_perfect(index: int, keys: Iterable[int], k: int) -> bool:
    """True iff member `index` is injective on `keys`."""
    seen = 0
    for x in keys:
        bucket = 1 << eval_hash(index, x, k)
        if seen & bucket:
            return False
        seen |= bucket
    return True


@dataclass(frozen=True)
class PerfectHashSearch:
    """Outcome of a family scan: the member found and the number of
    candidate indices probed before succeeding."""

    index: HashIndex
    probes: int


def perfect_hash_search(keys: frozenset[int] | set[int], k: int, ell: int) -> PerfectHashSearch:
    """Scan indices 0, 1, 2, ... for the smallest member injective on `keys`.

    Requires len(keys) <= k <= ell and every key < ell. Raises NoPerfectHash
    if the whole family is exhausted (never observed in practice; the family
    size leaves room for ~e^k misses).
    """
    if len(keys) > k:
        raise InvalidParams("more keys than buckets; no injective member exists")
    if k > ell:
        raise InvalidParams(f"family needs k <= ell, got k={k}, ell={ell}")
    for x in keys:
        if not 0 <= x < ell:
            raise InvalidParams(f"key {x} outside the family domain [0, {ell})")
    size = family_size(k, ell)
    mixed = [_mix_input(x) for x in sorted(keys)]
    for index in range(size):
        salt = _fin(index)
        seen = 0
        for m in mixed:
            bucket = 1 << (_fin(m ^ salt) % k)
            if seen & bucket:
                break
            seen |= bucket
        else:
            return PerfectHashSearch(index=HashIndex(index), probes=index + 1)
    raise NoPerfectHash(f"no member of the ({k}, {ell}) family is injective on the keys")


def find_perfect_hash(keys: frozenset[int] | set[int], k: int, ell: int) -> HashIndex:
    """Smallest family index injective on `keys` (see perfect_hash_search)."""
    return perfect_hash_search(keys, k, ell).index
