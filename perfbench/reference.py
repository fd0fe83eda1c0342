"""Independent reference computations for the benchmark's output checks.

Nothing here imports globalcert: every check compares the program's output
against a value computed from this module alone.

* the SplitMix64-finaliser mixer of the hash family (numpy, 64-bit
  wraparound), checked against ``tests/data/mixer_golden.txt``;
* ``ceil(k * e^k * log2 M)``, the family size, in decimal arithmetic at a
  fixed number of spare digits;
* the documented payload layouts and a reader for them;
* brute-force colouring for tiny graphs, the per-node decision rule, and
  the two hardness measures used to draw instances of a steady cost.
"""

from __future__ import annotations

import itertools
import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import numpy as np

_U = np.uint64
_MASK64 = (1 << 64) - 1
_GOLDEN = _U(0x9E3779B97F4A7C15)
_HIGH_SALT = _U(0xC2B2AE3D27D4EB4F)
_MIX1 = _U(0xBF58476D1CE4E5B9)
_MIX2 = _U(0x94D049BB133111EB)


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# the mixer
# ---------------------------------------------------------------------------


def _fin(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U(30))) * _MIX1
    z = (z ^ (z >> _U(27))) * _MIX2
    return z ^ (z >> _U(31))


def mixed_keys(keys) -> np.ndarray:
    """Fold each (up to 128-bit) key to the 64-bit word the family salts."""
    low = np.array([x & _MASK64 for x in keys], dtype=_U)
    high = np.array([x >> 64 for x in keys], dtype=_U)
    a = _fin(low ^ _GOLDEN)
    b = _fin(high ^ _HIGH_SALT)
    return a ^ ((b << _U(32)) | (b >> _U(32)))


def bucket_table(indices, keys, k: int) -> np.ndarray:
    """buckets[i, j] = member indices[i] applied to keys[j], in [0, k)."""
    # the family reads its member index modulo 2^64
    salts = _fin(np.array([i & _MASK64 for i in indices], dtype=_U))
    return _fin(mixed_keys(keys)[None, :] ^ salts[:, None]) % _U(k)


def buckets_of(index: int, keys, k: int) -> list[int]:
    return [int(b) for b in bucket_table([index], keys, k)[0]]


def first_perfect_index(keys, k: int, limit: int) -> int | None:
    """Smallest member index injective on `keys`, or None if it is >= limit."""
    mixed = mixed_keys(sorted(keys))[None, :]
    start, chunk = 0, 1024
    while start < limit:
        stop = min(limit, start + chunk)
        salts = _fin(np.arange(start, stop, dtype=_U))
        rows = np.sort(_fin(mixed ^ salts[:, None]) % _U(k), axis=1)
        injective = np.all(rows[:, 1:] != rows[:, :-1], axis=1)
        hits = np.flatnonzero(injective)
        if hits.size:
            return start + int(hits[0])
        start, chunk = stop, min(chunk * 2, 1 << 15)
    return None


def check_golden_vectors(path: Path) -> int:
    """Compare the mixer with the committed golden vectors; returns the count."""
    lines = path.read_text().split("\n")
    rows = [tuple(int(f) for f in line.split()) for line in lines if line.strip()]
    for index, x, k, bucket in rows:
        got = buckets_of(index, [x], k)[0]
        require(got == bucket, f"reference mixer gives {got} for {index} {x} {k}, golden {bucket}")
    return len(rows)


def injective_probability(n: int, k: int) -> float:
    """Chance that a uniform function hits n distinct buckets out of k."""
    return math.prod((k - i) / k for i in range(n))


def probes_at_quantile(p: float, q: float) -> int:
    """Scan length (index + 1) at quantile q of the geometric law with success p."""
    return max(1, math.ceil(math.log1p(-q) / math.log1p(-p)))


# ---------------------------------------------------------------------------
# family size and payload layouts
# ---------------------------------------------------------------------------

_SPARE_DIGITS = 50


def family_size(k: int, ell: int) -> int:
    """ceil(k * e^k * log2 ell) with 50 decimal digits beyond the integer part."""
    if ell == 1:
        return 1
    with localcontext() as ctx:
        ctx.prec = _SPARE_DIGITS + int(0.4343 * k) + len(str(k)) + len(str(ell))
        value = Decimal(k) * Decimal(k).exp() * (Decimal(ell).ln() / Decimal(2).ln())
        up = int(value.to_integral_value(rounding=ROUND_CEILING))
        down = int(value.to_integral_value(rounding=ROUND_FLOOR))
    require(up == down + 1, f"family size ({k}, {ell}) is too close to an integer")
    return up


def width(count: int) -> int:
    """Bits to write any of `count` values, ceil(log2 count)."""
    return (count - 1).bit_length()


def gamma_bits(n: int) -> int:
    return 2 * n.bit_length() - 1


def hash_layout_bits(n: int, buckets: int, id_range: int, values: int) -> int:
    """gamma(n) | member index | one table entry per bucket."""
    return gamma_bits(n) + width(family_size(buckets, id_range)) + buckets * width(values)


def idlist_layout_bits(n: int, id_range: int, values: int) -> int:
    """gamma(n) | n records of (identifier, colour)."""
    return gamma_bits(n) + n * (width(id_range) + width(values))


def bitmap_layout_bits(id_range: int, values: int) -> int:
    """One colour per identifier in [0, M)."""
    return id_range * width(values)


class Reader:
    """MSB-first reader over a payload given as packed bytes and a bit length."""

    def __init__(self, data: bytes, length: int):
        self.bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")[:length]
        self.pos = 0

    def read(self, count: int) -> int:
        require(self.pos + count <= len(self.bits), "payload shorter than its layout")
        chunk = self.bits[self.pos : self.pos + count]
        self.pos += count
        return int(chunk, 2) if chunk else 0

    def read_gamma(self) -> int:
        zeros = 0
        while self.read(1) == 0:
            zeros += 1
        return (1 << zeros) | self.read(zeros)

    def at_end(self) -> bool:
        return self.pos == len(self.bits)


def pack(bits: str) -> bytes:
    """A '0'/'1' string packed MSB-first and zero-padded to a byte."""
    pad = -len(bits) % 8
    return (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")


def read_hash_payload(data: bytes, length: int, id_range_of, multiplier, values: int):
    """(claimed n, member index, table) of a hash payload of exact length."""
    reader = Reader(data, length)
    n = reader.read_gamma()
    buckets = math.ceil(multiplier * n)
    index = reader.read(width(family_size(buckets, id_range_of(n))))
    table = [reader.read(width(values)) for _ in range(buckets)]
    require(reader.at_end(), "hash payload longer than its layout")
    return n, index, table


def read_idlist_payload(data: bytes, length: int, id_range_of, values: int):
    """(claimed n, records) of an id-list payload of exact length."""
    reader = Reader(data, length)
    n = reader.read_gamma()
    id_width = width(id_range_of(n))
    records = [(reader.read(id_width), reader.read(width(values))) for _ in range(n)]
    require(reader.at_end(), "id-list payload longer than its layout")
    return n, records


def read_bitmap_payload(data: bytes, length: int, id_range: int, values: int, ids) -> dict[int, int]:
    """Colour of each identifier in `ids`; every other entry must be zero."""
    require(length == bitmap_layout_bits(id_range, values), "bitmap payload length is not M * width")
    bits = Reader(data, length).bits
    w = width(values)
    colours = {i: int(bits[i * w : (i + 1) * w] or "0", 2) for i in ids}
    require(
        bits.count("1") == sum(c.bit_count() for c in colours.values()),
        "colour set at an identifier outside the graph",
    )
    return colours


# ---------------------------------------------------------------------------
# graphs: targets, colourings, decisions, hardness
# ---------------------------------------------------------------------------


def _symmetric(pairs) -> frozenset[tuple[int, int]]:
    return frozenset(pairs) | frozenset((b, a) for a, b in pairs)


TARGET_EDGES = {
    "K2": _symmetric([(0, 1)]),
    "K3": _symmetric([(0, 1), (0, 2), (1, 2)]),
    "C5": _symmetric([(i, (i + 1) % 5) for i in range(5)]),
}
TARGET_SIZE = {"K2": 2, "K3": 3, "C5": 5}


def is_homomorphism(edges, colour, target: str) -> bool:
    allowed = TARGET_EDGES[target]
    return all((colour[u], colour[v]) in allowed for u, v in edges)


def colourable(n: int, edges, target: str) -> bool:
    """Brute force over every colouring; tiny graphs only."""
    return any(
        is_homomorphism(edges, colour, target)
        for colour in itertools.product(range(TARGET_SIZE[target]), repeat=n)
    )


def node_decisions(n: int, edges, colour, target: str) -> tuple[bool, ...]:
    """A node accepts iff every incident edge carries an allowed colour pair."""
    allowed = TARGET_EDGES[target]
    accept = [True] * n
    for u, v in edges:
        if (colour[u], colour[v]) not in allowed:
            accept[u] = accept[v] = False
    return tuple(accept)


def backtrack_visits(n: int, edges, target: str, cap: int) -> int | None:
    """Search nodes that index-order backtracking (values ascending) visits
    before its first homomorphism, or None once more than `cap`."""
    allowed = TARGET_EDGES[target]
    size = TARGET_SIZE[target]
    earlier = [[] for _ in range(n)]
    for u, v in edges:
        earlier[max(u, v)].append(min(u, v))
    colour = [0] * n
    next_value = [0] * (n + 1)
    visits = 0
    v = 0
    while 0 <= v < n:
        while next_value[v] < size:
            c = next_value[v]
            next_value[v] += 1
            visits += 1
            if visits > cap:
                return None
            if all((c, colour[u]) in allowed for u in earlier[v]):
                colour[v] = c
                v += 1
                if v < n:
                    next_value[v] = 0
                break
        else:
            v -= 1
    return visits if v == n else None
