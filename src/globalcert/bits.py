"""Bit strings, MSB-first packing, and the length of the Elias gamma code.

Payloads are sequences of bits. On disk they are packed MSB-first and
zero-padded to a byte boundary, so decoders tolerate up to 7 trailing
zero bits beyond the encoded content and reject anything else.

A `Bits` converts to and from a string of binary digits in one step each
way; the field codec in `schemes` writes a payload as such a string and
reads it as one integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams


@dataclass(frozen=True)
class Bits:
    """Immutable bit string: `data` packed MSB-first, `length` exact."""

    data: bytes
    length: int

    def __post_init__(self):
        # bytes, not a mutable buffer: a Bits is hashed, as a cache key
        object.__setattr__(self, "data", bytes(self.data))
        if self.length < 0 or len(self.data) != (self.length + 7) // 8:
            raise InvalidParams("bit length inconsistent with backing bytes")
        if self.length % 8:
            # padding bits must be zero so equal bit strings compare equal
            if self.data[-1] & ((1 << (8 - self.length % 8)) - 1):
                raise InvalidParams("nonzero padding bits")

    def __len__(self) -> int:
        return self.length

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.data[i // 8] >> (7 - i % 8)) & 1

    def to01(self) -> str:
        # the leading 1 keeps the leading zeros, and gives "" for no bits
        return format(int.from_bytes(self.data, "big") >> (-self.length % 8) | 1 << self.length, "b")[1:]

    @classmethod
    def from01(cls, s: str) -> "Bits":
        # int() alone would also take "_", spaces and a sign
        bad = s.strip("01")
        if bad:
            raise InvalidParams(f"not a bit: {bad[0]!r}")
        value = int(s or "0", 2) << (-len(s) % 8)
        return cls(value.to_bytes((len(s) + 7) // 8, "big"), len(s))

    @classmethod
    def empty(cls) -> "Bits":
        return cls(b"", 0)


def gamma_len(n: int) -> int:
    """Bit length of the Elias gamma code of n >= 1."""
    if n < 1:
        raise InvalidParams("gamma code needs n >= 1")
    return 2 * n.bit_length() - 1
