"""Bit strings, MSB-first packing, and the Elias gamma code.

Payloads are sequences of bits. On disk they are packed MSB-first and
zero-padded to a byte boundary, so decoders tolerate up to 7 trailing
zero bits beyond the encoded content and reject anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams, MalformedCertificate


@dataclass(frozen=True)
class Bits:
    """Immutable bit string: `data` packed MSB-first, `length` exact."""

    data: bytes
    length: int

    def __post_init__(self):
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
        return "".join(str(self.bit(i)) for i in range(self.length))

    @classmethod
    def from01(cls, s: str) -> "Bits":
        w = BitWriter()
        for ch in s:
            if ch not in "01":
                raise InvalidParams(f"not a bit: {ch!r}")
            w.write(int(ch), 1)
        return w.getvalue()

    @classmethod
    def empty(cls) -> "Bits":
        return cls(b"", 0)


class BitWriter:
    """Append-only bit accumulator; MSB of each value written first."""

    __slots__ = ("_chunks", "_acc", "_nacc", "_length")

    def __init__(self):
        self._chunks = bytearray()
        self._acc = 0
        self._nacc = 0
        self._length = 0

    def write(self, value: int, width: int) -> None:
        if width < 0:
            raise InvalidParams("negative width")
        if value < 0 or value >> width:
            raise InvalidParams(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nacc += width
        self._length += width
        while self._nacc >= 8:
            self._nacc -= 8
            self._chunks.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    def write_gamma(self, n: int) -> None:
        """Elias gamma: bit_length(n)-1 zeros, then n in binary MSB-first."""
        if n < 1:
            raise InvalidParams("gamma code needs n >= 1")
        width = n.bit_length()
        self.write(0, width - 1)
        self.write(n, width)

    def getvalue(self) -> Bits:
        out = bytearray(self._chunks)
        if self._nacc:
            out.append((self._acc << (8 - self._nacc)) & 0xFF)
        return Bits(bytes(out), self._length)


def gamma_len(n: int) -> int:
    """Bit length of the Elias gamma code of n >= 1."""
    if n < 1:
        raise InvalidParams("gamma code needs n >= 1")
    return 2 * n.bit_length() - 1


_WINDOW_BYTES = 128


class BitReader:
    """Sequential reader over a Bits value; raises MalformedCertificate
    on overrun so verifiers can map it to a reject decision.

    A read cuts its field from a window, the integer of at least
    _WINDOW_BYTES payload bytes (fewer at the end) from the field's first
    byte on, kept until a read runs past it: a read's cost does not grow
    with the payload, and a short payload is converted only once.
    """

    __slots__ = ("_data", "_length", "_pos", "_window", "_window_end")

    def __init__(self, bits: Bits):
        self._data = bits.data
        self._length = bits.length
        self._pos = 0
        self._window = 0
        self._window_end = 0  # bit position just past the window's last byte

    def read(self, width: int) -> int:
        if width < 0:
            raise InvalidParams("negative width")
        end = self._pos + width
        if end > self._length:
            raise MalformedCertificate("payload truncated")
        if end > self._window_end:
            first = self._pos >> 3
            last = max((end + 7) >> 3, first + _WINDOW_BYTES)
            self._window = int.from_bytes(self._data[first:last], "big")
            self._window_end = min(last, len(self._data)) << 3
        self._pos = end
        return (self._window >> (self._window_end - end)) & ((1 << width) - 1)

    def read_gamma(self) -> int:
        zeros = 0
        while self.read(1) == 0:
            zeros += 1
        rest = self.read(zeros)
        return (1 << zeros) | rest

    def bits_left(self) -> int:
        return self._length - self._pos

    def expect_zero_padding(self) -> None:
        """Consume the tail: either nothing remains, or the payload was
        byte-padded and exactly the zero fill up to the boundary remains."""
        tail = self.bits_left()
        if tail == 0:
            return
        pad_to_byte = (8 - self._pos % 8) % 8
        if self._length % 8 or tail != pad_to_byte or self.read(tail) != 0:
            raise MalformedCertificate("trailing garbage after payload")
