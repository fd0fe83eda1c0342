import random

import pytest
from hypothesis import given, strategies as st

from globalcert import BitReader, Bits, BitWriter, MalformedCertificate, gamma_len
from globalcert.errors import InvalidParams


def test_known_gamma_codes():
    cases = {1: "1", 2: "010", 3: "011", 4: "00100", 8: "0001000", 12: "0001100"}
    for n, bits in cases.items():
        w = BitWriter()
        w.write_gamma(n)
        assert w.getvalue().to01() == bits
        assert gamma_len(n) == len(bits)


def test_gamma_rejects_zero():
    with pytest.raises(InvalidParams):
        BitWriter().write_gamma(0)
    with pytest.raises(InvalidParams):
        gamma_len(0)


@given(st.integers(min_value=1, max_value=10**9))
def test_gamma_round_trip(n):
    w = BitWriter()
    w.write_gamma(n)
    r = BitReader(w.getvalue())
    assert r.read_gamma() == n
    assert r.bits_left() == 0


@given(st.lists(st.tuples(st.integers(0, 2**70), st.integers(0, 70)), max_size=20))
def test_write_read_round_trip(fields):
    fields = [(v & ((1 << w) - 1), w) for v, w in fields]
    writer = BitWriter()
    for v, w in fields:
        writer.write(v, w)
    reader = BitReader(writer.getvalue())
    for v, w in fields:
        assert reader.read(w) == v
    reader.expect_zero_padding()


@given(st.data())
def test_reads_at_any_offset_match_writes(data):
    # fields of 0..130 bits after a prefix of any length, then a tail that
    # leaves a partial last byte, so fields straddle byte and window edges
    widths = [data.draw(st.integers(0, 1100))]
    widths += data.draw(st.lists(st.integers(0, 130), max_size=12))
    tail = data.draw(st.integers(1, 7))
    if (sum(widths) + tail) % 8 == 0:
        tail += 1
    widths.append(tail)
    values = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
    writer = BitWriter()
    for v, w in zip(values, widths):
        writer.write(v, w)
    bits = writer.getvalue()
    assert bits.length % 8
    reader = BitReader(bits)
    assert [reader.read(w) for w in widths] == values
    assert reader.bits_left() == 0


def test_write_rejects_oversized_value():
    with pytest.raises(InvalidParams):
        BitWriter().write(4, 2)


def test_reader_overrun_is_malformed():
    w = BitWriter()
    w.write(5, 3)
    r = BitReader(w.getvalue())
    with pytest.raises(MalformedCertificate):
        r.read(4)


def test_padding_rules():
    # exact-length payload: nothing left
    w = BitWriter()
    w.write(0b101, 3)
    r = BitReader(w.getvalue())
    r.read(3)
    r.expect_zero_padding()

    # byte-aligned payload with zero fill after 3 content bits: tolerated
    r = BitReader(Bits.from01("10100000"))
    r.read(3)
    r.expect_zero_padding()

    # same but a padding bit set: rejected
    r = BitReader(Bits.from01("10100100"))
    r.read(3)
    with pytest.raises(MalformedCertificate):
        r.expect_zero_padding()

    # non-byte-aligned tail is not padding
    r = BitReader(Bits.from01("10100"))
    r.read(3)
    with pytest.raises(MalformedCertificate):
        r.expect_zero_padding()


def test_bits_value_semantics():
    a = Bits.from01("0110")
    b = Bits.from01("0110")
    assert a == b and len(a) == 4
    assert [a.bit(i) for i in range(4)] == [0, 1, 1, 0]
    with pytest.raises(IndexError):
        a.bit(4)
    with pytest.raises(InvalidParams):
        Bits(b"\x01", 4)  # nonzero padding in the backing byte


def test_random_bit_strings_round_trip_through_bytes():
    rng = random.Random(7)
    for _ in range(50):
        s = "".join(rng.choice("01") for _ in range(rng.randrange(0, 64)))
        bits = Bits.from01(s)
        assert bits.to01() == s
        assert Bits(bits.data, bits.length) == bits
