import random

import pytest
from hypothesis import given, settings, strategies as st

from globalcert import (
    Bits,
    HashCertificate,
    IdListCertificate,
    IdRangePolicy,
    MalformedCertificate,
    SchemeParams,
    clique,
    decode_certificate,
    encode_certificate,
    gamma_len,
)
from globalcert.errors import InvalidParams
from globalcert.schemes import _Layout, _read_fields, _write_fields, decode_hash_payload, decode_idlist_payload


def test_known_gamma_codes():
    # gamma(n) is the prefix of every hash and id-list payload claiming n
    params = SchemeParams(clique(2), IdRangePolicy.fixed(16))
    cases = {1: "1", 2: "010", 3: "011", 4: "00100", 8: "0001000", 12: "0001100"}
    for n, code in cases.items():
        assert gamma_len(n) == len(code)
        hashed = encode_certificate(HashCertificate(n, 0, (0,) * n), params)
        listed = encode_certificate(IdListCertificate(tuple((i, 0) for i in range(n))), params)
        for cert in (hashed, listed):
            assert cert.payload.to01().startswith(code)
            assert decode_certificate(cert, params).claimed_n == n


def test_gamma_rejects_zero():
    with pytest.raises(InvalidParams):
        gamma_len(0)


def test_padding_rules():
    # K2 under fixed:4, a claim of 2: the hash payload is 10 bits, the id
    # list 9, so neither fills its last byte
    params = SchemeParams(clique(2), IdRangePolicy.fixed(4))
    honest = [
        (decode_hash_payload, encode_certificate(HashCertificate(2, 7, (0, 1)), params).payload.to01()),
        (decode_idlist_payload, encode_certificate(IdListCertificate(((0, 1), (3, 0))), params).payload.to01()),
    ]
    for decode, content in honest:
        assert len(content) % 8
        expected = decode(Bits.from01(content), params)
        fill = -len(content) % 8
        # exact length, and a zero fill up to the byte boundary: accepted
        assert decode(Bits.from01(content + "0" * fill), params) == expected
        garbage = [
            content + "0" * (fill - 1) + "1",  # a fill bit set
            content + "0" * (fill + 8),  # a byte more than the fill
            content + "0",  # a tail on a payload that is not whole bytes
            content + "0" * (fill - 1),
        ]
        for payload in garbage:
            with pytest.raises(MalformedCertificate, match="trailing garbage after payload"):
                decode(Bits.from01(payload), params)


def _round_trip_fields(data, widths):
    """Write gamma(n) and a value in fields exactly `widths` bits wide, check
    the payload is their binary digits, read it back with and without a zero
    fill to the byte, and return the digits and the layout."""
    n = data.draw(st.integers(1, 2**40))
    bounds = [data.draw(st.integers((1 << w - 1) + 1, 1 << w)) if w else 1 for w in widths]
    values = [data.draw(st.integers(0, bound - 1)) for bound in bounds]

    def layout_of(n):
        return _Layout(n, tuple(bounds), (), 0)

    payload = _write_fields(layout_of(n), values)
    content = format(n, f"0{2 * n.bit_length() - 1}b") + "".join(
        format(v, f"0{w}b") for v, w in zip(values, widths) if w
    )
    assert payload.to01() == content
    assert _read_fields(payload, layout_of) == (n, values)
    fill = -len(content) % 8
    assert _read_fields(Bits.from01(content + "0" * fill), layout_of) == (n, values)
    return content, layout_of


@given(st.data())
def test_write_read_round_trip(data):
    _round_trip_fields(data, data.draw(st.lists(st.integers(0, 70), max_size=20)))


@settings(max_examples=200)
@given(st.data())
def test_reads_at_any_offset_match_writes(data):
    # fields of 0..130 bits after one of up to 1100 bits, so that they
    # straddle byte boundaries at every offset; a set fill bit is garbage
    widths = [data.draw(st.integers(0, 1100))] + data.draw(st.lists(st.integers(0, 130), max_size=12))
    content, layout_of = _round_trip_fields(data, widths)
    fill = -len(content) % 8
    if fill:
        with pytest.raises(MalformedCertificate, match="trailing garbage after payload"):
            _read_fields(Bits.from01(content + "1".rjust(fill, "0")), layout_of)


def test_bits_value_semantics():
    a = Bits.from01("0110")
    b = Bits.from01("0110")
    assert a == b and len(a) == 4
    assert [a.bit(i) for i in range(4)] == [0, 1, 1, 0]
    with pytest.raises(IndexError):
        a.bit(4)
    with pytest.raises(InvalidParams):
        Bits(b"\x01", 4)  # nonzero padding in the backing byte


def test_bits_from_a_mutable_buffer_hold_bytes():
    buffer = bytearray(b"\x80")
    bits = Bits(buffer, 1)
    buffer[0] = 0
    assert bits == Bits(b"\x80", 1) and type(bits.data) is bytes
    assert hash(bits) == hash(Bits(b"\x80", 1))


def test_random_bit_strings_round_trip_through_bytes():
    rng = random.Random(7)
    for _ in range(50):
        s = "".join(rng.choice("01") for _ in range(rng.randrange(0, 64)))
        bits = Bits.from01(s)
        assert bits.to01() == s
        assert Bits(bits.data, bits.length) == bits


@pytest.mark.parametrize("text", ["1_0", " 10", "10 ", "+1", "-1", "2", "0b1", "1\n"])
def test_from01_takes_only_binary_digits(text):
    # int(text, 2) takes all of these but "2"
    with pytest.raises(InvalidParams, match="not a bit"):
        Bits.from01(text)


def test_to01_and_from01_round_trip_every_length():
    rng = random.Random(13)
    for length in range(2001):
        s = "".join(rng.choice("01") for _ in range(length))
        bits = Bits.from01(s)
        assert len(bits) == length and len(bits.data) == (length + 7) // 8
        assert bits.to01() == s
        if length <= 64:
            assert "".join(str(bits.bit(i)) for i in range(length)) == s
    assert Bits.from01("") == Bits.empty() and Bits.empty().to01() == ""
    assert Bits.from01("0" * 9).to01() == "0" * 9
