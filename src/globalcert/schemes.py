"""The three global certification schemes for homomorphism to a target graph.

One certificate is shared by every node; each node decides accept/reject
from its LocalView alone. Payload layouts (all MSB-first):

  HASH    gamma(n) | index of a member of the family H(ceil(lambda n), M(n)),
                     ceil(log2 family_size(ceil(lambda n), M(n))) bits
                   | L, ceil(lambda n) entries of ceil(log2 n') bits each
  IDLIST  gamma(n) | n records of (ceil(log2 M(n)) id bits + color bits),
                   expected in strictly ascending id order
  BITMAP  M(n) * ceil(log2 n') bits; the color of the vertex with
          identifier i sits at position i * width; unassigned ids are zero.
          A payload is read as the largest M(n) * width that fits it and is
          valid iff that is all of it, or, for a whole number of bytes,
          all but at most 7 zero bits of padding

HASH and IDLIST share one field codec: each is gamma(n) and then fixed-width
fields, and the layout of a claim of n gives every field's bound. The writer
joins the binary digits of gamma(n) and of every field into one bit string;
the reader takes the payload as one integer, finds gamma(n) from its bit
length, and cuts the fields from the digits of the claim's layout alone.
The size formulas sum the same bounds.

Each verifier turns the payload into a color lookup (identifier -> color,
or None when the certificate gives it no valid color): L[h(id)] for HASH;
the record table for IDLIST, None everywhere if unsorted; the color at
position id for BITMAP, whose every entry must lie in the target. An
identifier outside [0, M), for the M of the claimed n or of the bitmap's
length, has no color. One check then accepts iff the node's own identifier
and its neighbors' have colors and every incident color pair is a target
edge.

The certificate is global, so its lookup depends only on the payload and
the params. `shared_lookup` builds it once for the nodes of a network: it
keeps the last (colors_of, payload, params) it saw, matched by identity
and then by value, and its lookup computes each identifier's color once.
A node verifier asks it for the lookup, so a network of n nodes decodes
once, not n times, while each node still decides alone.

The BITMAP prover and encoder share one writer, which lays every entry's
bits out in one numpy array and packs them in one step; the decoder reads
through the verifier's lookup.

The HASH path is shared with the CSP scheme, which differs only in what an
entry of L means: `prove_hash_table` is the one prover tail (perfect-hash
scan, bucket table, encode), `encode_hash_certificate` and
`decode_hash_payload` the one codec, and `hash_colors` the one lookup. Each
takes a HashFramework, the base of SchemeParams and CspParams, which gives
the value domain and the hash family of a claim.

The HASH verifier trusts the certificate's n only to derive M(n) and the
family; it never checks that the member is injective, because unanimous
acceptance already forces u -> L[h(Id(u))] to be a homomorphism.
"""

from __future__ import annotations

import bisect
import functools
import operator
from collections.abc import Callable
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import ClassVar

from . import hashing
from .bits import Bits, gamma_len
from .errors import (
    BitmapTooLarge,
    InvalidParams,
    MalformedCertificate,
    NotSatisfiable,
)
from .graphs import Graph, IdAssignment, IdRangePolicy, LocalView, TargetGraph
from .hashing import eval_hash, perfect_hash_search

BITMAP_MAX_RANGE = 1 << 26


class SchemeTag(IntEnum):
    """Certificate tag byte; doubles as the file-format discriminator."""

    BITMAP = 0x01
    IDLIST = 0x02
    HASH = 0x03

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "SchemeTag":
        try:
            return cls[label.upper()]
        except KeyError:
            raise InvalidParams(f"unknown scheme {label!r}") from None


@dataclass(frozen=True)
class Certificate:
    """Scheme-tagged payload; size accounting counts payload bits only."""

    scheme: SchemeTag
    payload: Bits

    def to_bytes(self) -> bytes:
        return bytes([self.scheme.value]) + self.payload.data

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Certificate":
        if not blob:
            raise MalformedCertificate("empty certificate file")
        try:
            tag = SchemeTag(blob[0])
        except ValueError:
            raise MalformedCertificate(f"unknown scheme tag {blob[0]:#x}") from None
        # exact bit length is unknown after byte padding; decoders accept
        # up to 7 trailing zero bits
        return cls(tag, Bits(blob[1:], 8 * (len(blob) - 1)))


def certificate_size_bits(cert: Certificate) -> int:
    """Payload bit count, excluding the tag byte. Prover-produced payloads
    are bit-exact; a file-loaded payload is measured with its zero padding
    because the file format stores no bit length."""
    return cert.payload.length


class HashFramework:
    """What the hash path needs of a framework, shared by SchemeParams and
    CspParams: an identifier-range policy `id_policy`, a bucket multiplier
    `range_multiplier` (>= 1; larger values speed up proving at the cost of
    a longer L) and a value domain `domain_size`."""

    def __post_init__(self):
        object.__setattr__(self, "range_multiplier", Fraction(self.range_multiplier))
        if self.range_multiplier < 1:
            raise InvalidParams("range multiplier must be >= 1")

    @property
    def value_width(self) -> int:
        """Bits per entry of L, ceil(log2 domain_size); zero for one value."""
        return (self.domain_size - 1).bit_length()

    def bucket_count(self, n: int) -> int:
        """ceil(lambda n), in integers."""
        return -(-self.range_multiplier.numerator * n // self.range_multiplier.denominator)

    def family(self, n: int) -> int:
        """The size of the family of a claim of n: ceil(lambda n) buckets
        over M(n) identifiers. Raises InvalidParams where M(n) is undefined,
        there are more buckets than identifiers, or more than the family
        size's cap."""
        return hashing.family_size(self.bucket_count(n), self.id_policy.evaluate(n))


@dataclass(frozen=True)
class SchemeParams(HashFramework):
    """Fixed framework shared by prover and verifier: the target graph, the
    identifier-range policy, and the optional bucket multiplier (default 1)."""

    target: TargetGraph
    id_policy: IdRangePolicy
    range_multiplier: Fraction = Fraction(1)

    @property
    def domain_size(self) -> int:
        """The values an entry of L can take: the target's vertex count."""
        return self.target.vertex_count


# ---------------------------------------------------------------------------
# one field codec for the HASH and IDLIST layouts, and for the CSP scheme,
# which shares the HASH layout
# ---------------------------------------------------------------------------


class _Layout:
    """A claim of n written as gamma(n), then the `head` fields, then `count`
    copies of the `record` fields, each given by its bound: a field holds a
    value below its bound in ceil(log2 bound) bits. Fields are kept as
    (bound, width) pairs."""

    def __init__(self, n: int, head: tuple[int, ...], record: tuple[int, ...], count: int):
        self.n, self.count = n, count
        self.head = [(bound, (bound - 1).bit_length()) for bound in head]
        self.record = [(bound, (bound - 1).bit_length()) for bound in record]

    def bits(self) -> int:
        return gamma_len(self.n) + sum(w for _, w in self.head) + self.count * sum(w for _, w in self.record)

    def fields(self) -> list[tuple[int, int]]:
        return self.head + self.record * self.count


def _hash_layout(n: int, params: HashFramework, payload_bits: int | None = None) -> _Layout:
    """HASH: a member index below family_size, then ceil(lambda n) entries
    below the domain size. Given a payload's length, it first refuses a
    claim the payload cannot hold, before family_size, whose cost grows
    with k up to about half a second at its cap of 20000 buckets."""
    buckets = params.bucket_count(n)
    # a claim n >= 2 needs M >= 2, so its family for k buckets has at least
    # e^k members: the index takes over 1.4426 k bits, the entries k * width
    if payload_bits is not None and n > 1 and \
            buckets * (14426 + 10000 * params.value_width) > 10000 * (payload_bits - gamma_len(n)):
        raise MalformedCertificate("claimed n larger than the payload allows")
    return _Layout(n, (params.family(n),), (params.domain_size,), buckets)


def _idlist_layout(n: int, params: SchemeParams, payload_bits: int | None = None) -> _Layout:
    """IDLIST: n records, each an identifier below M(n) and a color below n'.
    Given a payload's length, it first refuses a claim of more records than
    the payload has bits (for n >= 2, M(n) >= 2 and a record holds an
    identifier bit), before M(n), whose refusal would write n in decimal."""
    if payload_bits is not None and n > payload_bits:
        raise MalformedCertificate("claimed n larger than the payload allows")
    return _Layout(n, (), (params.id_policy.evaluate(n), params.domain_size), n)


def _write_fields(layout: _Layout, values) -> Bits:
    """gamma(n), then each value in its field; InvalidParams on a value
    outside [0, bound)."""
    fields = layout.fields()
    if len(values) != len(fields):
        raise InvalidParams(f"expected {len(fields)} fields, got {len(values)}")
    n = layout.n
    digits = ["0" * (n.bit_length() - 1), bin(n)[2:]]
    try:
        for value, (bound, width) in zip(values, fields):
            if not 0 <= value < bound:
                raise InvalidParams(f"field value {value} outside [0, {bound})")
            # value < 2^width: the leading 1 fixes the width, and width 0 gives ""
            digits.append(bin(value | 1 << width)[3:])
    except TypeError:
        raise InvalidParams(f"field value {value!r} is not an integer") from None
    return Bits.from01("".join(digits))


def _read_fields(payload: Bits, layout_of: Callable[[int], _Layout]) -> tuple[int, list[int]]:
    """The claimed n and the field values of a payload laid out as
    `layout_of(n)`; MalformedCertificate on a claim the payload cannot hold,
    a value at or above its bound, or anything but zero padding after."""
    length = payload.length
    # the payload as one integer of `total` bits, its padding bits zero
    value = int.from_bytes(payload.data, "big")
    total = 8 * len(payload.data)
    # gamma(n) is z zeros, then the z + 1 digits of n, whose leading 1 is
    # the payload's first 1
    zeros = total - value.bit_length()
    if 2 * zeros + 1 > length:
        raise MalformedCertificate("payload truncated")
    n = value >> (total - 2 * zeros - 1)
    try:
        layout = layout_of(n)
    except InvalidParams as exc:
        raise MalformedCertificate(str(exc)) from None
    # this bounds the fields below by the payload, but for zero-width ones:
    # an id-list record of width 0 needs M(n) = 1, so n = 1, and a hash
    # claim of many zero-width entries the hash guard refuses
    end = layout.bits()
    if end > length:
        raise MalformedCertificate("claimed n larger than the payload allows")
    # the claim's digits from n's leading 1 on: the fields start after n
    digits = format(value >> (total - end), "b")
    pos = zeros + 1
    values = []
    for bound, width in layout.fields():
        field = int(digits[pos:pos + width] or "0", 2)
        if field >= bound:
            raise MalformedCertificate(f"field value {field} outside [0, {bound})")
        values.append(field)
        pos += width
    if not _byte_filled(payload, end):
        raise MalformedCertificate("trailing garbage after payload")
    return n, values


def _byte_filled(payload: Bits, content: int) -> bool:
    """Whether the payload is its first `content` bits, or those bits
    zero-filled to a byte boundary: a fill of under 8 bits, which then lies
    in the last byte."""
    fill = payload.length - content
    return fill == 0 or (fill == -content % 8 and not payload.data[-1] & ((1 << fill) - 1))


def encode_assignment_fields(
    claimed_n: int, hash_index: int, values: tuple[int, ...], params: HashFramework
) -> Bits:
    if not isinstance(claimed_n, int):
        raise InvalidParams(f"claimed n {claimed_n!r} is not an integer")
    try:
        fields = (hash_index, *values)
    except TypeError:
        raise InvalidParams("hash entries are not a sequence") from None
    return _write_fields(_hash_layout(claimed_n, params), fields)


def decode_assignment_fields(payload: Bits, params: HashFramework) -> tuple[int, int, tuple[int, ...]]:
    """Inverse of encode_assignment_fields; raises MalformedCertificate on
    any syntactic violation, including out-of-range index or entries."""
    layout_of = functools.partial(_hash_layout, params=params, payload_bits=payload.length)
    claimed_n, (hash_index, *values) = _read_fields(payload, layout_of)
    return claimed_n, hash_index, tuple(values)


# ---------------------------------------------------------------------------
# decoded certificate forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HashCertificate:
    """Decoded HASH payload: the triplet (claimed n, member index, colors)."""

    scheme: ClassVar[SchemeTag] = SchemeTag.HASH
    claimed_n: int
    hash_index: int
    colors: tuple[int, ...]


@dataclass(frozen=True)
class IdListCertificate:
    """Decoded IDLIST payload: (identifier, color) records as written."""

    scheme: ClassVar[SchemeTag] = SchemeTag.IDLIST
    records: tuple[tuple[int, int], ...]

    @property
    def claimed_n(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class BitmapCertificate:
    """Decoded BITMAP payload: one color per identifier."""

    scheme: ClassVar[SchemeTag] = SchemeTag.BITMAP
    colors: tuple[int, ...]


def encode_hash_certificate(decoded: HashCertificate, params: HashFramework) -> Certificate:
    payload = encode_assignment_fields(decoded.claimed_n, decoded.hash_index, decoded.colors, params)
    return Certificate(SchemeTag.HASH, payload)


def decode_hash_payload(payload: Bits, params: HashFramework) -> HashCertificate:
    return HashCertificate(*decode_assignment_fields(payload, params))


def encode_idlist_certificate(decoded: IdListCertificate, params: SchemeParams) -> Certificate:
    """Record order is preserved verbatim; the verifier, not the encoder,
    is responsible for rejecting unsorted lists."""
    try:
        fields = [field for identifier, color in decoded.records for field in (identifier, color)]
    except (TypeError, ValueError):
        raise InvalidParams("an id-list record is not an (identifier, color) pair") from None
    return Certificate(SchemeTag.IDLIST, _write_fields(_idlist_layout(decoded.claimed_n, params), fields))


def decode_idlist_payload(payload: Bits, params: SchemeParams) -> IdListCertificate:
    _, fields = _read_fields(payload, functools.partial(_idlist_layout, params=params, payload_bits=payload.length))
    return IdListCertificate(tuple(zip(fields[::2], fields[1::2])))


def _write_bitmap(colors, params: SchemeParams, identifiers=slice(None), id_range: int | None = None) -> Certificate:
    """The bitmap of `id_range` entries, zero but for each of `colors` at
    its identifier in `identifiers`, or of one entry per color when only
    the colors are given; InvalidParams on a color outside the target.
    numpy is imported here, so that verifying loads none of it."""
    import numpy as np

    bound, width = params.domain_size, params.value_width
    try:
        # bytes() reads one-byte colors in one pass and refuses any outside
        # [0, 256); a target of more vertices takes the general path
        if bound <= 256:
            entries = np.frombuffer(bytes(colors), np.uint8)
        else:
            entries = np.fromiter(map(operator.index, colors), np.int64)
    except (TypeError, ValueError, OverflowError):
        entries = None
    if entries is None or entries.size and not 0 <= entries.min() <= entries.max() < bound:
        raise InvalidParams(f"a color is not a target vertex, an integer in [0, {bound})")
    # one row of bits per identifier, MSB first, packed in one step
    bits = np.zeros((len(entries) if id_range is None else id_range, width), np.uint8)
    bits[identifiers] = (entries[:, None] >> np.arange(width - 1, -1, -1, dtype=entries.dtype)) & 1
    return Certificate(SchemeTag.BITMAP, Bits(np.packbits(bits).tobytes(), bits.size))


def encode_bitmap_certificate(decoded: BitmapCertificate, params: SchemeParams) -> Certificate:
    return _write_bitmap(decoded.colors, params)


def _bitmap_content_bits(payload: Bits, params: SchemeParams) -> int:
    """Exact content length of a bitmap payload, by the BITMAP length rule
    of the module docstring: a smaller content leaves more bits over, so
    only the largest can pass."""
    width = params.value_width
    length = payload.length
    if width == 0:
        if not _byte_filled(payload, 0):
            raise MalformedCertificate("nonempty payload for a 1-vertex target")
        return 0

    def bits(n: int) -> int:
        try:
            return bitmap_payload_bits(n, params)
        except InvalidParams:
            return length + 1

    # non-decreasing by the properties IdRangePolicy states; M(n) >= n
    # bounds the n that fit
    n = bisect.bisect_right(range(1, length // width + 1), length, key=bits)
    if n and _byte_filled(payload, content := bits(n)):
        return content
    raise MalformedCertificate("payload length matches no identifier range")


def decode_bitmap_payload(payload: Bits, params: SchemeParams) -> BitmapCertificate:
    """Materialize the color of every identifier in the payload's range,
    read through the verifiers' lookup; desk-scale ranges only."""
    lookup = _bitmap_colors(payload, params)
    width = params.value_width
    id_range = _bitmap_content_bits(payload, params) // width if width else 0
    return BitmapCertificate(tuple(map(lookup, range(id_range))))


# ---------------------------------------------------------------------------
# provers (honest): check the identifiers, then find a homomorphism or raise
# NotSatisfiable, then lay the certificate out
# ---------------------------------------------------------------------------


def _homomorphism_or_refuse(graph: Graph, params: SchemeParams) -> tuple[int, ...]:
    from .oracle import find_homomorphism

    phi = find_homomorphism(graph, params.target)
    if phi is None:
        raise NotSatisfiable("graph admits no homomorphism to the target")
    return phi


def range_for_proving(ids: IdAssignment, count: int, policy: IdRangePolicy) -> int:
    """M(count), once every one of the `count` identifiers lies below it;
    each honest prover checks this before it searches."""
    id_range = policy.evaluate(count)
    if len(ids.ids) != count:
        raise InvalidParams("id assignment does not cover the graph")
    for i in ids.ids:
        if i >= id_range:
            raise InvalidParams(f"identifier {i} outside policy range M(n) = {id_range}")
    return id_range


def prove_hash_table(
    solution: tuple[int, ...],
    ids: IdAssignment,
    id_range: int,
    params: HashFramework,
) -> Certificate:
    """Certificate (n, h, L) for a solution of n variables or vertices whose
    identifiers `range_for_proving` has placed below `id_range`: h is the
    smallest family member injective on the identifier set, and L holds
    each solution value at the bucket its identifier hashes to, zero at
    unused buckets."""
    n = len(solution)
    buckets = params.bucket_count(n)
    search = perfect_hash_search(frozenset(ids.ids), buckets, id_range)
    table = [0] * buckets
    for identifier, value in zip(ids.ids, solution):
        table[eval_hash(search.index, identifier, buckets)] = value
    return encode_hash_certificate(HashCertificate(n, search.index, tuple(table)), params)


def prove_hash(
    graph: Graph,
    ids: IdAssignment,
    params: SchemeParams,
) -> Certificate:
    """Certificate (n, h, L) placing the colors of a homomorphism."""
    id_range = range_for_proving(ids, graph.vertex_count, params.id_policy)
    return prove_hash_table(_homomorphism_or_refuse(graph, params), ids, id_range, params)


def prove_idlist(
    graph: Graph,
    ids: IdAssignment,
    params: SchemeParams,
) -> Certificate:
    """One record per vertex, ascending by identifier: the identifier plus
    the vertex's color under a homomorphism."""
    range_for_proving(ids, graph.vertex_count, params.id_policy)
    phi = _homomorphism_or_refuse(graph, params)
    records = sorted((ids.id_of(v), phi[v]) for v in range(graph.vertex_count))
    return encode_idlist_certificate(IdListCertificate(tuple(records)), params)


def prove_bitmap(
    graph: Graph,
    ids: IdAssignment,
    params: SchemeParams,
) -> Certificate:
    """Color of the vertex with identifier i at position i; zero elsewhere."""
    id_range = range_for_proving(ids, graph.vertex_count, params.id_policy)
    if id_range > BITMAP_MAX_RANGE:
        raise BitmapTooLarge(f"M(n) = {id_range} exceeds the 2^26 bitmap cap")
    return _write_bitmap(_homomorphism_or_refuse(graph, params), params, list(ids.ids), id_range)


# ---------------------------------------------------------------------------
# verifiers (total on adversarial input: any malformation is a reject)
# ---------------------------------------------------------------------------

ColorLookup = Callable[[int], "int | None"]


def hash_colors(payload: Bits, params: HashFramework) -> ColorLookup:
    """Identifier -> L[h(identifier)] through the claimed family member, or
    None outside [0, M(claimed n)); the graph and the CSP verifiers share it."""
    decoded = decode_hash_payload(payload, params)
    id_range = params.id_policy.evaluate(decoded.claimed_n)
    index, colors, buckets = decoded.hash_index, decoded.colors, len(decoded.colors)
    return lambda i: colors[eval_hash(index, i, buckets)] if 0 <= i < id_range else None


def _idlist_colors(payload: Bits, params: SchemeParams) -> ColorLookup:
    records = decode_idlist_payload(payload, params).records
    if any(records[i][0] >= records[i + 1][0] for i in range(len(records) - 1)):
        return lambda identifier: None
    return dict(records).get


def _some_field_at_least(fields: int, count: int, width: int, bound: int) -> bool:
    """Whether one of the `count` width-bit fields packed in `fields` is at
    least `bound`, compared MSB first one bit plane at a time: `ones` has a
    1 at each field's lowest bit, and `equal` marks the fields whose high
    bits so far equal the bound's."""
    if bound >> width:
        return False
    ones = ((1 << (count * width)) - 1) // ((1 << width) - 1)
    greater, equal = 0, ones
    for j in reversed(range(width)):
        plane = (fields >> j) & ones
        if (bound >> j) & 1:
            equal &= plane
        else:
            greater |= equal & plane
    return (greater | equal) != 0


def _bitmap_colors(payload: Bits, params: SchemeParams) -> ColorLookup:
    """The entry at position id, or None outside [0, M); refuses the payload,
    as `decode_bitmap_payload` does, if any entry lies outside the target.
    A 1-vertex target's empty payload fits every M."""
    width = params.value_width
    content = _bitmap_content_bits(payload, params)
    if width == 0:
        return lambda identifier: 0 if identifier >= 0 else None
    id_range = content // width
    data = payload.data
    fields = int.from_bytes(data, "big") >> (8 * len(data) - content)
    if _some_field_at_least(fields, id_range, width, params.target.vertex_count):
        raise MalformedCertificate("color outside the target")

    def lookup(identifier: int) -> int | None:
        if not 0 <= identifier < id_range:
            return None
        color = 0
        for i in range(identifier * width, (identifier + 1) * width):
            color = (color << 1) | ((data[i >> 3] >> (7 - (i & 7))) & 1)
        return color

    return lookup


class _Colors(dict):
    """identifier -> color, each computed by `color_of` on its first lookup"""

    __slots__ = ("color_of",)

    def __init__(self, color_of: ColorLookup):
        self.color_of = color_of

    def __missing__(self, identifier: int) -> int | None:
        color = self[identifier] = self.color_of(identifier)
        return color


# the last (colors_of, payload, params) that shared_lookup saw, and its lookup
_last_lookup: list = [None, None, None, None]


def shared_lookup(colors_of, payload: Bits, params: HashFramework) -> ColorLookup | None:
    """`colors_of(payload, params)` with each identifier's color memoised,
    or None for a MalformedCertificate, which every node rejects.

    One entry, keyed by value: the nodes of one network share it, and the
    next certificate or params replace it. A node matches it by identity
    first, so the nodes of one network hash and compare nothing."""
    last_colors_of, last_payload, last_params, lookup = _last_lookup
    if colors_of is last_colors_of and (payload is last_payload or payload == last_payload) \
            and (params is last_params or params == last_params):
        return lookup
    try:
        lookup = _Colors(colors_of(payload, params)).__getitem__
    except MalformedCertificate:
        lookup = None
    _last_lookup[:] = colors_of, payload, params, lookup
    return lookup


def _clear_shared_lookup() -> None:
    _last_lookup[:] = None, None, None, None


shared_lookup.cache_clear = _clear_shared_lookup


def check(lookup: ColorLookup, view: LocalView, params: SchemeParams) -> bool:
    """One node's decision: its own identifier and every neighbor's have a
    color, and every incident color pair is a target edge."""
    own_color = lookup(view.own_id)
    if own_color is None:
        return False
    # every decoder bounds colors by the target, so the own color is a
    # target vertex; None, a neighbor with no color, is in no row
    row = params.target.neighbors(own_color)
    return all(map(row.__contains__, map(lookup, view.neighbor_ids)))


def _decide(colors_of, view: LocalView, params: SchemeParams) -> bool:
    lookup = shared_lookup(colors_of, view.certificate, params)
    return lookup is not None and check(lookup, view, params)


def verify_hash(view: LocalView, params: SchemeParams) -> bool:
    """Accept iff the payload decodes and every incident color pair, looked
    up through the claimed family member, is a target edge."""
    return _decide(hash_colors, view, params)


def verify_idlist(view: LocalView, params: SchemeParams) -> bool:
    """Accept iff records are strictly ascending, the node's own identifier
    and all neighbor identifiers occur, and incident color pairs are target
    edges."""
    return _decide(_idlist_colors, view, params)


def verify_bitmap(view: LocalView, params: SchemeParams) -> bool:
    """Accept iff the payload is one color per identifier of some policy
    range and every incident color pair is a target edge."""
    return _decide(_bitmap_colors, view, params)


# ---------------------------------------------------------------------------
# dispatch on the scheme tag
# ---------------------------------------------------------------------------

_ENCODERS = {
    SchemeTag.HASH: encode_hash_certificate,
    SchemeTag.IDLIST: encode_idlist_certificate,
    SchemeTag.BITMAP: encode_bitmap_certificate,
}

_DECODERS = {
    SchemeTag.HASH: decode_hash_payload,
    SchemeTag.IDLIST: decode_idlist_payload,
    SchemeTag.BITMAP: decode_bitmap_payload,
}

_VERIFIERS = {
    SchemeTag.HASH: verify_hash,
    SchemeTag.IDLIST: verify_idlist,
    SchemeTag.BITMAP: verify_bitmap,
}

_PROVERS = {
    SchemeTag.HASH: prove_hash,
    SchemeTag.IDLIST: prove_idlist,
    SchemeTag.BITMAP: prove_bitmap,
}


def encode_certificate(decoded, params: SchemeParams) -> Certificate:
    """Dispatch on the decoded form's scheme tag."""
    encoder = _ENCODERS.get(getattr(decoded, "scheme", None))
    if encoder is None:
        raise InvalidParams(f"not a decoded certificate: {decoded!r}")
    return encoder(decoded, params)


def decode_certificate(cert: Certificate, params: SchemeParams):
    return _DECODERS[cert.scheme](cert.payload, params)


def verify_certificate(view: LocalView, scheme: SchemeTag, params: SchemeParams) -> bool:
    return _VERIFIERS[scheme](view, params)


def prove_certificate(
    graph: Graph,
    ids: IdAssignment,
    scheme: SchemeTag,
    params: SchemeParams,
) -> Certificate:
    return _PROVERS[scheme](graph, ids, params)


def scan_probes(cert: Certificate, params: HashFramework) -> int:
    """The cost of the honest prover's perfect-hash scan, read off its
    certificate: the smallest perfect member is the scan's last probe, so a
    HASH certificate costs its member index + 1; the schemes that do not
    scan cost 0."""
    if cert.scheme is not SchemeTag.HASH:
        return 0
    return decode_hash_payload(cert.payload, params).hash_index + 1


# layout size formulas: the bitmap decoder reads bitmap_payload_bits, and
# tests read all three


def hash_payload_bits(n: int, params: HashFramework) -> int:
    return _hash_layout(n, params).bits()


def idlist_payload_bits(n: int, params: SchemeParams) -> int:
    return _idlist_layout(n, params).bits()


def bitmap_payload_bits(n: int, params: SchemeParams) -> int:
    return params.id_policy.evaluate(n) * params.value_width
