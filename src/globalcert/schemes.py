"""The three global certification schemes for homomorphism to a target graph.

One certificate is shared by every node; each node decides accept/reject
from its LocalView alone. Payload layouts (all MSB-first):

  HASH    gamma(n) | member index, ceil(log2 family_size(n, M(n))) bits
                   | L, n entries of ceil(log2 n') bits each
  IDLIST  gamma(n) | n records of (ceil(log2 M(n)) id bits + color bits),
                   expected in strictly ascending id order
  BITMAP  M(n) * ceil(log2 n') bits; the color of the vertex with
          identifier i sits at position i * width; unassigned ids are zero.
          A payload is read as the largest M(n) * width that fits it and is
          valid iff that is all of it, or, for a whole number of bytes,
          all but at most 7 zero bits of padding

Each verifier turns the payload into a color lookup (identifier -> color,
or None when the certificate gives it no valid color): L[h(id)] below
M(claimed n) for HASH; the record table for IDLIST, None everywhere if
unsorted; the color at position id for BITMAP, whose every entry must lie
in the target. One check then accepts iff the node's own identifier and its
neighbors' have colors and every incident color pair is a target edge.

The certificate is global, so its lookup depends only on the payload and
the params. `shared_lookup` builds it once for the nodes of a network: it
keeps the last (colors_of, payload, params) it saw, compared by value, and
its lookup computes each identifier's color once. A node verifier asks it
for the lookup, so a network of n nodes decodes once, not n times, while
each node still decides alone.

The BITMAP prover and encoder share one writer, and its decoder reads
through the verifier's lookup.

The HASH path is shared with the CSP scheme, which differs only in what an
entry of L means: `prove_hash_table` is the one prover tail (range check,
perfect-hash scan, bucket table, encode), `encode_hash_certificate` and
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
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import ClassVar

from .bits import BitReader, Bits, BitWriter, gamma_len
from .errors import (
    BitmapTooLarge,
    InvalidParams,
    MalformedCertificate,
    NotSatisfiable,
)
from .graphs import Graph, IdAssignment, IdRangePolicy, LocalView, TargetGraph
from .hashing import HashFamilySpec, eval_hash, perfect_hash_search

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
        return math.ceil(self.range_multiplier * n)

    def family(self, n: int) -> HashFamilySpec:
        """The family of a claim of n: ceil(lambda n) buckets over M(n)
        identifiers. Raises InvalidParams where M(n) is undefined or there
        are more buckets than identifiers."""
        id_range = self.id_policy.evaluate(n)
        return HashFamilySpec.for_params(self.bucket_count(n), id_range)


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


@dataclass
class ProveStats:
    """Mutable sink for prover-side cost counters."""

    probes: int = 0


# ---------------------------------------------------------------------------
# shared gamma/index/values codec (used by the HASH scheme and by the CSP
# generalization, which differs only in what an entry of L means)
# ---------------------------------------------------------------------------


def encode_assignment_fields(
    claimed_n: int, hash_index: int, values: tuple[int, ...], params: HashFramework
) -> Bits:
    spec = params.family(claimed_n)
    if not 0 <= hash_index < spec.size:
        raise InvalidParams(f"hash index {hash_index} outside family of size {spec.size}")
    if len(values) != spec.k:
        raise InvalidParams(f"expected {spec.k} entries, got {len(values)}")
    domain, width = params.domain_size, params.value_width
    writer = BitWriter()
    writer.write_gamma(claimed_n)
    writer.write(hash_index, spec.index_width)
    for v in values:
        if not 0 <= v < domain:
            raise InvalidParams(f"entry {v} outside [0, {domain})")
        writer.write(v, width)
    return writer.getvalue()


def decode_assignment_fields(payload: Bits, params: HashFramework) -> tuple[int, int, tuple[int, ...]]:
    """Inverse of encode_assignment_fields; raises MalformedCertificate on
    any syntactic violation, including out-of-range index or entries."""
    reader = BitReader(payload)
    claimed_n = reader.read_gamma()
    buckets = params.bucket_count(claimed_n)
    domain, width = params.domain_size, params.value_width
    # a claim n >= 2 needs M >= 2, so its family for k buckets has at least
    # e^k members: the index takes over 1.4426 k bits and the entries k *
    # width more. This refuses a claim the payload cannot hold before
    # family_size, whose cost grows with k and which stops converging
    # between k = 20000 and k = 40000
    if claimed_n > 1 and buckets * (14426 + 10000 * width) > 10000 * reader.bits_left():
        raise MalformedCertificate("claimed n larger than the payload allows")
    try:
        spec = params.family(claimed_n)
    except InvalidParams as exc:
        raise MalformedCertificate(str(exc)) from None
    hash_index = reader.read(spec.index_width)
    if hash_index >= spec.size:
        raise MalformedCertificate("hash index outside the family")
    values = []
    for _ in range(buckets):
        v = reader.read(width)
        if v >= domain:
            raise MalformedCertificate("entry outside the value domain")
        values.append(v)
    reader.expect_zero_padding()
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
    n = decoded.claimed_n
    if n < 1:
        raise InvalidParams("id list needs at least one record")
    id_range = params.id_policy.evaluate(n)
    id_width = (id_range - 1).bit_length()
    width = params.value_width
    writer = BitWriter()
    writer.write_gamma(n)
    for identifier, color in decoded.records:
        if not 0 <= identifier < id_range:
            raise InvalidParams(f"identifier {identifier} outside range {id_range}")
        if not 0 <= color < params.target.vertex_count:
            raise InvalidParams(f"color {color} outside the target")
        writer.write(identifier, id_width)
        writer.write(color, width)
    return Certificate(SchemeTag.IDLIST, writer.getvalue())


def decode_idlist_payload(payload: Bits, params: SchemeParams) -> IdListCertificate:
    reader = BitReader(payload)
    claimed_n = reader.read_gamma()
    try:
        id_range = params.id_policy.evaluate(claimed_n)
    except InvalidParams as exc:
        raise MalformedCertificate(str(exc)) from None
    id_width = (id_range - 1).bit_length()
    width = params.value_width
    # a zero record width needs M(claimed n) = 1, which `evaluate` allows
    # only for a claim of 1
    if claimed_n * (id_width + width) > reader.bits_left():
        raise MalformedCertificate("claimed n larger than the payload allows")
    records = []
    for _ in range(claimed_n):
        identifier = reader.read(id_width)
        color = reader.read(width)
        if identifier >= id_range or color >= params.target.vertex_count:
            raise MalformedCertificate("record field outside its domain")
        records.append((identifier, color))
    reader.expect_zero_padding()
    return IdListCertificate(tuple(records))


def _write_bitmap(colors, id_range: int, width: int) -> Certificate:
    """The bitmap of `id_range` width-bit entries holding each (identifier,
    color) pair of `colors`: a zeroed buffer in which only the nonzero
    colors are written."""
    total = id_range * width
    buf = bytearray((total + 7) // 8)
    for identifier, color in colors:
        pos = (identifier + 1) * width - 1  # the entry's last bit
        while color:
            if color & 1:
                buf[pos >> 3] |= 0x80 >> (pos & 7)
            color >>= 1
            pos -= 1
    return Certificate(SchemeTag.BITMAP, Bits(bytes(buf), total))


def encode_bitmap_certificate(decoded: BitmapCertificate, params: SchemeParams) -> Certificate:
    for color in decoded.colors:
        if not 0 <= color < params.target.vertex_count:
            raise InvalidParams(f"color {color} outside the target")
    return _write_bitmap(enumerate(decoded.colors), len(decoded.colors), params.value_width)


def _bitmap_content_bits(payload: Bits, params: SchemeParams) -> int:
    """Exact content length of a bitmap payload, by the BITMAP length rule
    of the module docstring: a smaller content leaves more bits over, so
    only the largest can pass."""
    width = params.value_width
    length = payload.length
    if width == 0:
        if length >= 8 or any(payload.bit(i) for i in range(length)):
            raise MalformedCertificate("nonempty payload for a 1-vertex target")
        return 0

    def bits(n: int) -> int:
        try:
            return params.id_policy.evaluate(n) * width
        except InvalidParams:
            return length + 1

    # non-decreasing by the properties IdRangePolicy states; M(n) >= n
    # bounds the n that fit
    n = bisect.bisect_right(range(1, length // width + 1), length, key=bits)
    if n:
        content = bits(n)
        tail = length - content
        if tail == 0 or (length % 8 == 0 and tail < 8 and not any(map(payload.bit, range(content, length)))):
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
# provers (honest: require a homomorphism, else NotSatisfiable)
# ---------------------------------------------------------------------------


def _homomorphism_or_refuse(graph: Graph, params: SchemeParams) -> tuple[int, ...]:
    from .oracle import find_homomorphism

    phi = find_homomorphism(graph, params.target)
    if phi is None:
        raise NotSatisfiable("graph admits no homomorphism to the target")
    return phi


def range_for_proving(ids: IdAssignment, count: int, policy: IdRangePolicy) -> int:
    """M(count), once every one of the `count` identifiers lies below it."""
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
    params: HashFramework,
    stats: ProveStats | None = None,
) -> Certificate:
    """Certificate (n, h, L) for a solution of n variables or vertices:
    h is the smallest family member injective on the identifier set, and L
    holds each solution value at the bucket its identifier hashes to, zero
    at unused buckets."""
    n = len(solution)
    id_range = range_for_proving(ids, n, params.id_policy)
    buckets = params.bucket_count(n)
    search = perfect_hash_search(ids.id_set(), buckets, id_range)
    if stats is not None:
        stats.probes += search.probes
    table = [0] * buckets
    for identifier, value in zip(ids.ids, solution):
        table[eval_hash(search.index, identifier, buckets)] = value
    return encode_hash_certificate(HashCertificate(n, search.index, tuple(table)), params)


def prove_hash(
    graph: Graph,
    ids: IdAssignment,
    params: SchemeParams,
    stats: ProveStats | None = None,
) -> Certificate:
    """Certificate (n, h, L) placing the colors of a homomorphism."""
    return prove_hash_table(_homomorphism_or_refuse(graph, params), ids, params, stats)


def prove_idlist(
    graph: Graph,
    ids: IdAssignment,
    params: SchemeParams,
    stats: ProveStats | None = None,
) -> Certificate:
    """One record per vertex, ascending by identifier: the identifier plus
    the vertex's color under a homomorphism."""
    phi = _homomorphism_or_refuse(graph, params)
    range_for_proving(ids, graph.vertex_count, params.id_policy)
    records = sorted((ids.id_of(v), phi[v]) for v in range(graph.vertex_count))
    return encode_idlist_certificate(IdListCertificate(tuple(records)), params)


def prove_bitmap(
    graph: Graph,
    ids: IdAssignment,
    params: SchemeParams,
    stats: ProveStats | None = None,
) -> Certificate:
    """Color of the vertex with identifier i at position i; zero elsewhere."""
    phi = _homomorphism_or_refuse(graph, params)
    id_range = range_for_proving(ids, graph.vertex_count, params.id_policy)
    if id_range > BITMAP_MAX_RANGE:
        raise BitmapTooLarge(f"M(n) = {id_range} exceeds the 2^26 bitmap cap")
    return _write_bitmap(zip(ids.ids, phi), id_range, params.value_width)


# ---------------------------------------------------------------------------
# verifiers (total on adversarial input: any malformation is a reject)
# ---------------------------------------------------------------------------

ColorLookup = Callable[[int], "int | None"]


def hash_colors(payload: Bits, params: HashFramework) -> ColorLookup:
    """Identifier -> L[h(identifier)] through the claimed family member, or
    None at or above M(claimed n); the graph and the CSP verifiers share it."""
    decoded = decode_hash_payload(payload, params)
    id_range = params.id_policy.evaluate(decoded.claimed_n)
    index, colors, buckets = decoded.hash_index, decoded.colors, len(decoded.colors)
    return lambda i: colors[eval_hash(index, i, buckets)] if i < id_range else None


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
    """The entry at position id; refuses the payload, as
    `decode_bitmap_payload` does, if any entry lies outside the target."""
    width = params.value_width
    content = _bitmap_content_bits(payload, params)
    if width == 0:
        return lambda identifier: 0
    id_range = content // width
    data = payload.data
    fields = int.from_bytes(data, "big") >> (8 * len(data) - content)
    if _some_field_at_least(fields, id_range, width, params.target.vertex_count):
        raise MalformedCertificate("color outside the target")

    def lookup(identifier: int) -> int | None:
        if identifier >= id_range:
            return None
        color = 0
        for i in range(identifier * width, (identifier + 1) * width):
            color = (color << 1) | ((data[i >> 3] >> (7 - (i & 7))) & 1)
        return color

    return lookup


@functools.lru_cache(maxsize=1)
def shared_lookup(colors_of, payload: Bits, params: HashFramework) -> ColorLookup | None:
    """`colors_of(payload, params)` with each identifier's color memoised,
    or None for a MalformedCertificate, which every node rejects.

    One entry, keyed by value: the nodes of one network share it, and the
    next certificate or params replace it."""
    try:
        return functools.cache(colors_of(payload, params))
    except MalformedCertificate:
        return None


def check(lookup: ColorLookup, view: LocalView, params: SchemeParams) -> bool:
    """One node's decision: its own identifier and every neighbor's have a
    color, and every incident color pair is a target edge."""
    own_color = lookup(view.own_id)
    if own_color is None:
        return False
    has_edge = params.target.has_edge
    for neighbor in view.neighbor_ids:
        other = lookup(neighbor)
        if other is None or not has_edge(own_color, other):
            return False
    return True


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
    stats: ProveStats | None = None,
) -> Certificate:
    return _PROVERS[scheme](graph, ids, params, stats)


# layout size formulas, used by benchmarking and by tests


def hash_payload_bits(n: int, params: HashFramework) -> int:
    spec = params.family(n)
    return gamma_len(n) + spec.index_width + spec.k * params.value_width


def idlist_payload_bits(n: int, params: SchemeParams) -> int:
    id_range = params.id_policy.evaluate(n)
    return gamma_len(n) + n * ((id_range - 1).bit_length() + params.value_width)


def bitmap_payload_bits(n: int, params: SchemeParams) -> int:
    return params.id_policy.evaluate(n) * params.value_width
