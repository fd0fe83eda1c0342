"""The three global certification schemes for homomorphism to a target graph.

One certificate is shared by every node; each node decides accept/reject
from its LocalView alone. Payload layouts (all MSB-first):

  HASH    gamma(n) | member index, ceil(log2 family_size(n, M(n))) bits
                   | L, n entries of ceil(log2 n') bits each
  IDLIST  gamma(n) | n records of (ceil(log2 M(n)) id bits + color bits),
                   expected in strictly ascending id order
  BITMAP  M(n) * ceil(log2 n') bits; the color of the vertex with
          identifier i sits at position i * width; unassigned ids are zero

Each verifier turns the payload into a color lookup (identifier -> color,
or None when the certificate gives it no valid color): L[h(id)] below
M(claimed n) for HASH, shared with the CSP scheme; the record table for
IDLIST, None everywhere if unsorted; the color at position id for BITMAP,
read lazily. One check then accepts iff the node's own identifier and its
neighbors' have colors and every incident color pair is a target edge.

The HASH verifier trusts the certificate's n only to derive M(n) and the
family; it never checks that the member is injective, because unanimous
acceptance already forces u -> L[h(Id(u))] to be a homomorphism.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SchemeParams:
    """Fixed framework shared by prover and verifier: the target graph, the
    identifier-range policy, and the optional bucket multiplier (>= 1,
    default 1; larger values speed up proving at the cost of a longer L)."""

    target: TargetGraph
    id_policy: IdRangePolicy
    range_multiplier: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "range_multiplier", Fraction(self.range_multiplier))
        if self.range_multiplier < 1:
            raise InvalidParams("range multiplier must be >= 1")

    @property
    def value_width(self) -> int:
        """Bits per color entry, ceil(log2 n'); zero for a 1-vertex target."""
        return (self.target.vertex_count - 1).bit_length()

    def bucket_count(self, n: int) -> int:
        return math.ceil(self.range_multiplier * n)

    def pair_allowed(self, a: int, b: int) -> bool:
        return self.target.has_edge(a, b)


@dataclass
class ProveStats:
    """Mutable sink for prover-side cost counters."""

    probes: int = 0


# ---------------------------------------------------------------------------
# shared gamma/index/values codec (used by the HASH scheme and by the CSP
# generalization, which differs only in what an entry of L means)
# ---------------------------------------------------------------------------


def encode_assignment_fields(
    claimed_n: int,
    hash_index: int,
    values: tuple[int, ...],
    policy: IdRangePolicy,
    multiplier: Fraction,
    value_count: int,
) -> Bits:
    if claimed_n < 1:
        raise InvalidParams("claimed n must be positive")
    id_range = policy.evaluate(claimed_n)
    buckets = math.ceil(multiplier * claimed_n)
    if buckets > id_range:
        raise InvalidParams("more buckets than the identifier range")
    spec = HashFamilySpec.for_params(buckets, id_range)
    if not 0 <= hash_index < spec.size:
        raise InvalidParams(f"hash index {hash_index} outside family of size {spec.size}")
    if len(values) != buckets:
        raise InvalidParams(f"expected {buckets} entries, got {len(values)}")
    width = (value_count - 1).bit_length()
    writer = BitWriter()
    writer.write_gamma(claimed_n)
    writer.write(hash_index, spec.index_width)
    for v in values:
        if not 0 <= v < value_count:
            raise InvalidParams(f"entry {v} outside [0, {value_count})")
        writer.write(v, width)
    return writer.getvalue()


def decode_assignment_fields(
    payload: Bits,
    policy: IdRangePolicy,
    multiplier: Fraction,
    value_count: int,
) -> tuple[int, int, tuple[int, ...]]:
    """Inverse of encode_assignment_fields; raises MalformedCertificate on
    any syntactic violation, including out-of-range index or entries."""
    reader = BitReader(payload)
    claimed_n = reader.read_gamma()
    # the index alone needs more than `claimed_n` bits, so any honest claim
    # fits this cheap bound; it blocks absurd claims before family_size
    if claimed_n > payload.length:
        raise MalformedCertificate("claimed n larger than the payload allows")
    try:
        id_range = policy.evaluate(claimed_n)
    except InvalidParams as exc:
        raise MalformedCertificate(str(exc)) from None
    buckets = math.ceil(multiplier * claimed_n)
    if buckets > id_range:
        raise MalformedCertificate("more buckets than the identifier range")
    spec = HashFamilySpec.for_params(buckets, id_range)
    hash_index = reader.read(spec.index_width)
    if hash_index >= spec.size:
        raise MalformedCertificate("hash index outside the family")
    width = (value_count - 1).bit_length()
    values = []
    for _ in range(buckets):
        v = reader.read(width)
        if v >= value_count:
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


def encode_hash_certificate(decoded: HashCertificate, params: SchemeParams) -> Certificate:
    payload = encode_assignment_fields(
        decoded.claimed_n,
        decoded.hash_index,
        decoded.colors,
        params.id_policy,
        params.range_multiplier,
        params.target.vertex_count,
    )
    return Certificate(SchemeTag.HASH, payload)


def decode_hash_payload(payload: Bits, params: SchemeParams) -> HashCertificate:
    return HashCertificate(*decode_assignment_fields(
        payload, params.id_policy, params.range_multiplier, params.target.vertex_count
    ))


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
    record_width = id_width + width
    if record_width == 0:
        # single possible record (id 0, color 0); lists of length >= 2 can
        # never be strictly ascending, so cap the claim instead of looping
        if claimed_n > 1:
            raise MalformedCertificate("oversized claim for zero-width records")
    elif claimed_n * record_width > reader.bits_left():
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


def encode_bitmap_certificate(decoded: BitmapCertificate, params: SchemeParams) -> Certificate:
    width = params.value_width
    writer = BitWriter()
    for color in decoded.colors:
        if not 0 <= color < params.target.vertex_count:
            raise InvalidParams(f"color {color} outside the target")
        writer.write(color, width)
    return Certificate(SchemeTag.BITMAP, writer.getvalue())


def _bitmap_content_bits(payload: Bits, params: SchemeParams) -> int:
    """Exact content length of a bitmap payload: the largest M(n)*width that
    fills the payload exactly, or exactly up to its byte padding."""
    width = params.value_width
    if width == 0:
        if payload.length >= 8 or any(payload.bit(i) for i in range(payload.length)):
            raise MalformedCertificate("nonempty payload for a 1-vertex target")
        return 0
    if payload.length % 8:
        candidates = [payload.length]
    else:
        candidates = range(payload.length, max(payload.length - 8, -1), -1)
    for content in candidates:
        if content % width:
            continue
        if not _policy_range_value(content // width, params.id_policy):
            continue
        if all(payload.bit(i) == 0 for i in range(content, payload.length)):
            return content
    raise MalformedCertificate("payload length matches no identifier range")


def _integer_root(m: int, c: int) -> int:
    """Floor of the c-th root, exact for arbitrary precision."""
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // c)
    while True:
        y = ((c - 1) * x + m // x ** (c - 1)) // c
        if y >= x:
            return x
        x = y


def _policy_range_value(m: int, policy: IdRangePolicy) -> bool:
    """True iff m = M(n) for some n >= 1 under the policy."""
    if m < 1:
        return False
    if policy.kind == "fixed":
        return m == policy.param
    if policy.kind == "poly":
        if policy.param == 1:
            return True
        return _integer_root(m, policy.param) ** policy.param == m
    return m in {1 << min(1 << n, 128) for n in range(1, 8)}


def decode_bitmap_payload(payload: Bits, params: SchemeParams) -> BitmapCertificate:
    """Materialize the color of every identifier; desk-scale ranges only."""
    width = params.value_width
    content = _bitmap_content_bits(payload, params)
    if width == 0:
        return BitmapCertificate(())
    reader = BitReader(payload)
    colors = tuple(reader.read(width) for _ in range(content // width))
    if any(color >= params.target.vertex_count for color in colors):
        raise MalformedCertificate("color outside the target")
    return BitmapCertificate(colors)


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


def bucket_table(
    hash_index: int, ids: IdAssignment, values: tuple[int, ...], buckets: int
) -> tuple[int, ...]:
    """L: each vertex's value at the bucket its identifier hashes to, zero
    at unused buckets."""
    table = [0] * buckets
    for identifier, value in zip(ids.ids, values):
        table[eval_hash(hash_index, identifier, buckets)] = value
    return tuple(table)


def prove_hash(
    graph: Graph,
    ids: IdAssignment,
    params: SchemeParams,
    stats: ProveStats | None = None,
) -> Certificate:
    """Certificate (n, h, L): h is the smallest family member injective on
    the identifier set, and L places the colors of a homomorphism at the
    buckets the identifiers hash to."""
    phi = _homomorphism_or_refuse(graph, params)
    n = graph.vertex_count
    id_range = range_for_proving(ids, n, params.id_policy)
    buckets = params.bucket_count(n)
    search = perfect_hash_search(ids.id_set(), buckets, id_range)
    if stats is not None:
        stats.probes += search.probes
    colors = bucket_table(search.index, ids, phi, buckets)
    return encode_hash_certificate(HashCertificate(n, search.index, colors), params)


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
    width = params.value_width
    total = id_range * width
    buf = bytearray((total + 7) // 8)
    for v in range(graph.vertex_count):
        pos = ids.id_of(v) * width
        color = phi[v]
        for j in range(width):
            if (color >> (width - 1 - j)) & 1:
                buf[(pos + j) // 8] |= 1 << (7 - (pos + j) % 8)
    return Certificate(SchemeTag.BITMAP, Bits(bytes(buf), total))


# ---------------------------------------------------------------------------
# verifiers (total on adversarial input: any malformation is a reject)
# ---------------------------------------------------------------------------

ColorLookup = Callable[[int], "int | None"]


def hash_lookup(decoded: HashCertificate, policy: IdRangePolicy) -> ColorLookup:
    """Identifier -> L[h(identifier)] through the claimed family member, or
    None at or above M(claimed n). The CSP verifier shares it."""
    id_range = policy.evaluate(decoded.claimed_n)
    index, colors, buckets = decoded.hash_index, decoded.colors, len(decoded.colors)
    return lambda i: colors[eval_hash(index, i, buckets)] if i < id_range else None


def _hash_colors(payload: Bits, params: SchemeParams) -> ColorLookup:
    return hash_lookup(decode_hash_payload(payload, params), params.id_policy)


def _idlist_colors(payload: Bits, params: SchemeParams) -> ColorLookup:
    records = decode_idlist_payload(payload, params).records
    if any(records[i][0] >= records[i + 1][0] for i in range(len(records) - 1)):
        return lambda identifier: None
    return dict(records).get


def _bitmap_colors(payload: Bits, params: SchemeParams) -> ColorLookup:
    width = params.value_width
    content = _bitmap_content_bits(payload, params)
    if width == 0:
        return lambda identifier: 0
    id_range = content // width
    data, value_count = payload.data, params.target.vertex_count

    def lookup(identifier: int) -> int | None:
        if identifier >= id_range:
            return None
        color = 0
        for i in range(identifier * width, (identifier + 1) * width):
            color = (color << 1) | ((data[i >> 3] >> (7 - (i & 7))) & 1)
        return color if color < value_count else None

    return lookup


def check(lookup: ColorLookup, view: LocalView, params: SchemeParams) -> bool:
    """One node's decision: its own identifier and every neighbor's have a
    color, and every incident color pair is a target edge."""
    own_color = lookup(view.own_id)
    if own_color is None:
        return False
    for neighbor in view.neighbor_ids:
        other = lookup(neighbor)
        if other is None or not params.pair_allowed(own_color, other):
            return False
    return True


def _decide(colors_of, view: LocalView, params: SchemeParams) -> bool:
    try:
        lookup = colors_of(view.certificate, params)
    except MalformedCertificate:
        return False
    return check(lookup, view, params)


def verify_hash(view: LocalView, params: SchemeParams) -> bool:
    """Accept iff the payload decodes and every incident color pair, looked
    up through the claimed family member, is a target edge."""
    return _decide(_hash_colors, view, params)


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


def hash_payload_bits(n: int, params: SchemeParams) -> int:
    buckets = params.bucket_count(n)
    spec = HashFamilySpec.for_params(buckets, params.id_policy.evaluate(n))
    return gamma_len(n) + spec.index_width + buckets * params.value_width


def idlist_payload_bits(n: int, params: SchemeParams) -> int:
    id_range = params.id_policy.evaluate(n)
    return gamma_len(n) + n * ((id_range - 1).bit_length() + params.value_width)


def bitmap_payload_bits(n: int, params: SchemeParams) -> int:
    return params.id_policy.evaluate(n) * params.value_width
