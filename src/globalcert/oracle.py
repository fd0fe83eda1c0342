"""Ground truth by brute force: homomorphism search, bipartiteness, and
exhaustive audits that enumerate a scheme's whole certificate space to
check the certification equivalence (a certificate accepted everywhere
exists iff the property holds).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .csp import CspInstance, CspParams, edge_relation, solve_csp
from .errors import InvalidParams, TooLarge
from .graphs import Graph, IdAssignment, TargetGraph, local_view
from .hashing import _fin, _mix_input, family_size
from .schemes import (
    Certificate,
    HashCertificate,
    SchemeParams,
    SchemeTag,
    encode_assignment_fields,
    encode_hash_certificate,
    verify_certificate,
)


def find_homomorphism(
    graph: Graph, target: TargetGraph, budget: int = 10**7
) -> tuple[int, ...] | None:
    """Lexicographically first homomorphism graph -> target, or None.

    Backtracks over vertices in index order, values ascending; raises
    TooLarge after `budget` visited search nodes, so satisfiable instances
    far beyond the worst-case bound still solve quickly.
    """
    n = graph.vertex_count
    assigned: list[int] = []
    visited = 0
    back_neighbors = [
        [u for u in graph.neighbors(v) if u < v] for v in range(n)
    ]

    def descend(v: int) -> bool:
        nonlocal visited
        if v == n:
            return True
        for value in range(target.vertex_count):
            visited += 1
            if visited > budget:
                raise TooLarge("homomorphism search budget exhausted")
            if all(target.has_edge(value, assigned[u]) for u in back_neighbors[v]):
                assigned.append(value)
                if descend(v + 1):
                    return True
                assigned.pop()
        return False

    if descend(0):
        return tuple(assigned)
    return None


def exists_homomorphism(graph: Graph, target: TargetGraph) -> bool:
    return find_homomorphism(graph, target) is not None


def is_bipartite(graph: Graph) -> bool:
    """Breadth-first 2-coloring per component; agrees with
    exists_homomorphism(graph, K2) by definition."""
    color = [-1] * graph.vertex_count
    for start in range(graph.vertex_count):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


@dataclass(frozen=True)
class AuditBounds:
    """Enumeration limits: certificates may claim 1..max_claimed_n vertices,
    and the whole space must stay within max_space certificates."""

    max_claimed_n: int = 4
    max_space: int = 10**7

    def __post_init__(self):
        if self.max_claimed_n < 1 or self.max_space < 1:
            raise InvalidParams("bounds must be positive")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one exhaustive audit.

    certificates_tried counts enumerated certificates up to and including
    the first accepted one, so it equals the whole space exactly when
    nothing is accepted. witness is the first accepted certificate in
    canonical order (claimed n, then index, then entries ascending), or,
    when nothing is accepted, the identifier of the lowest-id rejecting
    node for the canonically first certificate (None for an empty space).
    """

    property_holds: bool
    certificate_accepted_exists: bool
    certificates_tried: int
    witness: Certificate | int | None


def _hash_claim_plan(n_values: int, policy, multiplier, bounds: AuditBounds):
    """Valid (claim, id_range, buckets, family size) rows; raises TooLarge
    when the decodable certificates they hold exceed the bounds."""
    plan = []
    space = 0
    for claim in range(1, bounds.max_claimed_n + 1):
        try:
            id_range = policy.evaluate(claim)
        except InvalidParams:
            continue
        buckets = math.ceil(multiplier * claim)
        if buckets > id_range:
            continue
        size = family_size(buckets, id_range)
        plan.append((claim, id_range, buckets, size))
        space += size * n_values**buckets
    if space > bounds.max_space:
        raise TooLarge(f"certificate space {space} exceeds {bounds.max_space}")
    return plan


def _enumerate_hash_space(
    n_values, params, bounds, variable_ids, scopes, relations, encode
):
    """Enumerate hash certificates (claim, index, entries) in canonical order
    until one satisfies every scope: the entries at the buckets of a scope's
    variables, given as positions in `variable_ids`, form a tuple of its
    relation. Returns the accepted certificate or None, the count tried,
    and the canonically first certificate (None for an empty space), each
    turned into a Certificate by `encode`."""
    plan = _hash_claim_plan(n_values, params.id_policy, params.range_multiplier, bounds)
    mixed = [_mix_input(i) for i in variable_ids]
    tried = 0
    for claim, id_range, buckets, size in plan:
        entry_space = n_values**buckets
        if any(i >= id_range for i in variable_ids):
            tried += size * entry_space  # every node rejects out-of-range ids
            continue
        entries = list(itertools.product(range(n_values), repeat=buckets))
        for index in range(size):
            salt = _fin(index)
            b = [_fin(m ^ salt) % buckets for m in mixed]
            # filter scope by scope; order is kept, so the first survivor
            # is the first accepted entry vector
            survivors = entries
            for scope, relation in zip(scopes, relations):
                if len(scope) == 2:
                    x, y = b[scope[0]], b[scope[1]]
                    survivors = [e for e in survivors if (e[x], e[y]) in relation]
                else:
                    at = [b[p] for p in scope]
                    survivors = [
                        e for e in survivors if tuple(e[x] for x in at) in relation
                    ]
                if not survivors:
                    break
            if survivors:
                tried += entries.index(survivors[0]) + 1
                return encode(HashCertificate(claim, index, survivors[0])), tried, None
            tried += entry_space
    if not plan:
        return None, tried, None
    return None, tried, encode(HashCertificate(plan[0][0], 0, (0,) * plan[0][2]))


def audit_soundness(
    graph: Graph,
    ids: IdAssignment,
    scheme: SchemeTag,
    params: SchemeParams,
    bounds: AuditBounds = AuditBounds(),
) -> AuditReport:
    """Enumerate every decodable certificate of the scheme within bounds and
    report whether some certificate is accepted by every node."""
    property_holds = exists_homomorphism(graph, params.target)
    if scheme is SchemeTag.HASH:
        edges = sorted(graph.edges)
        found, tried, first = _enumerate_hash_space(
            params.target.vertex_count, params, bounds, ids.ids, edges,
            [edge_relation(params.target)] * len(edges),
            lambda decoded: encode_hash_certificate(decoded, params),
        )
    elif scheme is SchemeTag.IDLIST:
        found, tried, first = _enumerate_idlist(graph, ids, params, bounds)
    else:
        found, tried, first = _enumerate_bitmap(graph, ids, params, bounds)
    return _report(
        property_holds, found, tried, first,
        lambda cert: (
            ids.id_of(v)
            for v in range(graph.vertex_count)
            if not verify_certificate(
                local_view(graph, ids, v, cert.payload), cert.scheme, params
            )
        ),
    )


def _report(property_holds, found, tried, first, rejecting_ids) -> AuditReport:
    """The witness is the accepted certificate, else the lowest identifier
    that `rejecting_ids(first)` yields (None for an empty space)."""
    if found is not None:
        witness = found
    elif first is None:
        witness = None
    else:
        witness = min(rejecting_ids(first), default=None)
    return AuditReport(property_holds, found is not None, tried, witness)


def _enumerate_idlist(graph, ids, params: SchemeParams, bounds):
    from .schemes import IdListCertificate, encode_idlist_certificate

    n_values = params.target.vertex_count
    policy = params.id_policy
    vertex_ids = frozenset(ids.ids)
    allowed = edge_relation(params.target)
    # per identifier, the other endpoints it must be color-compatible with
    incident: dict[int, list[int]] = {}
    for u, v in graph.edges:
        incident.setdefault(ids.id_of(u), []).append(ids.id_of(v))
        incident.setdefault(ids.id_of(v), []).append(ids.id_of(u))

    plan = []
    space = 0
    for claim in range(1, bounds.max_claimed_n + 1):
        try:
            id_range = policy.evaluate(claim)
        except InvalidParams:
            continue
        record_width = (id_range - 1).bit_length() + params.value_width
        if record_width == 0 and claim > 1:
            continue  # the decoder rejects oversized zero-width claims
        plan.append((claim, id_range))
        space += (id_range * n_values) ** claim
    if space > bounds.max_space:
        raise TooLarge(f"certificate space {space} exceeds {bounds.max_space}")

    tried = 0
    first_cert = None
    for claim, id_range in plan:
        if first_cert is None:
            first_cert = encode_idlist_certificate(
                IdListCertificate(((0, 0),) * claim), params
            )
        block = [(id_range * n_values) ** r for r in range(claim + 1)]
        colors_of: dict[int, int] = {}
        records: list[tuple[int, int]] = []

        def descend(depth: int, prev_id: int):
            nonlocal tried
            # records with an identifier <= prev_id are unsorted: every
            # completion is rejected everywhere, so count them wholesale
            tried += (prev_id + 1) * n_values * block[claim - depth - 1]
            for identifier in range(prev_id + 1, id_range):
                partners = [
                    colors_of[w] for w in incident.get(identifier, ()) if w in colors_of
                ]
                for color in range(n_values):
                    if any((color, pc) not in allowed for pc in partners):
                        tried += block[claim - depth - 1]
                        continue
                    records.append((identifier, color))
                    colors_of[identifier] = color
                    if depth + 1 == claim:
                        tried += 1
                        if vertex_ids <= colors_of.keys():
                            cert = encode_idlist_certificate(
                                IdListCertificate(tuple(records)), params
                            )
                            records.pop()
                            del colors_of[identifier]
                            return cert
                    else:
                        cert = descend(depth + 1, identifier)
                        if cert is not None:
                            records.pop()
                            del colors_of[identifier]
                            return cert
                    records.pop()
                    del colors_of[identifier]
            return None

        cert = descend(0, -1)
        if cert is not None:
            return cert, tried, None
    return None, tried, first_cert


def _enumerate_bitmap(graph, ids, params: SchemeParams, bounds):
    from .bits import Bits
    from .schemes import BitmapCertificate, encode_bitmap_certificate

    n_values = params.target.vertex_count
    width = params.value_width
    vertex_ids = [ids.id_of(v) for v in range(graph.vertex_count)]
    edge_ids = [(ids.id_of(u), ids.id_of(v)) for u, v in sorted(graph.edges)]
    allowed = edge_relation(params.target)

    ranges = []
    for claim in range(1, bounds.max_claimed_n + 1):
        try:
            id_range = params.id_policy.evaluate(claim)
        except InvalidParams:
            continue
        if id_range not in ranges:
            ranges.append(id_range)
    ranges.sort()

    if width == 0:
        # one empty payload; every node checks only that it has no neighbors
        if not ranges:
            return None, 0, None
        cert = Certificate(SchemeTag.BITMAP, Bits.empty())
        if not graph.edges:
            return cert, 1, None
        return None, 1, cert

    # n_values ** id_range overflows memory long before it compares small,
    # so bound the exponent first (n_values >= 2 here: width > 0)
    if any(id_range > bounds.max_space.bit_length() for id_range in ranges):
        raise TooLarge("bitmap space beyond enumerable bounds")
    space = sum(n_values**id_range for id_range in ranges)
    if space > bounds.max_space:
        raise TooLarge(f"certificate space {space} exceeds {bounds.max_space}")

    tried = 0
    first_cert = None
    for id_range in ranges:
        if first_cert is None:
            first_cert = encode_bitmap_certificate(
                BitmapCertificate((0,) * id_range), params
            )
        if any(i >= id_range for i in vertex_ids):
            tried += n_values**id_range
            continue
        for colors in itertools.product(range(n_values), repeat=id_range):
            tried += 1
            if all((colors[a], colors[b]) in allowed for a, b in edge_ids):
                cert = encode_bitmap_certificate(BitmapCertificate(colors), params)
                return cert, tried, None
    return None, tried, first_cert


def audit_csp_soundness(
    instance: CspInstance,
    params: CspParams,
    bounds: AuditBounds = AuditBounds(),
) -> AuditReport:
    """CSP analog of audit_soundness for the hash-compressed scheme: the
    certificate space is enumerated and checked against every variable's
    incident constraints."""
    property_holds = solve_csp(instance) is not None
    found, tried, first = _enumerate_hash_space(
        params.domain_size, params, bounds, instance.ids.ids,
        [ct.scope for ct in instance.constraints],
        [ct.relation for ct in instance.constraints],
        lambda decoded: _csp_certificate(decoded, params),
    )
    from .csp import csp_view, verify_csp_variable

    return _report(
        property_holds, found, tried, first,
        lambda cert: (
            instance.ids.id_of(v)
            for v in range(instance.variable_count)
            if not verify_csp_variable(csp_view(instance, v, cert.payload), params)
        ),
    )


def _csp_certificate(decoded: HashCertificate, params: CspParams) -> Certificate:
    payload = encode_assignment_fields(
        decoded.claimed_n, decoded.hash_index, decoded.colors, params.id_policy,
        params.range_multiplier, params.domain_size,
    )
    return Certificate(SchemeTag.HASH, payload)
