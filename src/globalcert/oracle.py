"""Ground truth by brute force: homomorphism search and exhaustive audits
that count a scheme's whole certificate space to check the certification
equivalence (a certificate accepted everywhere exists iff the property
holds): rather than visiting each certificate, an audit solves the quotient
on the positions (buckets or identifiers) the variables read, and ranks its
first solution in canonical order.

One planner, `_plan`, sizes the hash, bitmap and id-list spaces claim by
claim and raises TooLarge at the first claim past max_space, before any
solve. The hash and bitmap audits then read positions a block of members
at a time, each row of the plan carrying its blocks: the prover's kernel
`hashing.member_blocks` for the hash space, one block of the identifiers
for a bitmap. They solve once per position pattern new to the block and
not already known unsolvable. numpy is imported at the first block, so
importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import csp, schemes
from .csp import CspInstance, CspParams, backtrack, csp_view, edge_relation, solve_csp, solve_scopes
from .errors import InvalidParams, TooLarge
from .graphs import Graph, IdAssignment, TargetGraph, local_view
from .hashing import family_size, member_blocks
from .schemes import BitmapCertificate, Certificate, HashCertificate, HashFramework, IdListCertificate
from .schemes import SchemeParams, SchemeTag, encode_hash_certificate, verify_certificate
from .schemes import encode_assignment_fields  # noqa: F401  kept: perfbench/tracing.py patches it here


def find_homomorphism(
    graph: Graph, target: TargetGraph, budget: int = 10**7
) -> tuple[int, ...] | None:
    """Lexicographically first homomorphism graph -> target, or None.

    Runs the one iterative search, `csp.backtrack`, over vertices in index
    order and values ascending: a vertex may take the target vertices
    adjacent to the values of all its lower-indexed neighbors, the AND of
    one target-adjacency mask per such neighbor. Raises TooLarge after
    `budget` visited search nodes, so satisfiable instances far beyond the
    worst-case bound still solve quickly.
    """
    k = target.vertex_count
    full = (1 << k) - 1
    compat = [sum(1 << b for b in target.neighbors(a)) for a in range(k)]
    back_neighbors: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for u, v in graph.edges:  # u < v
        back_neighbors[v].append(u)

    def allowed(v: int, values: list[int]) -> int:
        mask = full
        for u in back_neighbors[v]:
            mask &= compat[values[u]]
        return mask

    return backtrack(graph.vertex_count, k, allowed, budget)


def exists_homomorphism(graph: Graph, target: TargetGraph) -> bool:
    return find_homomorphism(graph, target) is not None


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

    certificates_tried counts certificates in canonical order (claimed n,
    then the hash index, then entries or records in itertools.product
    order) up to and including the first accepted one, so it equals the
    whole space exactly when nothing is accepted; it is computed from the
    first accepted certificate's rank, not by visiting each certificate.
    witness is the first accepted certificate in that order, or,
    when nothing is accepted, the identifier of the lowest-id rejecting
    node for the canonically first certificate (None for an empty space).
    """

    property_holds: bool
    certificate_accepted_exists: bool
    certificates_tried: int
    witness: Certificate | int | None


def _claims(policy, bounds: AuditBounds):
    """(claim, M(claim)) for the claims from 1 to bounds.max_claimed_n that
    the policy defines: every policy that refuses a claim refuses all
    larger ones, so they end at the first refusal."""
    for claim in range(1, bounds.max_claimed_n + 1):
        try:
            id_range = policy.evaluate(claim)
        except InvalidParams:
            return
        yield claim, id_range


def _too_large(bounds: AuditBounds, claim: int) -> TooLarge:
    """The error for a space that passes max_space at `claim`; the space
    itself is not named, since it can run to thousands of digits."""
    return TooLarge(f"certificate space exceeds {bounds.max_space} by claim {claim}")


def _first_accepted(positions, n_values, scopes, relations):
    """{position: entry} for the positions in use of the first entry vector,
    in itertools.product order, that puts every scope's entries in its
    relation, variable v reading positions[v]; None if there is none. The
    positions in use are solved in ascending order (a scope may name one
    twice); the others hold 0."""
    used = sorted(set(positions))
    slot = {p: i for i, p in enumerate(used)}
    quotient = [tuple(slot[positions[v]] for v in scope) for scope in scopes]
    # more nodes than the whole search tree has: TooLarge comes only from
    # the certificate-space checks against max_space
    budget = 2 * n_values ** len(used) + len(used)
    solution = solve_scopes(len(used), n_values, quotient, relations, budget)
    return None if solution is None else dict(zip(used, solution))


def _plan(n_values, bounds: AuditBounds, rows) -> list:
    """The rows (claim, id_range, width, members, ...) in order, each claim
    a space of `members` members of n_values**width entry vectors. Raises
    TooLarge, before anything is solved, at the first claim that takes the
    total past max_space."""
    plan = []
    space = 0
    for row in rows:
        claim, _, width, members = row[:4]
        # n_values ** width overflows memory long before it compares small,
        # so bound the exponent first
        if n_values > 1 and width > bounds.max_space.bit_length():
            raise _too_large(bounds, claim)
        space += members * n_values**width
        if space > bounds.max_space:
            raise _too_large(bounds, claim)
        plan.append(row)
    return plan


def _scan(params, bounds, rows, make, variable_ids, scopes, relations):
    """First accepted certificate in canonical order over the spaces
    (claim, id_range, width, members, blocks) that `rows` yields, as `_plan`
    sizes them: each member holds n_values**width entry vectors, and blocks
    yields (start, positions) arrays, variable v of member start + i reading
    position positions[i, v]; make(claim, member, vector) is the
    certificate. A member whose pattern is known unsolvable is counted
    whole, as is a space some identifier lies at or above (every node
    rejects it). Returns the accepted certificate or None, the count tried,
    and the canonically first certificate (None for an empty space)."""
    import numpy as np

    n_values = params.domain_size
    plan = _plan(n_values, bounds, rows)
    # whether a member has a solution depends only on which variables share
    # a position: unsolvable patterns, each variable's position replaced by
    # the first variable at that position
    unsolvable = set()
    tried = 0
    for claim, id_range, width, members, blocks in plan:
        entry_space = n_values**width
        if any(i >= id_range for i in variable_ids):
            tried += members * entry_space
            continue
        for start, positions in blocks:
            positions = np.asarray(positions, dtype=np.intp)
            # rows x width x n cells, where a pairwise test needs rows x n x n
            at = positions[:, None, :] == np.arange(width)[:, None]
            patterns = at.argmax(axis=2)[np.arange(len(positions))[:, None], positions]
            # each distinct pattern's first row: a stable sort keeps equal
            # patterns in row order
            order = np.lexsort(patterns.T[::-1])
            ordered = patterns[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
            for row in np.sort(order[first]).tolist():
                pattern = patterns[row].tobytes()
                if pattern in unsolvable:
                    continue
                entries = _first_accepted(positions[row].tolist(), n_values, scopes, relations)
                if entries is not None:
                    # the vector's rank in itertools.product order
                    rank = sum(v * n_values ** (width - 1 - p) for p, v in entries.items())
                    colors = tuple(entries.get(p, 0) for p in range(width))
                    return make(claim, start + row, colors), tried + row * entry_space + rank + 1, None
                unsolvable.add(pattern)
            tried += len(positions) * entry_space
    if not plan:
        return None, tried, None
    return None, tried, make(plan[0][0], 0, (0,) * plan[0][2])


def _hash_space(params: HashFramework, bounds, variable_ids, scopes, relations):
    """First accepted hash certificate (claim, index, entries): one space
    per claim whose buckets fit below M(claim), holding every family member,
    in which variable v reads the bucket its identifier hashes to."""

    def make(claim, index, colors):
        return encode_hash_certificate(HashCertificate(claim, index, colors), params)

    def rows():
        for claim, id_range in _claims(params.id_policy, bounds):
            buckets = params.bucket_count(claim)
            if buckets <= id_range:
                members = family_size(buckets, id_range)
                yield claim, id_range, buckets, members, member_blocks(variable_ids, buckets, members)

    return _scan(params, bounds, rows(), make, variable_ids, scopes, relations)


def audit_soundness(
    graph: Graph,
    ids: IdAssignment,
    scheme: SchemeTag,
    params: SchemeParams,
    bounds: AuditBounds = AuditBounds(),
) -> AuditReport:
    """Search every decodable certificate of the scheme within bounds and
    report whether some certificate is accepted by every node."""
    return _audit(
        exists_homomorphism(graph, params.target), _SPACES[scheme], params, bounds,
        ids.ids, sorted(graph.edges), [edge_relation(params.target)] * len(graph.edges),
        lambda v, cert: verify_certificate(local_view(graph, ids, v, cert.payload), cert.scheme, params),
    )


def _audit(property_holds, space, params, bounds, ids, scopes, relations, accepts) -> AuditReport:
    """Run `space` over the identifiers and the scopes' relations. The
    witness is the accepted certificate, else the lowest identifier whose
    node refuses the canonically first certificate, `accepts(v, cert)`
    deciding for node v (None for an empty space). Every node's real
    verifier runs on an accepted certificate too: the space models the
    nodes, and a certificate some node refuses is an error, not a result."""
    found, tried, first = space(params, bounds, ids, scopes, relations)
    checked = first if found is None else found
    rejecting = [] if checked is None else [i for v, i in enumerate(ids) if not accepts(v, checked)]
    if found is not None and rejecting:
        raise AssertionError(f"audit witness rejected at identifiers {rejecting}")
    witness = min(rejecting, default=None) if found is None else found
    return AuditReport(property_holds, found is not None, tried, witness)


def _idlist_space(params: SchemeParams, bounds, vertex_ids, edges, relations):
    """First accepted id list in canonical order. A claim c is M(c)**c
    members, one per identifier list, of c color entries. Within a claim it
    holds every vertex's identifier plus the claim - n smallest others,
    ascending; the vertices take the first coloring in identifier order, the
    others color 0. It exists only when n <= claim <= M(claim) and every
    identifier lies below M(claim); otherwise the claim's whole space is
    counted."""
    n_values = params.domain_size
    rows = ((claim, id_range, claim, id_range**claim) for claim, id_range in _claims(params.id_policy, bounds))
    tried = 0
    for claim, id_range, _, members in _plan(n_values, bounds, rows):
        if len(vertex_ids) <= claim <= id_range and all(i < id_range for i in vertex_ids):
            found = _first_accepted(vertex_ids, n_values, edges, relations)
            if found is not None:
                others = [i for i in range(claim) if i not in found][: claim - len(vertex_ids)]
                records = sorted([*found.items(), *((i, 0) for i in others)])
                rank = 0
                for identifier, color in records:
                    rank = rank * id_range * n_values + identifier * n_values + color
                cert = schemes.encode_idlist_certificate(IdListCertificate(tuple(records)), params)
                return cert, tried + rank + 1, None
        tried += members * n_values**claim
    # claim 1 always exists, and its first list is the one record (0, 0)
    return None, tried, schemes.encode_idlist_certificate(IdListCertificate(((0, 0),)), params)


def _bitmap_space(params: SchemeParams, bounds, vertex_ids, edges, relations):
    """First accepted bitmap in canonical order: a space of one member per
    distinct range, ascending, whose one block reads the color at each
    vertex's identifier."""

    def make(claim, member, colors):
        return schemes.encode_bitmap_certificate(BitmapCertificate(colors), params)

    if params.value_width == 0:
        # one empty payload; every node checks only that it has no neighbors
        cert = make(1, 0, ())
        return (None, 1, cert) if edges else (cert, 1, None)

    def rows():
        last = None
        for claim, id_range in _claims(params.id_policy, bounds):
            if id_range != last:  # M is non-decreasing: each range once
                yield claim, id_range, id_range, 1, [(0, [vertex_ids])]
            last = id_range

    return _scan(params, bounds, rows(), make, vertex_ids, edges, relations)


_SPACES = {
    SchemeTag.HASH: _hash_space,
    SchemeTag.IDLIST: _idlist_space,
    SchemeTag.BITMAP: _bitmap_space,
}


def audit_csp_soundness(
    instance: CspInstance,
    params: CspParams,
    bounds: AuditBounds = AuditBounds(),
) -> AuditReport:
    """CSP analog of audit_soundness for the hash-compressed scheme: the
    certificate space is searched against every variable's incident
    constraints."""
    cts = instance.constraints
    return _audit(
        solve_csp(instance) is not None, _hash_space, params, bounds, instance.ids.ids,
        [ct.scope for ct in cts], [ct.relation for ct in cts],
        lambda v, cert: csp.verify_csp_variable(csp_view(instance, v, cert.payload), params),
    )
