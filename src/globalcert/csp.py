"""Constraint satisfaction: instances, the graph translation, a desk-scale
solver, and the hash-compressed certification scheme where each variable
verifies its incident constraints locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bits import Bits
from .errors import InvalidId, InvalidParams, MalformedCertificate, NotSatisfiable, ParseError, TooLarge
from .graphs import Graph, IdAssignment, IdRangePolicy, TargetGraph
from .hashing import perfect_hash_search
from .schemes import (
    Certificate,
    HashCertificate,
    ProveStats,
    SchemeTag,
    bucket_table,
    decode_assignment_fields,
    encode_assignment_fields,
    hash_lookup,
    range_for_proving,
)


@dataclass(frozen=True)
class CspConstraint:
    """A scope of distinct variables and the explicit set of allowed tuples."""

    scope: tuple[int, ...]
    relation: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if not self.scope:
            raise InvalidParams("empty constraint scope")
        if len(set(self.scope)) != len(self.scope):
            raise InvalidParams("duplicate variable in constraint scope")
        for row in self.relation:
            if len(row) != len(self.scope):
                raise InvalidParams("relation arity does not match the scope")


@dataclass(frozen=True)
class CspInstance:
    variable_count: int
    domain_size: int
    ids: IdAssignment
    constraints: tuple[CspConstraint, ...]

    def __post_init__(self):
        if self.variable_count < 1:
            raise InvalidParams("need at least one variable")
        if self.domain_size < 1:
            raise InvalidParams("domain must be non-empty")
        if len(self.ids.ids) != self.variable_count:
            raise InvalidParams("id assignment does not cover the variables")
        for ct in self.constraints:
            for var in ct.scope:
                if not 0 <= var < self.variable_count:
                    raise InvalidParams(f"variable {var} out of range")
            for row in ct.relation:
                for value in row:
                    if not 0 <= value < self.domain_size:
                        raise InvalidParams(f"relation value {value} outside the domain")

    def incident(self, var: int) -> tuple[CspConstraint, ...]:
        return tuple(ct for ct in self.constraints if var in ct.scope)

    def neighborhood(self, var: int) -> frozenset[int]:
        """Variables sharing a constraint with `var`, excluding `var`."""
        out: set[int] = set()
        for ct in self.incident(var):
            out.update(ct.scope)
        out.discard(var)
        return frozenset(out)


@dataclass(frozen=True)
class CspParams:
    """Framework fixed between prover and verifiers for the CSP scheme."""

    domain_size: int
    id_policy: IdRangePolicy
    range_multiplier: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "range_multiplier", Fraction(self.range_multiplier))
        if self.domain_size < 1:
            raise InvalidParams("domain must be non-empty")
        if self.range_multiplier < 1:
            raise InvalidParams("range multiplier must be >= 1")

    def bucket_count(self, n: int) -> int:
        return math.ceil(self.range_multiplier * n)


@dataclass(frozen=True)
class CspView:
    """What one variable sees: its identifier, its incident constraints with
    scopes given as identifier tuples, and the shared certificate."""

    own_id: int
    constraints: tuple[tuple[tuple[int, ...], frozenset[tuple[int, ...]]], ...]
    certificate: Bits


def csp_view(instance: CspInstance, var: int, certificate: Bits) -> CspView:
    if not 0 <= var < instance.variable_count:
        raise InvalidParams(f"variable {var} out of range")
    incident = tuple(
        (tuple(instance.ids.id_of(w) for w in ct.scope), ct.relation)
        for ct in instance.incident(var)
    )
    return CspView(instance.ids.id_of(var), incident, certificate)


def edge_relation(target: TargetGraph) -> frozenset[tuple[int, int]]:
    """The target's edges in both orientations, as a binary relation."""
    n = target.vertex_count
    return frozenset((a, b) for a in range(n) for b in range(n) if target.has_edge(a, b))


def graph_to_csp(graph: Graph, ids: IdAssignment, target: TargetGraph) -> CspInstance:
    """Homomorphism to `target` as a CSP: domain = target vertices, one
    binary constraint per edge allowing exactly the target's edges in both
    orientations."""
    relation = edge_relation(target)
    constraints = tuple(
        CspConstraint(scope=(u, v), relation=relation) for u, v in sorted(graph.edges)
    )
    return CspInstance(graph.vertex_count, target.vertex_count, ids, constraints)


def solve_csp(instance: CspInstance, budget: int = 10**7) -> tuple[int, ...] | None:
    """Lexicographically first satisfying assignment by backtracking, or
    None. Raises TooLarge when the search exceeds `budget` visited nodes."""
    by_last_var: list[list[CspConstraint]] = [[] for _ in range(instance.variable_count)]
    for ct in instance.constraints:
        by_last_var[max(ct.scope)].append(ct)
    assignment: list[int] = []
    visited = 0

    def consistent(var: int) -> bool:
        return all(
            tuple(assignment[w] for w in ct.scope) in ct.relation
            for ct in by_last_var[var]
        )

    def descend(var: int) -> bool:
        nonlocal visited
        if var == instance.variable_count:
            return True
        for value in range(instance.domain_size):
            visited += 1
            if visited > budget:
                raise TooLarge("CSP search budget exhausted")
            assignment.append(value)
            if consistent(var) and descend(var + 1):
                return True
            assignment.pop()
        return False

    if descend(0):
        return tuple(assignment)
    return None


def prove_csp(
    instance: CspInstance,
    params: CspParams,
    stats: ProveStats | None = None,
) -> Certificate:
    """Certificate (n, h, L) over the CSP domain: L holds a solution's
    values at the buckets the variable identifiers hash to."""
    if params.domain_size != instance.domain_size:
        raise InvalidParams("params domain does not match the instance")
    solution = solve_csp(instance)
    if solution is None:
        raise NotSatisfiable("CSP has no solution")
    n = instance.variable_count
    id_range = range_for_proving(instance.ids, n, params.id_policy)
    buckets = params.bucket_count(n)
    search = perfect_hash_search(instance.ids.id_set(), buckets, id_range)
    if stats is not None:
        stats.probes += search.probes
    values = bucket_table(search.index, instance.ids, solution, buckets)
    payload = encode_assignment_fields(
        n, search.index, values, params.id_policy, params.range_multiplier,
        params.domain_size,
    )
    return Certificate(SchemeTag.HASH, payload)


def verify_csp_variable(view: CspView, params: CspParams) -> bool:
    """Accept iff the payload decodes and, for every incident constraint,
    the tuple of values found at the scope identifiers' buckets is allowed."""
    try:
        decoded = HashCertificate(*decode_assignment_fields(
            view.certificate, params.id_policy, params.range_multiplier,
            params.domain_size,
        ))
    except MalformedCertificate:
        return False
    lookup = hash_lookup(decoded, params.id_policy)
    if lookup(view.own_id) is None:
        return False
    # no relation row holds the None of an identifier outside M(claimed n)
    return all(
        tuple(map(lookup, scope_ids)) in relation
        for scope_ids, relation in view.constraints
    )


def parse_csp(text: str) -> CspInstance:
    """Parse the line-oriented CSP format.

    Header `csp <nvars> <domain> <M>`, then `id <var> <identifier>` lines,
    then constraints: `ct <arity> <v1> ... <vr> <ntuples>` followed by
    ntuples lines of r values. `#` starts a comment.
    """
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.strip()) and not stripped.startswith("#")
    ]
    if not lines:
        raise ParseError("empty CSP file")
    pos = 0

    def take() -> list[str]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of CSP file")
        pos += 1
        return lines[pos - 1].split()

    header = take()
    if len(header) != 4 or header[0] != "csp":
        raise ParseError("expected 'csp <nvars> <domain> <M>' header")
    try:
        nvars, domain, id_range = int(header[1]), int(header[2]), int(header[3])
    except ValueError:
        raise ParseError("header fields must be integers") from None
    ids: dict[int, int] = {}
    for _ in range(nvars):
        row = take()
        if len(row) != 3 or row[0] != "id":
            raise ParseError("expected 'id <var> <identifier>'")
        try:
            var, identifier = int(row[1]), int(row[2])
        except ValueError:
            raise ParseError("id fields must be integers") from None
        if not 0 <= var < nvars:
            raise ParseError(f"variable {var} out of range")
        if var in ids:
            raise ParseError(f"variable {var} assigned twice")
        ids[var] = identifier
    constraints: list[CspConstraint] = []
    while pos < len(lines):
        row = take()
        if row[0] != "ct":
            raise ParseError(f"unknown record {row[0]!r}")
        try:
            arity = int(row[1])
            if len(row) != 3 + arity:
                raise ParseError("constraint header has the wrong field count")
            scope = tuple(int(x) for x in row[2 : 2 + arity])
            ntuples = int(row[-1])
            rows = []
            for _ in range(ntuples):
                values = take()
                if len(values) != arity:
                    raise ParseError("relation row arity mismatch")
                rows.append(tuple(int(x) for x in values))
        except ValueError:
            raise ParseError("constraint fields must be integers") from None
        constraints.append(CspConstraint(scope, frozenset(rows)))
    if id_range < nvars:
        raise InvalidId(f"id range {id_range} smaller than variable count {nvars}")
    assignment = IdAssignment(tuple(ids[v] for v in range(nvars)), id_range)
    return CspInstance(nvars, domain, assignment, tuple(constraints))


def serialize_csp(instance: CspInstance) -> str:
    lines = [f"csp {instance.variable_count} {instance.domain_size} {instance.ids.id_range}"]
    lines.extend(f"id {v} {instance.ids.id_of(v)}" for v in range(instance.variable_count))
    for ct in instance.constraints:
        scope = " ".join(str(v) for v in ct.scope)
        lines.append(f"ct {len(ct.scope)} {scope} {len(ct.relation)}")
        lines.extend(" ".join(str(x) for x in row) for row in sorted(ct.relation))
    return "\n".join(lines) + "\n"
