"""Constraint satisfaction: instances, the graph translation, the one
backtracking search that both solvers share, and the hash-compressed
certification scheme where each variable verifies its incident constraints
locally.

`backtrack` is iterative: it keeps the partial assignment in a list and
moves a cursor over the variables, so its depth is not bounded by Python's
recursion limit. Its domains are bitmasks: on arriving at a variable it asks
once for the mask of values consistent with the earlier ones, and takes set
bits in ascending order. `solve_scopes` builds those masks from support
tables, one per relation and scope shape. The CSP scheme proves, encodes,
decodes and looks up values through the same hash path as the graph scheme
in `schemes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter

from .bits import Bits
from .errors import InvalidParams, NotSatisfiable, ParseError, TooLarge
from .graphs import Graph, IdAssignment, IdRangePolicy, TargetGraph, _integers, edge_relation, read_instance
from .hashing import perfect_hash_search  # noqa: F401  kept: perfbench/tracing.py patches it here
from .schemes import Certificate, HashFramework, ProveStats, hash_colors, prove_hash_table, range_for_proving, shared_lookup
from .schemes import decode_assignment_fields, encode_assignment_fields  # noqa: F401  kept: perfbench/tracing.py patches it here


@lru_cache(maxsize=256)
def _row_lengths(relation: frozenset) -> frozenset[int]:
    """The lengths of a relation's rows. This check and `_value_outside`
    are cached by relation, as `_supports` is, because `graph_to_csp`
    shares one relation across all its constraints."""
    return frozenset(map(len, relation))


@lru_cache(maxsize=256)
def _value_outside(relation: frozenset, domain_size: int) -> int | None:
    """The first value in a relation's rows outside [0, domain_size), or None."""
    return next((value for row in relation for value in row if not 0 <= value < domain_size), None)


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
        if _row_lengths(self.relation) - {len(self.scope)}:
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
            value = _value_outside(ct.relation, self.domain_size)
            if value is not None:
                raise InvalidParams(f"relation value {value} outside the domain")

    def incident(self, var: int) -> tuple[CspConstraint, ...]:
        """The constraints whose scope holds `var`, in constraint order;
        built for every variable on the first call."""
        return self._incident[var] if 0 <= var < self.variable_count else ()

    @cached_property
    def _incident(self) -> tuple[tuple[CspConstraint, ...], ...]:
        lists: list[list[CspConstraint]] = [[] for _ in range(self.variable_count)]
        for ct in self.constraints:
            for v in ct.scope:
                lists[v].append(ct)
        return tuple(map(tuple, lists))


@dataclass(frozen=True)
class CspParams(HashFramework):
    """Framework fixed between prover and verifiers for the CSP scheme."""

    domain_size: int
    id_policy: IdRangePolicy
    range_multiplier: Fraction = Fraction(1)

    def __post_init__(self):
        if self.domain_size < 1:
            raise InvalidParams("domain must be non-empty")
        super().__post_init__()


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


def graph_to_csp(graph: Graph, ids: IdAssignment, target: TargetGraph) -> CspInstance:
    """Homomorphism to `target` as a CSP: domain = target vertices, one
    binary constraint per edge allowing exactly the target's edges in both
    orientations."""
    relation = edge_relation(target)
    constraints = tuple(
        CspConstraint(scope=(u, v), relation=relation) for u, v in sorted(graph.edges)
    )
    return CspInstance(graph.vertex_count, target.vertex_count, ids, constraints)


def backtrack(variable_count: int, domain_size: int, allowed, budget: int):
    """Lexicographically first assignment of values 0..domain_size-1 to
    variables 0..variable_count-1 in which every `values[var]` is a set bit
    of `allowed(var, values)`, or None.

    `allowed(var, values)` is the bitmask, below `1 << domain_size`, of the
    values of `var` consistent with `values[0..var-1]`, the only values it
    may read; it is asked once each time the search arrives at `var`. Variables go in index order and
    values ascending. The search counts the nodes that trying each value in
    turn would visit: `value - start + 1` to reach a set bit from `start`,
    `domain_size - start` at a dead end. More than `budget` of them raise
    TooLarge.
    """
    values = [-1] * variable_count
    masks = [0] * variable_count
    visited = 0
    var = 0
    while 0 <= var < variable_count:
        start = values[var] + 1
        if start == 0:  # arriving from var - 1
            masks[var] = allowed(var, values)
        rest = masks[var] >> start
        # values tried: up to the lowest set bit, or to the domain's end
        skip = (rest & -rest).bit_length() if rest else domain_size - start
        visited += skip
        if visited > budget:
            raise TooLarge(f"search budget of {budget} nodes exhausted")
        if rest:
            values[var] = start + skip - 1
            var += 1
        else:
            values[var] = -1
            var -= 1
    return None if var < 0 else tuple(values)


def _reader(positions):
    """itemgetter over `positions`: one value, a tuple of two or more, or ()."""
    return itemgetter(*positions) if positions else lambda values: ()


@lru_cache(maxsize=256)
def _supports(relation: frozenset, last: tuple[bool, ...]) -> dict:
    """Support table of `relation` for a scope whose positions `last` marks
    name its last variable: the values at the other positions, as `_reader`
    gives them, map to the mask of the last variable's values that complete
    a row. A row that puts two values at the marked positions supports
    nothing. The cache shares each table, so callers only read it."""
    read = _reader([i for i, is_last in enumerate(last) if not is_last])
    table: dict = {}
    for row in relation:
        marked = {row[i] for i, is_last in enumerate(last) if is_last}
        if len(marked) == 1:
            table[read(row)] = table.get(read(row), 0) | 1 << marked.pop()
    return table


@lru_cache(maxsize=1024)
def _scope_support(scope: tuple[int, ...], relation: frozenset):
    """(last variable, reader of the other variables' values, support table)
    for one scope; cached because an audit solves many small quotients over
    the same few scopes."""
    var = max(scope)
    table = _supports(relation, tuple(w == var for w in scope))
    return var, _reader([w for w in scope if w != var]), table


def solve_scopes(variable_count: int, domain_size: int, scopes, relations, budget: int):
    """Lexicographically first assignment that puts every scope's values in
    its relation, or None; a scope may name a variable twice and constrains
    its last variable, whose allowed mask is the AND of the scope's support
    table at the other variables' values. Raises TooLarge past `budget`
    visited nodes."""
    full = (1 << domain_size) - 1
    lookups: list[list] = [[] for _ in range(variable_count)]
    for scope, relation in zip(scopes, relations):
        var, read, table = _scope_support(scope, relation)
        lookups[var].append((read, table))

    def allowed(var: int, values: list[int]) -> int:
        mask = full
        for read, table in lookups[var]:
            mask &= table.get(read(values), 0)
        return mask

    return backtrack(variable_count, domain_size, allowed, budget)


def solve_csp(instance: CspInstance, budget: int = 10**7) -> tuple[int, ...] | None:
    """Lexicographically first satisfying assignment, or None."""
    cts = instance.constraints
    return solve_scopes(
        instance.variable_count, instance.domain_size,
        [ct.scope for ct in cts], [ct.relation for ct in cts], budget,
    )


def prove_csp(
    instance: CspInstance,
    params: CspParams,
    stats: ProveStats | None = None,
) -> Certificate:
    """Certificate (n, h, L) over the CSP domain: L holds a solution's
    values at the buckets the variable identifiers hash to."""
    if params.domain_size != instance.domain_size:
        raise InvalidParams("params domain does not match the instance")
    id_range = range_for_proving(instance.ids, instance.variable_count, params.id_policy)
    solution = solve_csp(instance)
    if solution is None:
        raise NotSatisfiable("CSP has no solution")
    return prove_hash_table(solution, instance.ids, id_range, params, stats)


def verify_csp_variable(view: CspView, params: CspParams) -> bool:
    """Accept iff the payload decodes and, for every incident constraint,
    the tuple of values found at the scope identifiers' buckets is allowed."""
    lookup = shared_lookup(hash_colors, view.certificate, params)
    if lookup is None or lookup(view.own_id) is None:
        return False
    # no relation row holds the None of an identifier outside M(claimed n)
    return all(
        tuple(map(lookup, scope_ids)) in relation
        for scope_ids, relation in view.constraints
    )


def parse_csp(text: str) -> CspInstance:
    """Parse the line-oriented CSP format (see `graphs.read_instance`).

    Header `csp <nvars> <domain> <M>`, then in any order exactly nvars
    lines `id <var> <identifier>` and the constraints, each
    `ct <arity> <v1> ... <vr> <ntuples>` followed by ntuples lines of r
    values.
    """
    constraints: list[CspConstraint] = []

    def read_constraint(lineno: int, fields: list[str], records) -> None:
        form = "ct <arity> <v1> ... <vr> <ntuples>"
        # every field after `ct` is an integer, at least two of them: the
        # arity, which must equal the scope's length, and ntuples
        head = _integers(lineno, fields[1:], max(len(fields) - 1, 2), form)
        scope = tuple(head[1:-1])
        if head[0] != len(scope):
            raise ParseError(f"line {lineno}: expected '{form}'")
        if head[-1] < 0:
            raise ParseError(f"line {lineno}: negative row count {head[-1]}")
        rows = set()
        for _ in range(head[-1]):
            row = next(records, None)
            if row is None:
                raise ParseError(f"line {lineno}: fewer than {head[-1]} relation rows follow")
            rows.add(tuple(_integers(row[0], row[1], len(scope), f"{len(scope)} values")))
        constraints.append(CspConstraint(scope, frozenset(rows)))

    (nvars, domain, _), ids = read_instance(text, "csp <nvars> <domain> <M>", {"ct": read_constraint})
    return CspInstance(nvars, domain, ids, tuple(constraints))


def serialize_csp(instance: CspInstance) -> str:
    lines = [f"csp {instance.variable_count} {instance.domain_size} {instance.ids.id_range}"]
    lines.extend(f"id {v} {instance.ids.id_of(v)}" for v in range(instance.variable_count))
    for ct in instance.constraints:
        scope = " ".join(str(v) for v in ct.scope)
        lines.append(f"ct {len(ct.scope)} {scope} {len(ct.relation)}")
        lines.extend(" ".join(str(x) for x in row) for row in sorted(ct.relation))
    return "\n".join(lines) + "\n"
