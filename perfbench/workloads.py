"""The four workloads: how each builds its seeded instance list, what one
operation runs, and how its output is checked against the reference.

Every operation calls the program through module attributes at call time,
so the tracer's replacements are the functions that run.

Where one instance's cost follows a heavy-tailed law (the perfect-hash
scan length, the backtracking solver's search size), instances are drawn
from the seed into fixed cost slots: a slot takes the first drawn candidate
whose cost, measured by the reference, lies in the slot's window. Each
seed then yields different instances with the same cost profile, so runs
with different seeds measure the same amount of work.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref
from globalcert import csp, graphs, harness, oracle, schemes
from globalcert.bits import Bits
from globalcert.csp import CspParams
from globalcert.graphs import BUILTIN_TARGETS, Graph, IdAssignment, IdRangePolicy
from globalcert.oracle import AuditBounds
from globalcert.schemes import (
    BitmapCertificate,
    Certificate,
    HashCertificate,
    IdListCertificate,
    SchemeParams,
    SchemeTag,
)

TARGET_NAMES = ("K2", "K3", "C5")
MAX_DRAWS = 5000


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # the last output that passed the check; an equal output needs no new check
    verified: object = None


@dataclass
class Instance:
    """A graph with identifiers, as the benchmark knows it."""

    target: str
    graph: Graph
    ids: IdAssignment

    @property
    def n(self) -> int:
        return self.graph.vertex_count

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.graph.edges)


class Draws:
    """The seeded random source of one build, and the seconds the reference
    spent measuring candidates' cost, which is the benchmark's own work and
    not part of the program's set-up."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.reference_s = 0.0

    def _cost(self, cost, candidate, limit):
        t0 = time.perf_counter()
        try:
            return cost(candidate, limit)
        finally:
            self.reference_s += time.perf_counter() - t0

    def fill_slots(self, windows, draw, cost):
        """One candidate per (lo, hi) window: draw(rng) makes a candidate,
        cost(candidate, limit) measures it (None above limit), and the first
        candidate landing in a still empty window fills it."""
        chosen = [None] * len(windows)
        for _ in range(MAX_DRAWS):
            empty = [j for j, c in enumerate(chosen) if c is None]
            if not empty:
                return chosen
            candidate = draw(self.rng)
            value = self._cost(cost, candidate, max(windows[j][1] for j in empty))
            if value is None:
                continue
            for j in empty:
                lo, hi = windows[j]
                if lo <= value < hi:
                    chosen[j] = (candidate, value)
                    break
        raise RuntimeError(f"no candidate filled the cost windows {windows} in {MAX_DRAWS} draws")


def graph_drawer(n: int, target: str, density: float):
    return lambda rng: graphs.random_h_colorable_graph(n, BUILTIN_TARGETS[target], density, rng.randrange(1 << 32))


def visit_counter(target: str):
    return lambda graph, limit: ref.backtrack_visits(graph.vertex_count, graph.edges, target, limit)


def _payload(cert: Certificate):
    return cert.payload.data, cert.payload.length


# ---------------------------------------------------------------------------
# prove: honest hash proving (graph scheme or CSP path) plus every verifier
# ---------------------------------------------------------------------------

PROVE_POLICY = IdRangePolicy.poly(4)
PROVE_DENSITY = 0.6
# (n, bucket multiplier, slots); the slots' scan lengths sit at evenly
# spaced quantiles from 0.1 to 0.8 of the geometric law, each within 6%:
# the top fifth of the tail, which would dominate a run's time, is never
# drawn
PROVE_CONFIGS = [
    (11, Fraction(1), 8),
    (12, Fraction(1), 8),
    (11, Fraction(3, 2), 4),
    (12, Fraction(3, 2), 4),
    (13, Fraction(3, 2), 4),
]
PROVE_QUANTILES = (0.1, 0.8)
PROVE_REL_WIDTH = 0.06
# the honest prover also solves; graphs whose backtracking search visits
# more than this many nodes per vertex are drawn again, so that the scan
# keeps its share of each operation
PROVE_SOLVE_CAP = 4


def check_assignment_payload(cert, inst: Instance, multiplier, expected_index: int) -> None:
    """Length equals the layout, the index is the reference's smallest
    injective member, and the table colours the graph homomorphically."""
    n, target = inst.n, inst.target
    values = ref.TARGET_SIZE[target]
    buckets = math.ceil(multiplier * n)
    id_range = PROVE_POLICY.evaluate(n)
    data, length = _payload(cert)
    ref.require(
        length == ref.hash_layout_bits(n, buckets, id_range, values),
        f"payload is {length} bits, layout gives {ref.hash_layout_bits(n, buckets, id_range, values)}",
    )
    claimed, index, table = ref.read_hash_payload(data, length, PROVE_POLICY.evaluate, multiplier, values)
    ref.require(claimed == n, f"payload claims n = {claimed}, graph has {n}")
    ref.require(index == expected_index, f"hash index {index}, smallest injective member is {expected_index}")
    at = ref.buckets_of(index, inst.ids.ids, buckets)
    ref.require(len(set(at)) == n, f"member {index} is not injective on the identifiers")
    colour = [table[b] for b in at]
    ref.require(ref.is_homomorphism(inst.edges, colour, target), "table does not induce a homomorphism")


def check_prove(output, inst: Instance, multiplier, expected_index: int) -> None:
    cert, decisions = output
    ref.require(len(decisions) == inst.n and all(decisions), "some node or variable rejects an honest certificate")
    check_assignment_payload(cert, inst, multiplier, expected_index)


def _prove_graph(inst: Instance, params: SchemeParams):
    cert, result = harness.prove_and_run(inst.graph, inst.ids, SchemeTag.HASH, params)
    return cert, result.decisions


def _prove_csp(inst: Instance, params: CspParams):
    instance = csp.graph_to_csp(inst.graph, inst.ids, BUILTIN_TARGETS[inst.target])
    cert = csp.prove_csp(instance, params)
    decisions = tuple(
        csp.verify_csp_variable(csp.csp_view(instance, v, cert.payload), params)
        for v in range(instance.variable_count)
    )
    return cert, decisions


def build_prove(draws: Draws) -> list[Op]:
    ops = []
    for n, multiplier, slots in PROVE_CONFIGS:
        buckets = math.ceil(multiplier * n)
        id_range = PROVE_POLICY.evaluate(n)
        p = ref.injective_probability(n, buckets)
        first, last = PROVE_QUANTILES
        windows = []
        for j in range(slots):
            centre = ref.probes_at_quantile(p, first + (last - first) * (j + 0.5) / slots)
            lo = math.ceil(centre * (1 - PROVE_REL_WIDTH))
            windows.append((lo, max(lo + 1, math.ceil(centre * (1 + PROVE_REL_WIDTH)))))

        def draw(r, n=n, id_range=id_range):
            return graphs.random_id_assignment(n, id_range, r.randrange(1 << 32))

        def scan_length(ids, limit, buckets=buckets):
            index = ref.first_perfect_index(ids.ids, buckets, limit)
            return None if index is None else index + 1

        for ids, probes in draws.fill_slots(windows, draw, scan_length):
            target = TARGET_NAMES[len(ops) % 3]
            easy = [(0, PROVE_SOLVE_CAP * n + 1)]
            [(graph, _)] = draws.fill_slots(easy, graph_drawer(n, target, PROVE_DENSITY), visit_counter(target))
            inst = Instance(target, graph, ids)
            label = f"prove n={n} lambda={multiplier} {target} probes={probes}"
            if len(ops) % 4 == 3:
                params = CspParams(ref.TARGET_SIZE[target], PROVE_POLICY, multiplier)
                run = lambda inst=inst, params=params: _prove_csp(inst, params)
                label += " csp"
            else:
                params = SchemeParams(BUILTIN_TARGETS[target], PROVE_POLICY, multiplier)
                run = lambda inst=inst, params=params: _prove_graph(inst, params)
            check = lambda out, inst=inst, m=multiplier, index=probes - 1: check_prove(out, inst, m, index)
            ops.append(Op(label, run, check))
    return ops


# ---------------------------------------------------------------------------
# solve: honest id-list and bitmap proving of larger planted graphs
# ---------------------------------------------------------------------------

SOLVE_POLICY = IdRangePolicy.poly(2)
# (target, n, density, windows on backtracking visits per vertex); each
# window holds SOLVE_PER_WINDOW graphs; the windows sit in the bulk of the
# search-size law, which has a heavy tail that reaches the solver's budget
SOLVE_CONFIGS = [
    ("K3", 80, 0.5, [(2.0, 3.0), (3.0, 4.5), (4.5, 7.0), (7.0, 10.5)]),
    ("K3", 150, 0.4, [(2.5, 3.75), (3.75, 5.6), (5.6, 8.4), (8.4, 12.6)]),
    ("C5", 60, 0.8, [(7.0, 10.5), (10.5, 15.75), (15.75, 23.6), (23.6, 35.4)]),
    ("C5", 150, 0.8, [(4.0, 6.0), (6.0, 9.0), (9.0, 13.5), (13.5, 20.25)]),
    ("K2", 250, 0.15, [(1.5, 2.25), (2.25, 3.4), (3.4, 5.1), (5.1, 7.6)]),
    ("K2", 400, 0.15, [(1.5, 2.25), (2.25, 3.4), (3.4, 5.1), (5.1, 7.6)]),
]
SOLVE_PER_WINDOW = 2
# bipartite, but the recursive solver needs one frame per vertex
PATH_VERTICES = 1500


def check_solve(cert, inst: Instance, scheme: SchemeTag) -> None:
    """The payload, read by the reference reader, colours exactly the
    graph's identifiers homomorphically."""
    n, target = inst.n, inst.target
    values = ref.TARGET_SIZE[target]
    id_range = SOLVE_POLICY.evaluate(n)
    data, length = _payload(cert)
    ref.require(cert.scheme is scheme, f"certificate scheme {cert.scheme}, asked for {scheme}")
    ids = inst.ids.ids
    if scheme is SchemeTag.IDLIST:
        ref.require(length == ref.idlist_layout_bits(n, id_range, values), "id-list payload length differs from its layout")
        claimed, records = ref.read_idlist_payload(data, length, SOLVE_POLICY.evaluate, values)
        ref.require(claimed == n, f"payload claims n = {claimed}, graph has {n}")
        listed = [identifier for identifier, _ in records]
        ref.require(listed == sorted(set(listed)), "records are not strictly ascending")
        ref.require(set(listed) == set(ids), "records do not list exactly the graph's identifiers")
        by_id = dict(records)
    else:
        by_id = ref.read_bitmap_payload(data, length, id_range, values, ids)
    colour = [by_id[i] for i in ids]
    ref.require(ref.is_homomorphism(inst.edges, colour, target), "colouring is not a homomorphism")


def _solve_op(inst: Instance, scheme: SchemeTag, label: str) -> Op:
    params = SchemeParams(BUILTIN_TARGETS[inst.target], SOLVE_POLICY)
    return Op(
        label,
        lambda: schemes.prove_certificate(inst.graph, inst.ids, scheme, params),
        lambda cert: check_solve(cert, inst, scheme),
    )


def build_solve(draws: Draws) -> list[Op]:
    rng = draws.rng
    ops = []
    for target, n, density, per_vertex in SOLVE_CONFIGS:
        windows = [(round(lo * n), round(hi * n)) for lo, hi in per_vertex for _ in range(SOLVE_PER_WINDOW)]

        drawn = draws.fill_slots(windows, graph_drawer(n, target, density), visit_counter(target))
        for graph, count in drawn:
            ids = graphs.random_id_assignment(n, SOLVE_POLICY.evaluate(n), rng.randrange(1 << 32))
            scheme = (SchemeTag.IDLIST, SchemeTag.BITMAP)[len(ops) % 2]
            label = f"solve {target} n={n} visits={count} {scheme.label}"
            ops.append(_solve_op(Instance(target, graph, ids), scheme, label))
    path = Graph.of(PATH_VERTICES, [(v, v + 1) for v in range(PATH_VERTICES - 1)])
    ids = graphs.random_id_assignment(PATH_VERTICES, SOLVE_POLICY.evaluate(PATH_VERTICES), rng.randrange(1 << 32))
    ops.append(_solve_op(Instance("K2", path, ids), SchemeTag.IDLIST, f"solve K2 path n={PATH_VERTICES} idlist"))
    return ops


# ---------------------------------------------------------------------------
# verify: whole-network verification of planted (and mutated) certificates
# ---------------------------------------------------------------------------

# (scheme, target, n, density, id-range policy)
VERIFY_CONFIGS = [
    (SchemeTag.HASH, "K2", 400, 0.08, IdRangePolicy.poly(4)),
    (SchemeTag.HASH, "K3", 300, 0.10, IdRangePolicy.poly(4)),
    (SchemeTag.HASH, "C5", 300, 0.12, IdRangePolicy.poly(4)),
    (SchemeTag.IDLIST, "K2", 300, 0.08, IdRangePolicy.poly(4)),
    (SchemeTag.IDLIST, "K3", 250, 0.10, IdRangePolicy.poly(4)),
    (SchemeTag.IDLIST, "C5", 250, 0.12, IdRangePolicy.poly(4)),
    (SchemeTag.BITMAP, "K2", 400, 0.08, IdRangePolicy.poly(2)),
    (SchemeTag.BITMAP, "K3", 300, 0.10, IdRangePolicy.poly(2)),
    (SchemeTag.BITMAP, "C5", 300, 0.12, IdRangePolicy.poly(2)),
]


def planted_graph(n: int, colour, target: str, density: float, rng) -> Graph:
    """Keep each pair whose colours form a target edge with probability density."""
    allowed = ref.TARGET_EDGES[target]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (colour[u], colour[v]) in allowed and rng.random() < density
    ]
    return Graph.of(n, edges)


def truncated(cert: Certificate) -> Certificate:
    """The certificate without the last bit of its payload."""
    bits = ref.Reader(*_payload(cert)).bits[:-1]
    return Certificate(cert.scheme, Bits(ref.pack(bits), len(bits)))


def check_verify(result, expected: tuple[bool, ...]) -> None:
    decisions = result.decisions
    ref.require(len(decisions) == len(expected), f"{len(decisions)} decisions for {len(expected)} nodes")
    wrong = [v for v, (got, want) in enumerate(zip(decisions, expected)) if got != want]
    ref.require(not wrong, f"{len(wrong)} node decisions differ from the reference, first at vertex {wrong[:1]}")
    ref.require(result.all_accept == all(expected), "all_accept disagrees with the decisions")


def build_verify(draws: Draws) -> list[Op]:
    rng = draws.rng
    ops = []
    for scheme, target, n, density, policy in VERIFY_CONFIGS:
        values = ref.TARGET_SIZE[target]
        id_range = policy.evaluate(n)
        ids = graphs.random_id_assignment(n, id_range, rng.randrange(1 << 32))
        params = SchemeParams(BUILTIN_TARGETS[target], policy)
        if scheme is SchemeTag.HASH:
            index = rng.randrange(ref.family_size(n, id_range))
            table = [rng.randrange(values) for _ in range(n)]
            at = ref.buckets_of(index, ids.ids, n)
            colour = [table[b] for b in at]
        else:
            colour = [rng.randrange(values) for _ in range(n)]
        graph = planted_graph(n, colour, target, density, rng)
        edges = sorted(graph.edges)
        # recolour one vertex with a neighbour: its bucket (hash) or its
        # record or entry (id list, bitmap) takes the next colour
        victim = rng.choice([v for v in range(n) if graph.neighbors(v)])
        if scheme is SchemeTag.HASH:
            table2 = list(table)
            table2[at[victim]] = (table2[at[victim]] + 1) % values
            colour2 = [table2[b] for b in at]
            honest = HashCertificate(n, index, tuple(table))
            mutated = HashCertificate(n, index, tuple(table2))
        else:
            colour2 = list(colour)
            colour2[victim] = (colour2[victim] + 1) % values
            if scheme is SchemeTag.IDLIST:
                honest = IdListCertificate(tuple(sorted(zip(ids.ids, colour))))
                mutated = IdListCertificate(tuple(sorted(zip(ids.ids, colour2))))
            else:
                by_id = [0] * id_range
                for i, c in zip(ids.ids, colour):
                    by_id[i] = c
                honest = BitmapCertificate(tuple(by_id))
                by_id[ids.ids[victim]] = colour2[victim]
                mutated = BitmapCertificate(tuple(by_id))
        honest_cert = schemes.encode_certificate(honest, params)
        cases = [
            ("honest", honest_cert, ref.node_decisions(n, edges, colour, target)),
            ("recoloured", schemes.encode_certificate(mutated, params), ref.node_decisions(n, edges, colour2, target)),
            ("truncated", truncated(honest_cert), (False,) * n),
        ]
        for case, cert, expected in cases:
            label = f"verify {scheme.label} {target} n={n} m={len(edges)} {case}"
            ops.append(
                Op(
                    label,
                    lambda graph=graph, ids=ids, cert=cert, params=params: harness.run_all_nodes(graph, ids, cert, params),
                    lambda result, expected=expected: check_verify(result, expected),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# audit: exhaustive soundness audits of tiny instances
# ---------------------------------------------------------------------------

_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
SHAPES = {
    "K4": (4, _K4),
    "K4-e": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "W4": (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]),
    "K4+pendant": (5, _K4 + [(3, 4)]),
    "bowtie": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
}
# (scheme or "csp", shape, target, fixed M, largest claimed n); the first
# rows have no homomorphism and sweep their whole space, the last rows
# have one and stop at their first accepted certificate
AUDITS = [
    ("hash", "K4", "K3", 16, 4),
    ("hash", "K4", "C5", 8, 4),
    ("hash", "C5", "K2", 16, 5),
    ("hash", "W4", "K2", 16, 5),
    ("hash", "K4+pendant", "K3", 8, 4),
    ("idlist", "K4", "K3", 8, 5),
    ("idlist", "C5", "K2", 8, 5),
    ("idlist", "W4", "K2", 8, 5),
    ("idlist", "bowtie", "K2", 8, 5),
    ("bitmap", "K4", "K3", 8, 8),
    ("bitmap", "C5", "K2", 16, 5),
    ("bitmap", "W4", "K2", 16, 5),
    ("csp", "K4", "K3", 16, 4),
    ("csp", "C5", "K2", 8, 5),
    ("hash", "C5", "C5", 8, 5),
    ("hash", "K4-e", "K3", 16, 4),
    ("idlist", "K4-e", "K3", 8, 4),
    ("bitmap", "K4-e", "K3", 8, 8),
    ("csp", "bowtie", "K3", 8, 4),
]
# C5 maps to C5 only bijectively, so this hash audit's first witness lies
# at the first member injective on the five identifiers under claim 5; its
# identifiers are drawn until that index falls in this window, which fixes
# the depth of the search and lets the check predict `tried` exactly
DEEP_WITNESS = {("hash", "C5", "C5"): (27, 31)}


def deep_witness_tried(n: int, edges, ids, target: str, id_range: int, claim: int, index: int) -> int:
    """Certificates the hash audit enumerates up to its first witness, when
    that witness uses the first member injective for the largest claim."""
    at = ref.buckets_of(index, ids, claim)
    values = ref.TARGET_SIZE[target]
    for rank, table in enumerate(itertools.product(range(values), repeat=claim)):
        if ref.is_homomorphism(edges, [table[b] for b in at], target):
            return audit_space("hash", target, id_range, claim - 1) + index * values**claim + rank + 1
    raise ref.CheckFailed("no colouring of the injective member's buckets")


def audit_space(kind: str, target: str, id_range: int, max_claim: int) -> int:
    """Number of decodable certificates with claims 1..max_claim under a
    fixed identifier range (a claim above M is not a valid n)."""
    values = ref.TARGET_SIZE[target]
    claims = range(1, min(max_claim, id_range) + 1)
    if kind in ("hash", "csp"):
        return sum(ref.family_size(c, id_range) * values**c for c in claims)
    if kind == "idlist":
        return sum((id_range * values) ** c for c in claims)
    return values**id_range if claims else 0


def witness_accepted(kind: str, cert: Certificate, n: int, edges, ids, target: str, id_range: int) -> bool:
    """Reference decision of every node on the witness certificate."""
    values = ref.TARGET_SIZE[target]
    data, length = _payload(cert)
    if kind in ("hash", "csp"):
        claimed, index, table = ref.read_hash_payload(data, length, lambda c: id_range, 1, values)
        colour = [table[b] for b in ref.buckets_of(index, ids, claimed)]
    elif kind == "idlist":
        _, records = ref.read_idlist_payload(data, length, lambda c: id_range, values)
        listed = [i for i, _ in records]
        if listed != sorted(set(listed)) or not set(ids) <= set(listed):
            return False
        by_id = dict(records)
        colour = [by_id[i] for i in ids]
    else:
        by_id = ref.read_bitmap_payload(data, length, id_range, values, ids)
        colour = [by_id[i] for i in ids]
    return ref.is_homomorphism(edges, colour, target)


def check_audit(report, kind: str, n: int, edges, ids, target: str, id_range: int, max_claim: int, tried=None) -> None:
    """tried, when given, is the exact count the reference predicts."""
    holds = ref.colourable(n, edges, target)
    ref.require(report.property_holds == holds, f"property_holds {report.property_holds}, brute force {holds}")
    ref.require(
        report.certificate_accepted_exists == holds,
        f"certificate_accepted_exists {report.certificate_accepted_exists} but property_holds {holds}",
    )
    space = audit_space(kind, target, id_range, max_claim)
    if report.certificate_accepted_exists:
        ref.require(1 <= report.certificates_tried <= space, f"tried {report.certificates_tried} outside [1, {space}]")
        ref.require(tried in (None, report.certificates_tried), f"tried {report.certificates_tried}, reference {tried}")
        ref.require(
            isinstance(report.witness, Certificate) and witness_accepted(kind, report.witness, n, edges, ids, target, id_range),
            "the witness is not accepted by every node",
        )
    else:
        ref.require(report.certificates_tried == space, f"tried {report.certificates_tried}, space is {space}")
        ref.require(report.witness in ids, f"witness {report.witness} is not a node identifier")


def build_audit(draws: Draws) -> list[Op]:
    rng = draws.rng
    ops = []
    for kind, shape, target, id_range, max_claim in AUDITS:
        n, edge_list = SHAPES[shape]
        graph = Graph.of(n, edge_list)
        draw = lambda r, n=n, m=id_range: graphs.random_id_assignment(n, m, r.randrange(1 << 32))
        deep_tried = None
        if (kind, shape, target) in DEEP_WITNESS:
            scan = lambda ids, limit, c=max_claim: ref.first_perfect_index(ids.ids, c, limit)
            [(ids, index)] = draws.fill_slots([DEEP_WITNESS[kind, shape, target]], draw, scan)
            deep_tried = deep_witness_tried(n, sorted(graph.edges), ids.ids, target, id_range, max_claim, index)
        else:
            ids = draw(rng)
        policy = IdRangePolicy.fixed(id_range)
        bounds = AuditBounds(max_claimed_n=max_claim)
        if kind == "csp":
            instance = csp.graph_to_csp(graph, ids, BUILTIN_TARGETS[target])
            params = CspParams(ref.TARGET_SIZE[target], policy)
            run = lambda instance=instance, params=params, bounds=bounds: oracle.audit_csp_soundness(instance, params, bounds)
        else:
            params = SchemeParams(BUILTIN_TARGETS[target], policy)
            scheme = SchemeTag.from_label(kind)
            run = lambda graph=graph, ids=ids, scheme=scheme, params=params, bounds=bounds: oracle.audit_soundness(
                graph, ids, scheme, params, bounds
            )
        edges = sorted(graph.edges)
        check = lambda report, kind=kind, n=n, edges=edges, ids=ids.ids, target=target, m=id_range, c=max_claim, t=deep_tried: check_audit(
            report, kind, n, edges, ids, target, m, c, t
        )
        ops.append(Op(f"audit {kind} {shape}->{target} M={id_range} claims<={max_claim}", run, check))
    return ops


@dataclass(frozen=True)
class Workload:
    build: Callable[[Draws], list[Op]]
    # nominal seconds of one timed pass; a run makes round(seconds / this)
    # passes, so its work is fixed by --seconds and never by the clock
    pass_seconds: float


WORKLOADS = {
    "prove": Workload(build_prove, 0.8),
    "solve": Workload(build_solve, 0.175),
    "verify": Workload(build_verify, 1.6),
    "audit": Workload(build_audit, 1.2),
}
