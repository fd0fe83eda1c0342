"""Whole-network simulation and certificate-size benchmarking.

run_all_nodes plays every node's verifier against one certificate; the
bench harness generates target-colorable instances, proves them under each
scheme, and records exact payload sizes plus the prover's perfect-hash
search cost (candidate indices probed; zero for the schemes that do not
search).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .errors import CertificationError
from .graphs import (
    Graph,
    IdAssignment,
    IdRangePolicy,
    TargetGraph,
    local_view,
    random_h_colorable_graph,
    random_id_assignment,
)
from .schemes import (
    Certificate,
    ProveStats,
    SchemeParams,
    SchemeTag,
    certificate_size_bits,
    prove_certificate,
    verify_certificate,
)

CSV_HEADER = "n,nprime,policy,M,scheme,size_bits,prover_probes,status,wall_ms"


@dataclass(frozen=True)
class RunResult:
    """Per-vertex decisions for one certificate, with size and prover cost."""

    decisions: tuple[bool, ...]
    all_accept: bool
    size_bits: int
    prover_probes: int


def run_all_nodes(
    graph: Graph,
    ids: IdAssignment,
    certificate: Certificate,
    params: SchemeParams,
) -> RunResult:
    """Build each vertex's local view and apply the scheme's verifier;
    decisions are independent across vertices. The result counts no prover
    probes; `prove_and_run` attaches those of its prover."""
    payload, scheme = certificate.payload, certificate.scheme
    decisions = tuple(
        verify_certificate(local_view(graph, ids, v, payload), scheme, params)
        for v in range(graph.vertex_count)
    )
    return RunResult(
        decisions=decisions,
        all_accept=all(decisions),
        size_bits=certificate_size_bits(certificate),
        prover_probes=0,
    )


def prove_and_run(
    graph: Graph,
    ids: IdAssignment,
    scheme: SchemeTag,
    params: SchemeParams,
) -> tuple[Certificate, RunResult]:
    stats = ProveStats()
    cert = prove_certificate(graph, ids, scheme, params, stats)
    return cert, replace(run_all_nodes(graph, ids, cert, params), prover_probes=stats.probes)


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark configuration: instance size, target, id-range policy."""

    n: int
    target: TargetGraph
    policy: IdRangePolicy
    density: float = 0.6


@dataclass(frozen=True)
class BenchRow:
    n: int
    nprime: int
    policy: str
    id_range: int
    scheme: str
    size_bits: int | None
    prover_probes: int
    status: str
    wall_ms: float

    def to_csv(self) -> str:
        size = "" if self.size_bits is None else str(self.size_bits)
        return (
            f"{self.n},{self.nprime},{self.policy},{self.id_range},{self.scheme},"
            f"{size},{self.prover_probes},{self.status},{self.wall_ms:.3f}"
        )


def bench_sizes(
    specs: list[BenchSpec],
    schemes: list[SchemeTag],
    seed: int,
) -> list[BenchRow]:
    """Prove each generated instance under each scheme and record exact
    payload bits. Prover errors become the row's status instead of failing
    the whole sweep."""
    rows = []
    for offset, spec in enumerate(specs):
        graph = random_h_colorable_graph(spec.n, spec.target, spec.density, seed + offset)
        id_range = spec.policy.evaluate(spec.n)
        ids = random_id_assignment(spec.n, id_range, seed + offset)
        params = SchemeParams(target=spec.target, id_policy=spec.policy)
        for scheme in schemes:
            started = time.perf_counter()
            try:
                _, result = prove_and_run(graph, ids, scheme, params)
                status = "ok" if result.all_accept else "rejected"
                size, probes = result.size_bits, result.prover_probes
            except CertificationError as exc:
                status = type(exc).__name__
                # a prover that raises has counted no probe
                size, probes = None, 0
            wall_ms = (time.perf_counter() - started) * 1000.0
            rows.append(
                BenchRow(
                    n=spec.n,
                    nprime=spec.target.vertex_count,
                    policy=spec.policy.describe(),
                    id_range=id_range,
                    scheme=scheme.label,
                    size_bits=size,
                    prover_probes=probes,
                    status=status,
                    wall_ms=wall_ms,
                )
            )
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.to_csv() for row in rows]) + "\n"


def default_bench_specs() -> list[BenchSpec]:
    """Reference sweep: the scheme separation at M = n^4 across sizes, and
    the doubly-exponential regime where only the hash scheme stays small."""
    from .graphs import BUILTIN_TARGETS

    k2 = BUILTIN_TARGETS["K2"]
    specs = [BenchSpec(n, k2, IdRangePolicy.poly(4)) for n in (4, 6, 8, 10, 12)]
    specs.append(BenchSpec(8, k2, IdRangePolicy.fixed(1 << 64)))
    specs.append(BenchSpec(8, k2, IdRangePolicy.fixed(1 << 128)))
    specs.append(BenchSpec(8, k2, IdRangePolicy.doubly_exponential()))
    return specs
