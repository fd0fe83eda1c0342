"""The first rows of the scale ladder: generate, prove and verify planted
graphs of 10^3 and 10^4 vertices.

For each size and each of the targets K2, K3 and C5 it generates a planted
graph at expected average degree 3 with `random_h_colorable_graph`, then
prints the generation seconds, the edge count, the id-list prover's
seconds or the name of the error it raised, and the seconds and nodes per
second of running every node's verifier. When the prover refuses, the
verifier runs on an id-list certificate encoded from the planted colouring,
which is the generator's first n draws. Identifiers come from
`poly:2`. Run from anywhere:

    python3 tools/scale.py [--seed S]

It is not part of the test suite: a row at 10^4 vertices takes seconds.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from globalcert import (  # noqa: E402
    BUILTIN_TARGETS,
    CertificationError,
    IdRangePolicy,
    SchemeParams,
    SchemeTag,
    prove_certificate,
    random_h_colorable_graph,
    random_id_assignment,
    run_all_nodes,
)
from globalcert.schemes import IdListCertificate, encode_certificate  # noqa: E402

SIZES = (10**3, 10**4)
DEGREE = 3
POLICY = IdRangePolicy.poly(2)


def density_for_degree(n: int, target, degree: float) -> float:
    """The density at which a vertex has `degree` neighbours in expectation:
    a pair is a candidate with probability 2|E| / k^2."""
    k = target.vertex_count
    return degree * k * k / (2 * len(target.edges) * (n - 1))


def planted_colouring(n: int, target, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(target.vertex_count) for _ in range(n)]


def row(n: int, name: str, seed: int) -> str:
    target = BUILTIN_TARGETS[name]
    started = time.perf_counter()
    graph = random_h_colorable_graph(n, target, density_for_degree(n, target, DEGREE), seed)
    gen_s = time.perf_counter() - started
    ids = random_id_assignment(n, POLICY.evaluate(n), seed)
    params = SchemeParams(target, POLICY)
    started = time.perf_counter()
    try:
        cert = prove_certificate(graph, ids, SchemeTag.IDLIST, params)
        prove = f"{time.perf_counter() - started:.2f}"
    except CertificationError as exc:
        prove = f"{type(exc).__name__} {time.perf_counter() - started:.2f}"
        phi = planted_colouring(n, target, seed)
        records = sorted((ids.id_of(v), phi[v]) for v in range(n))
        cert = encode_certificate(IdListCertificate(tuple(records)), params)
    started = time.perf_counter()
    result = run_all_nodes(graph, ids, cert, params)
    verify_s = time.perf_counter() - started
    accepted = "yes" if result.all_accept else "NO"
    return (f"{n:>6} {name:>3} {gen_s:>6.3f} {len(graph.edges):>6} {prove:>14} "
            f"{verify_s:>7.3f} {n / verify_s:>8.0f} {accepted:>8}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    # the generator's first call imports numpy; keep that out of the rows
    random_h_colorable_graph(2, BUILTIN_TARGETS["K2"], 0.5, 0)
    print(f"{'n':>6} {'H':>3} {'gen_s':>6} {'edges':>6} {'prove_s':>14} {'verify_s':>7} {'nodes/s':>8} {'accepted':>8}")
    for n in SIZES:
        for name in ("K2", "K3", "C5"):
            print(row(n, name, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
