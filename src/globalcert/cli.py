"""Command-line front end.

Exit codes: 0 success / all nodes accept; 1 some node rejects or an audit
finds a certificate/property mismatch; 2 usage, input or unexpected error;
3 prover error (NotSatisfiable, NoPerfectHash, BitmapTooLarge) or a search
over its bound (TooLarge: a solver budget, an audit's certificate space or
the perfect-hash scan's probe cap).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .csp import CspParams, csp_view, graph_to_csp, parse_csp, prove_csp, serialize_csp, verify_csp_variable
from .errors import (
    BitmapTooLarge,
    CertificationError,
    MalformedCertificate,
    NoPerfectHash,
    NotSatisfiable,
    ParseError,
    TooLarge,
)
from .graphs import (
    BUILTIN_TARGETS,
    IdRangePolicy,
    parse_graph,
    random_h_colorable_graph,
    random_id_assignment,
    serialize_graph,
)
from .harness import BenchSpec, bench_sizes, default_bench_specs, rows_to_csv, run_all_nodes
from .oracle import AuditBounds, audit_soundness
from .schemes import Certificate, ProveStats, SchemeParams, SchemeTag, prove_certificate

_PROVER_ERRORS = (NotSatisfiable, NoPerfectHash, BitmapTooLarge, TooLarge)


def _load_target(name_or_path: str):
    if name_or_path in BUILTIN_TARGETS:
        return BUILTIN_TARGETS[name_or_path]
    return _load_graph(name_or_path)[0]


def _load_graph(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _policy(args, default: IdRangePolicy) -> IdRangePolicy:
    return default if args.id_range is None else IdRangePolicy.parse(args.id_range)


def _graph_input(args, multiplier: str = "1"):
    """The graph file `--graph`, its identifiers, and the SchemeParams of
    `--target`, `--id-range` (by default the file's range) and `multiplier`."""
    graph, ids = _load_graph(args.graph)
    params = SchemeParams(
        target=_load_target(args.target),
        id_policy=_policy(args, IdRangePolicy.fixed(ids.id_range)),
        range_multiplier=Fraction(multiplier),
    )
    return graph, ids, params


def _cmd_gen(args) -> int:
    target = _load_target(args.target)
    policy = _policy(args, IdRangePolicy.poly(2))
    graph = random_h_colorable_graph(args.n, target, args.density, args.seed)
    ids = random_id_assignment(args.n, policy.evaluate(args.n), args.seed)
    if args.csp:
        text = serialize_csp(graph_to_csp(graph, ids, target))
    else:
        text = serialize_graph(graph, ids)
    _write_text(args.out, text)
    return 0


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _instance(args):
    """The one input of `prove` and `verify`, read once: its identifiers in
    vertex or variable order, `prove(scheme, stats) -> Certificate` and
    `decide(cert) -> one decision per identifier`."""
    if (args.csp is None) == (args.graph is None):
        raise CertificationError("exactly one of --graph or --csp is required")
    if args.csp is not None:
        with open(args.csp, encoding="utf-8") as handle:
            instance = parse_csp(handle.read())
        ids = instance.ids
        params = CspParams(
            domain_size=instance.domain_size,
            id_policy=_policy(args, IdRangePolicy.fixed(ids.id_range)),
            range_multiplier=Fraction(args.multiplier),
        )

        def prove(scheme, stats):
            if scheme is not SchemeTag.HASH:
                raise CertificationError("CSP instances certify under the hash scheme only")
            return prove_csp(instance, params, stats)

        def decide(cert):
            # a CSP certificate is read in the hash layout only: any other
            # tag is rejected at every variable
            return [
                cert.scheme is SchemeTag.HASH
                and verify_csp_variable(csp_view(instance, v, cert.payload), params)
                for v in range(instance.variable_count)
            ]
    else:
        graph, ids, params = _graph_input(args, args.multiplier)

        def prove(scheme, stats):
            return prove_certificate(graph, ids, scheme, params, stats)

        def decide(cert):
            return run_all_nodes(graph, ids, cert, params).decisions
    return ids.ids, prove, decide


def _cmd_prove(args) -> int:
    scheme = SchemeTag.from_label(args.scheme)
    stats = ProveStats()
    cert = _instance(args)[1](scheme, stats)
    with open(args.out, "wb") as handle:
        handle.write(cert.to_bytes())
    print(f"scheme={scheme.label} payload_bits={cert.payload.length} probes={stats.probes}")
    return 0


def _cmd_verify(args) -> int:
    all_ids, _, decide = _instance(args)
    with open(args.cert, "rb") as handle:
        blob = handle.read()
    try:
        cert = Certificate.from_bytes(blob)
    except MalformedCertificate:  # an unusable tag byte: no node can accept it
        decisions = [False] * len(all_ids)
    else:
        decisions = decide(cert)
    for identifier, accepted in zip(all_ids, decisions):
        print(f"id={identifier} {'accept' if accepted else 'reject'}")
    rejecting = sorted(identifier for identifier, ok in zip(all_ids, decisions) if not ok)
    if rejecting:
        print("rejecting:", " ".join(str(i) for i in rejecting))
        return 1
    return 0


def _cmd_audit(args) -> int:
    graph, ids, params = _graph_input(args)
    report = audit_soundness(
        graph,
        ids,
        SchemeTag.from_label(args.scheme),
        params,
        AuditBounds(max_claimed_n=args.max_n, max_space=args.max_space),
    )
    witness = report.witness
    if isinstance(witness, Certificate):
        witness = witness.to_bytes().hex()
    print(
        f"property={str(report.property_holds).lower()} "
        f"accepted={str(report.certificate_accepted_exists).lower()} "
        f"tried={report.certificates_tried} witness={'-' if witness is None else witness}"
    )
    return 0 if report.property_holds == report.certificate_accepted_exists else 1


def _bench_spec(row: str) -> BenchSpec:
    """The BenchSpec of one `--row`: comma-separated key=value parts, the
    keys n (required), target, policy and density; ParseError names the
    first part that is not one of them."""
    fields = {}
    for part in row.split(","):
        key, eq, value = part.partition("=")
        if not eq or key not in ("n", "target", "policy", "density"):
            raise ParseError(f"bad --row part {part!r}: expected n=, target=, policy= or density=")
        fields[key] = value
    if "n" not in fields:
        raise ParseError(f"--row {row!r} has no n=")
    return BenchSpec(
        n=int(fields["n"]),
        target=_load_target(fields.get("target", "K2")),
        policy=IdRangePolicy.parse(fields.get("policy", "poly:4")),
        density=float(fields.get("density", 0.6)),
    )


def _cmd_bench(args) -> int:
    specs = [_bench_spec(row) for row in args.row] if args.row else default_bench_specs()
    schemes = [SchemeTag.from_label(s) for s in args.schemes.split(",")]
    rows = bench_sizes(specs, schemes, args.seed)
    _write_text(args.out, rows_to_csv(rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="globalcert",
        description="Global certification of graph homomorphism and CSP satisfiability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the framework options of `gen`, `prove`, `verify` and `audit`
    framework = argparse.ArgumentParser(add_help=False)
    framework.add_argument("--target", default="K2", help="K2|K3|C5 or a graph file")
    framework.add_argument("--id-range", dest="id_range", default=None)

    gen = sub.add_parser("gen", parents=[framework], help="generate a target-colorable graph or CSP file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--density", type=float, default=0.6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--csp", action="store_true", help="emit the CSP translation")
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=_cmd_gen)

    # the input options `prove` and `verify` share
    inputs = argparse.ArgumentParser(add_help=False, parents=[framework])
    inputs.add_argument("--graph")
    inputs.add_argument("--csp")
    inputs.add_argument("--lambda", dest="multiplier", default="1")

    prove = sub.add_parser("prove", parents=[inputs], help="write a certificate file")
    # hash, idlist, bitmap: the labels in descending tag order
    scheme_labels = [tag.label for tag in reversed(SchemeTag)]
    prove.add_argument("--scheme", choices=scheme_labels, required=True)
    prove.add_argument("--out", required=True)
    prove.set_defaults(func=_cmd_prove)

    verify = sub.add_parser("verify", parents=[inputs], help="run every node's verifier")
    verify.add_argument("--cert", required=True)
    verify.set_defaults(func=_cmd_verify)

    audit = sub.add_parser("audit", parents=[framework], help="exhaustive certificate-space audit")
    audit.add_argument("--graph", required=True)
    audit.add_argument("--scheme", choices=scheme_labels, default="hash")
    audit.add_argument("--max-n", dest="max_n", type=int, default=4)
    audit.add_argument("--max-space", dest="max_space", type=int, default=10**7)
    audit.set_defaults(func=_cmd_audit)

    bench = sub.add_parser("bench", help="certificate-size benchmark CSV")
    bench.add_argument("--row", action="append", help="n=12,target=K2,policy=poly:4")
    bench.add_argument("--schemes", default="hash,idlist,bitmap")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default="-")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _PROVER_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # input errors and anything unexpected: one line, never a traceback
        print(f"{type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
