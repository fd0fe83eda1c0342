"""Command-line front end.

Exit codes: 0 success / all nodes accept; 1 some node rejects or an audit
finds a certificate/property mismatch; 2 usage, input or unexpected error;
3 prover error (NotSatisfiable, NoPerfectHash, BitmapTooLarge).
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

_PROVER_ERRORS = (NotSatisfiable, NoPerfectHash, BitmapTooLarge)


def _load_target(name_or_path: str):
    if name_or_path in BUILTIN_TARGETS:
        return BUILTIN_TARGETS[name_or_path]
    with open(name_or_path, encoding="utf-8") as handle:
        graph, _ = parse_graph(handle.read())
    return graph


def _load_graph(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _policy(args, default=None) -> IdRangePolicy:
    if args.id_range is not None:
        return IdRangePolicy.parse(args.id_range)
    if default is not None:
        return default
    raise CertificationError("an --id-range policy is required here")


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


def _cmd_prove(args) -> int:
    scheme = SchemeTag.from_label(args.scheme)
    if (args.csp is None) == (args.graph is None):
        raise CertificationError("exactly one of --graph or --csp is required")
    stats = ProveStats()
    if args.csp is not None:
        with open(args.csp, encoding="utf-8") as handle:
            instance = parse_csp(handle.read())
        if scheme is not SchemeTag.HASH:
            raise CertificationError("CSP instances certify under the hash scheme only")
        params = CspParams(
            domain_size=instance.domain_size,
            id_policy=_policy(args, IdRangePolicy.fixed(instance.ids.id_range)),
            range_multiplier=Fraction(args.multiplier),
        )
        cert = prove_csp(instance, params, stats)
    else:
        graph, ids = _load_graph(args.graph)
        params = SchemeParams(
            target=_load_target(args.target),
            id_policy=_policy(args, IdRangePolicy.fixed(ids.id_range)),
            range_multiplier=Fraction(args.multiplier),
        )
        cert = prove_certificate(graph, ids, scheme, params, stats)
    with open(args.out, "wb") as handle:
        handle.write(cert.to_bytes())
    print(f"scheme={scheme.label} payload_bits={cert.payload.length} probes={stats.probes}")
    return 0


def _cmd_verify(args) -> int:
    if (args.csp is None) == (args.graph is None):
        raise CertificationError("exactly one of --graph or --csp is required")
    with open(args.cert, "rb") as handle:
        blob = handle.read()
    try:
        cert = Certificate.from_bytes(blob)
    except MalformedCertificate:
        # unusable tag byte: no node can accept such a certificate
        cert = None
    if cert is None:
        if args.csp is not None:
            with open(args.csp, encoding="utf-8") as handle:
                all_ids = parse_csp(handle.read()).ids.ids
        else:
            _, ids = _load_graph(args.graph)
            all_ids = ids.ids
        for identifier in all_ids:
            print(f"id={identifier} reject")
        print("rejecting:", " ".join(str(i) for i in sorted(all_ids)))
        return 1
    if args.csp is not None:
        with open(args.csp, encoding="utf-8") as handle:
            instance = parse_csp(handle.read())
        params = CspParams(
            domain_size=instance.domain_size,
            id_policy=_policy(args, IdRangePolicy.fixed(instance.ids.id_range)),
            range_multiplier=Fraction(args.multiplier),
        )
        decisions = [
            (instance.ids.id_of(v), verify_csp_variable(csp_view(instance, v, cert.payload), params))
            for v in range(instance.variable_count)
        ]
    else:
        graph, ids = _load_graph(args.graph)
        params = SchemeParams(
            target=_load_target(args.target),
            id_policy=_policy(args, IdRangePolicy.fixed(ids.id_range)),
            range_multiplier=Fraction(args.multiplier),
        )
        result = run_all_nodes(graph, ids, cert, params)
        decisions = [
            (ids.id_of(v), result.decisions[v]) for v in range(graph.vertex_count)
        ]
    for identifier, accepted in decisions:
        print(f"id={identifier} {'accept' if accepted else 'reject'}")
    rejecting = sorted(identifier for identifier, ok in decisions if not ok)
    if rejecting:
        print("rejecting:", " ".join(str(i) for i in rejecting))
        return 1
    return 0


def _cmd_audit(args) -> int:
    graph, ids = _load_graph(args.graph)
    params = SchemeParams(
        target=_load_target(args.target),
        id_policy=_policy(args, IdRangePolicy.fixed(ids.id_range)),
    )
    report = audit_soundness(
        graph,
        ids,
        SchemeTag.from_label(args.scheme),
        params,
        AuditBounds(max_claimed_n=args.max_n, max_space=args.max_space),
    )
    if isinstance(report.witness, Certificate):
        witness = report.witness.to_bytes().hex()
    elif report.witness is None:
        witness = "-"
    else:
        witness = str(report.witness)
    print(
        f"property={str(report.property_holds).lower()} "
        f"accepted={str(report.certificate_accepted_exists).lower()} "
        f"tried={report.certificates_tried} witness={witness}"
    )
    return 0 if report.property_holds == report.certificate_accepted_exists else 1


def _cmd_bench(args) -> int:
    if args.row:
        specs = []
        for row in args.row:
            fields = dict(part.split("=", 1) for part in row.split(","))
            specs.append(
                BenchSpec(
                    n=int(fields["n"]),
                    target=_load_target(fields.get("target", "K2")),
                    policy=IdRangePolicy.parse(fields.get("policy", "poly:4")),
                    density=float(fields.get("density", 0.6)),
                )
            )
    else:
        specs = default_bench_specs()
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

    gen = sub.add_parser("gen", help="generate a target-colorable graph or CSP file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--target", default="K2", help="K2|K3|C5 or a graph file")
    gen.add_argument("--density", type=float, default=0.6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--id-range", dest="id_range", default=None)
    gen.add_argument("--csp", action="store_true", help="emit the CSP translation")
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=_cmd_gen)

    prove = sub.add_parser("prove", help="write a certificate file")
    prove.add_argument("--scheme", choices=["hash", "idlist", "bitmap"], required=True)
    prove.add_argument("--graph")
    prove.add_argument("--csp")
    prove.add_argument("--target", default="K2")
    prove.add_argument("--id-range", dest="id_range", default=None)
    prove.add_argument("--lambda", dest="multiplier", default="1")
    prove.add_argument("--out", required=True)
    prove.set_defaults(func=_cmd_prove)

    verify = sub.add_parser("verify", help="run every node's verifier")
    verify.add_argument("--graph")
    verify.add_argument("--csp")
    verify.add_argument("--cert", required=True)
    verify.add_argument("--target", default="K2")
    verify.add_argument("--id-range", dest="id_range", default=None)
    verify.add_argument("--lambda", dest="multiplier", default="1")
    verify.set_defaults(func=_cmd_verify)

    audit = sub.add_parser("audit", help="exhaustive certificate-space audit")
    audit.add_argument("--graph", required=True)
    audit.add_argument("--target", default="K2")
    audit.add_argument("--scheme", choices=["hash", "idlist", "bitmap"], default="hash")
    audit.add_argument("--id-range", dest="id_range", default=None)
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
