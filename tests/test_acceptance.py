"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Covers completeness sweeps, exhaustive certificate-space soundness, exact
size tables, identifier-range scaling, hash-family properties, oracle
cross-checks, the CSP scheme, and adversarial fuzzing.
"""

import itertools
import random
import time

from globalcert import (
    Bits,
    Certificate,
    CspConstraint,
    CspInstance,
    CspParams,
    IdAssignment,
    IdRangePolicy,
    SchemeParams,
    SchemeTag,
    audit_csp_soundness,
    audit_soundness,
    clique,
    csp_view,
    cycle,
    eval_hash,
    exists_homomorphism,
    family_size,
    graph_to_csp,
    local_view,
    perfect_hash_search,
    prove_and_run,
    prove_csp,
    random_h_colorable_graph,
    random_id_assignment,
    run_all_nodes,
    solve_csp,
    verify_csp_variable,
    verify_hash,
)
from globalcert.harness import BenchSpec, bench_sizes
from globalcert.schemes import HashCertificate, encode_certificate, scan_probes

from bipartite import is_bipartite
from labeled_graphs import all_labeled_graphs
from test_hashing import np_eval_hash, GOLDEN

K2 = clique(2)
K3 = clique(3)
C5 = cycle(5)


def report(number, label, ok, detail=""):
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)


def test_criterion_1_completeness_sweep():
    targets = [K2, K3, C5]
    sizes = list(range(4, 13))
    policy = IdRangePolicy.poly(4)
    started = time.perf_counter()
    successes = 0
    worst_probes = 0
    for i in range(200):
        target = targets[i % 3]
        n = sizes[i % len(sizes)]
        graph = random_h_colorable_graph(n, target, 0.6, seed=i)
        ids = random_id_assignment(n, policy.evaluate(n), seed=10_000 + i)
        params = SchemeParams(target=target, id_policy=policy)
        cert, result = prove_and_run(graph, ids, SchemeTag.HASH, params)
        if result.all_accept:
            successes += 1
        worst_probes = max(worst_probes, scan_probes(cert, params))
    elapsed = time.perf_counter() - started
    ok = successes == 200 and elapsed < 120
    report(1, "completeness sweep", ok,
           f"{successes}/200 accepted, max probes {worst_probes}, {elapsed:.1f}s")
    assert successes == 200
    assert elapsed < 120


def _assignment_seeds(graph_index):
    return [1000 * graph_index + j for j in range(50)]


def test_criterion_2_exhaustive_soundness():
    params = SchemeParams(target=K2, id_policy=IdRangePolicy.fixed(8))
    # family sizes behind the derived space count at claims 1..4
    assert [family_size(k, 8) for k in (1, 2, 3, 4)] == [9, 45, 181, 656]
    hash_space = sum(family_size(k, 8) * 2**k for k in (1, 2, 3, 4))
    assert hash_space == 12142

    started = time.perf_counter()
    graphs = list(all_labeled_graphs(4))
    assert len(graphs) == 64
    mismatches = []
    for gi, graph in enumerate(graphs):
        truth = exists_homomorphism(graph, K2)
        for seed in _assignment_seeds(gi):
            ids = random_id_assignment(4, 8, seed)
            for scheme in (SchemeTag.HASH, SchemeTag.IDLIST, SchemeTag.BITMAP):
                rep = audit_soundness(graph, ids, scheme, params)
                if rep.certificate_accepted_exists != rep.property_holds:
                    mismatches.append((gi, seed, scheme))
                if rep.property_holds != truth:
                    mismatches.append((gi, seed, scheme, "oracle"))
                if not truth and scheme is SchemeTag.HASH:
                    assert rep.certificates_tried == hash_space
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 600
    report(2, "exhaustive soundness", ok,
           f"64x50x3 audits, 0 mismatches expected, got {len(mismatches)}, {elapsed:.1f}s")
    assert mismatches == []
    assert elapsed < 600


def test_criterion_3_size_table_exactness():
    rows = bench_sizes(
        [BenchSpec(12, K2, IdRangePolicy.fixed(20736))], list(SchemeTag), seed=0
    )
    sizes = {row.scheme: row.size_bits for row in rows}
    ok = sizes == {"bitmap": 20736, "idlist": 199, "hash": 44}
    report(3, "size table exactness", ok,
           f"hash={sizes['hash']} idlist={sizes['idlist']} bitmap={sizes['bitmap']}")
    assert sizes["hash"] == 44
    assert sizes["idlist"] == 199
    assert sizes["bitmap"] == 20736


def test_criterion_4_loglog_range_scaling():
    rows64 = bench_sizes(
        [BenchSpec(8, K2, IdRangePolicy.fixed(1 << 64))],
        [SchemeTag.HASH, SchemeTag.IDLIST],
        seed=0,
    )
    rows128 = bench_sizes(
        [BenchSpec(8, K2, IdRangePolicy.fixed(1 << 128))],
        [SchemeTag.HASH, SchemeTag.IDLIST],
        seed=0,
    )
    h64 = next(r.size_bits for r in rows64 if r.scheme == "hash")
    h128 = next(r.size_bits for r in rows128 if r.scheme == "hash")
    l64 = next(r.size_bits for r in rows64 if r.scheme == "idlist")
    l128 = next(r.size_bits for r in rows128 if r.scheme == "idlist")
    ok = (h64, h128) == (36, 37) and l128 - l64 == 512
    report(4, "log log M scaling", ok,
           f"hash {h64}->{h128} (+{h128-h64}), idlist +{l128-l64}")
    assert (h64, h128) == (36, 37)
    assert l128 - l64 == 512


def test_criterion_5_hash_family_properties():
    rng = random.Random(55)
    checked = 0
    for _ in range(1000):
        k = rng.randrange(1, 11)
        ell = rng.randrange(max(k, 2), 1 << 20)
        keys = set()
        while len(keys) < k:
            keys.add(rng.randrange(ell))
        result = perfect_hash_search(keys, k, ell)
        assert result.index < family_size(k, ell)
        assert len({eval_hash(result.index, x, k) for x in keys}) == k
        if k <= 6:
            for j in range(result.index):
                assert len({eval_hash(j, x, k) for x in keys}) < k
        checked += 1

    golden_lines = GOLDEN.read_text().strip().splitlines()
    agree = 0
    for line in golden_lines:
        index, x, k, bucket = (int(f) for f in line.split())
        if eval_hash(index, x, k) == bucket and np_eval_hash(index, x, k) == bucket:
            agree += 1
    ok = checked == 1000 and agree == len(golden_lines)
    report(5, "hash family properties", ok,
           f"{checked}/1000 randomized instances, {agree}/{len(golden_lines)} golden vectors")
    assert checked == 1000
    assert agree == len(golden_lines)


def test_criterion_6_oracle_cross_checks():
    rng = random.Random(66)
    bipartite_checks = 0
    for _ in range(500):
        n = rng.randrange(1, 7)
        from globalcert import Graph

        g = Graph.of(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        assert is_bipartite(g) == exists_homomorphism(g, K2)
        bipartite_checks += 1

    csp_checks = 0
    for n in range(1, 5):
        for graph in all_labeled_graphs(n):
            ids = IdAssignment(tuple(range(n)), 8)
            for target in (K2, K3):
                inst = graph_to_csp(graph, ids, target)
                assert (solve_csp(inst) is not None) == exists_homomorphism(graph, target)
                csp_checks += 1
    ok = bipartite_checks == 500
    report(6, "oracle cross-checks", ok,
           f"{bipartite_checks} bipartite checks, {csp_checks} CSP-vs-homomorphism checks")
    assert bipartite_checks == 500


def _graph_node_decisions(graph, vertex_ids, buckets, colors, allowed):
    """Test-local re-derivation of each node's decision for a decoded
    certificate: every incident pair through the member must be allowed."""
    decisions = []
    for v in range(graph.vertex_count):
        mine = colors[buckets[v]]
        decisions.append(
            all(
                (mine, colors[buckets[u]]) in allowed for u in graph.neighbors(v)
            )
        )
    return decisions


def _csp_variable_decisions(inst, buckets, values):
    decisions = []
    for v in range(inst.variable_count):
        ok = True
        for ct in inst.incident(v):
            if tuple(values[buckets[w]] for w in ct.scope) not in ct.relation:
                ok = False
                break
        decisions.append(ok)
    return decisions


def test_criterion_7_csp_scheme_exhaustive():
    policy = IdRangePolicy.fixed(8)
    gparams = SchemeParams(target=K2, id_policy=policy)
    cparams = CspParams(domain_size=2, id_policy=policy)
    allowed = frozenset({(0, 1), (1, 0)})
    started = time.perf_counter()
    rng = random.Random(7)
    compared = 0
    api_compared = 0
    for gi, graph in enumerate(all_labeled_graphs(4)):
        ids = random_id_assignment(4, 8, _assignment_seeds(gi)[0])
        inst = graph_to_csp(graph, ids, K2)
        graph_rep = audit_soundness(graph, ids, SchemeTag.HASH, gparams)
        csp_rep = audit_csp_soundness(inst, cparams)
        assert csp_rep.property_holds == graph_rep.property_holds
        assert csp_rep.certificate_accepted_exists == graph_rep.certificate_accepted_exists
        assert csp_rep.certificates_tried == graph_rep.certificates_tried

        # node-for-node over the whole space, decoded-level on both sides
        for claim in range(1, 5):
            size = family_size(claim, 8)
            entries = list(itertools.product(range(2), repeat=claim))
            for index in range(size):
                buckets = [eval_hash(index, ids.id_of(v), claim) for v in range(4)]
                for values in entries:
                    gd = _graph_node_decisions(graph, ids.ids, buckets, values, allowed)
                    cd = _csp_variable_decisions(inst, buckets, values)
                    assert gd == cd
                    compared += 1
                # public-API spot check, one entry vector per index
                values = entries[rng.randrange(len(entries))]
                cert = encode_certificate(HashCertificate(claim, index, values), gparams)
                for v in range(4):
                    a = verify_hash(local_view(graph, ids, v, cert.payload), gparams)
                    b = verify_csp_variable(csp_view(inst, v, cert.payload), cparams)
                    assert a == b
                    api_compared += 1

    # the ternary parity instance behaves as documented
    relation = frozenset(
        t for t in itertools.product(range(2), repeat=3) if t[0] ^ t[1] ^ t[2] == 1
    )
    parity = CspInstance(3, 2, IdAssignment((0, 1, 2), 8), (CspConstraint((0, 1, 2), relation),))
    honest = prove_csp(parity, cparams)
    assert all(
        verify_csp_variable(csp_view(parity, v, honest.payload), cparams) for v in range(3)
    )
    from globalcert.schemes import decode_assignment_fields, encode_assignment_fields

    claim, index, _ = decode_assignment_fields(honest.payload, cparams)
    zeros = encode_assignment_fields(claim, index, (0,) * claim, cparams)
    assert all(
        not verify_csp_variable(csp_view(parity, v, zeros), cparams) for v in range(3)
    )
    elapsed = time.perf_counter() - started
    ok = compared == 64 * 12142
    report(7, "CSP scheme", ok,
           f"{compared} certificates compared node-for-node, "
           f"{api_compared} public-API comparisons, {elapsed:.1f}s")
    assert compared == 64 * 12142


def test_criterion_8_adversarial_fuzz():
    rng = random.Random(88)
    tri = K3
    ids = IdAssignment((0, 1, 2), 8)
    params = SchemeParams(target=K2, id_policy=IdRangePolicy.fixed(8))
    all_accepts = 0
    evaluated = 0
    for scheme in (SchemeTag.HASH, SchemeTag.IDLIST, SchemeTag.BITMAP):
        for _ in range(10_000):
            length = rng.randrange(0, 160)
            payload = Bits.from01("".join(rng.choice("01") for _ in range(length)))
            result = run_all_nodes(tri, ids, Certificate(scheme, payload), params)
            evaluated += 1
            if result.all_accept:
                all_accepts += 1
    ok = all_accepts == 0 and evaluated == 30_000
    report(8, "adversarial fuzz", ok,
           f"{evaluated} payloads, {all_accepts} spurious all-accepts")
    assert all_accepts == 0
    assert evaluated == 30_000
