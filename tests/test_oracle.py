import itertools
import random

import pytest

from globalcert import (
    AuditBounds,
    Certificate,
    CspParams,
    Graph,
    IdAssignment,
    IdRangePolicy,
    SchemeParams,
    SchemeTag,
    TooLarge,
    audit_csp_soundness,
    audit_soundness,
    clique,
    cycle,
    eval_hash,
    exists_homomorphism,
    find_homomorphism,
    graph_to_csp,
    is_bipartite,
    local_view,
    random_h_colorable_graph,
    random_id_assignment,
    run_all_nodes,
    verify_certificate,
)
from globalcert.schemes import decode_hash_payload

from labeled_graphs import all_labeled_graphs

K2 = clique(2)
K3 = clique(3)


class TestHomomorphism:
    def test_even_cycle_bipartite(self):
        assert exists_homomorphism(cycle(4), K2)

    def test_triangle_not_bipartite(self):
        assert not exists_homomorphism(K3, K2)

    def test_five_cycle_three_colorable(self):
        assert exists_homomorphism(cycle(5), K3)
        assert not exists_homomorphism(cycle(5), K2)

    def test_lexicographically_first(self):
        assert find_homomorphism(cycle(4), K2) == (0, 1, 0, 1)
        assert find_homomorphism(cycle(5), K3) == (0, 1, 0, 1, 2)
        assert find_homomorphism(K3, K2) is None

    def test_budget_guard(self):
        # K4 into a 3-clique fails only after traversing the whole tree
        with pytest.raises(TooLarge):
            find_homomorphism(clique(12), clique(11), budget=1000)


class TestBipartite:
    def test_edgeless(self):
        assert is_bipartite(Graph.of(4))

    def test_triangle(self):
        assert not is_bipartite(K3)

    def test_generator_outputs(self):
        for seed in range(10):
            g = random_h_colorable_graph(64, K2, 0.3, seed)
            assert is_bipartite(g)

    def test_equivalence_with_homomorphism_oracle(self):
        rng = random.Random(123)
        for _ in range(500):
            n = rng.randrange(1, 7)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph.of(n, edges)
            assert is_bipartite(g) == exists_homomorphism(g, K2)


def fixed8_params():
    return SchemeParams(target=K2, id_policy=IdRangePolicy.fixed(8))


class TestAudit:
    def test_triangle_rejects_every_certificate(self):
        ids = IdAssignment((0, 1, 2), 8)
        report = audit_soundness(K3, ids, SchemeTag.HASH, fixed8_params())
        assert not report.property_holds
        assert not report.certificate_accepted_exists
        # 9*2 + 45*4 + 181*8 + 656*16 decodable payloads at claims 1..4
        assert report.certificates_tried == 12142
        assert isinstance(report.witness, int)

    def test_single_edge_accepts(self):
        g = Graph.of(2, [(0, 1)])
        ids = IdAssignment((5, 3), 8)
        report = audit_soundness(g, ids, SchemeTag.HASH, fixed8_params())
        assert report.property_holds and report.certificate_accepted_exists
        assert isinstance(report.witness, Certificate)
        assert run_all_nodes(g, ids, report.witness, fixed8_params()).all_accept

    def test_four_cycle_accepts(self):
        ids = IdAssignment((6, 1, 4, 2), 8)
        report = audit_soundness(cycle(4), ids, SchemeTag.HASH, fixed8_params())
        assert report.property_holds and report.certificate_accepted_exists

    def test_idlist_and_bitmap_spaces(self):
        ids = IdAssignment((0, 1, 2), 8)
        rep_list = audit_soundness(K3, ids, SchemeTag.IDLIST, fixed8_params())
        assert rep_list.certificates_tried == sum(16**n for n in range(1, 5))
        assert not rep_list.certificate_accepted_exists
        rep_map = audit_soundness(K3, ids, SchemeTag.BITMAP, fixed8_params())
        assert rep_map.certificates_tried == 256
        assert not rep_map.certificate_accepted_exists

    def test_witness_is_canonically_first(self):
        # an edgeless graph accepts the very first certificate of the space
        g = Graph.of(2)
        ids = IdAssignment((5, 3), 8)
        report = audit_soundness(g, ids, SchemeTag.HASH, fixed8_params())
        assert report.certificates_tried == 1
        decoded = decode_hash_payload(report.witness.payload, fixed8_params())
        assert decoded.claimed_n == 1 and decoded.hash_index == 0

    def test_space_bound(self):
        ids = IdAssignment((0, 1, 2), 8)
        with pytest.raises(TooLarge):
            audit_soundness(
                K3, ids, SchemeTag.HASH, fixed8_params(), AuditBounds(max_space=100)
            )
        with pytest.raises(TooLarge):
            audit_soundness(
                K3, ids, SchemeTag.IDLIST, fixed8_params(), AuditBounds(max_space=100)
            )
        with pytest.raises(TooLarge):
            audit_soundness(
                K3, ids, SchemeTag.BITMAP, fixed8_params(), AuditBounds(max_space=100)
            )

    def test_accepted_hash_witness_induces_homomorphism(self):
        rng = random.Random(3)
        params = fixed8_params()
        for _ in range(20):
            n = rng.randrange(1, 5)
            g = Graph.of(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.5
                ],
            )
            ids = random_id_assignment(n, 8, rng.randrange(10**6))
            report = audit_soundness(g, ids, SchemeTag.HASH, params)
            assert report.certificate_accepted_exists == report.property_holds
            if report.certificate_accepted_exists:
                decoded = decode_hash_payload(report.witness.payload, params)
                k = len(decoded.colors)
                induced = [
                    decoded.colors[eval_hash(decoded.hash_index, ids.id_of(v), k)]
                    for v in range(n)
                ]
                assert all(induced[u] != induced[v] for u, v in g.edges)

    def test_equivalence_sample_across_schemes(self):
        rng = random.Random(14)
        graphs = list(all_labeled_graphs(4))
        params = fixed8_params()
        for graph in rng.sample(graphs, 8):
            ids = random_id_assignment(4, 8, rng.randrange(10**6))
            truth = exists_homomorphism(graph, K2)
            for scheme in (SchemeTag.HASH, SchemeTag.IDLIST, SchemeTag.BITMAP):
                report = audit_soundness(graph, ids, scheme, params)
                assert report.certificate_accepted_exists == truth

    def test_audit_agrees_with_public_verifiers_on_witness(self):
        ids = IdAssignment((2, 7, 5, 0), 8)
        params = fixed8_params()
        for scheme in (SchemeTag.HASH, SchemeTag.IDLIST, SchemeTag.BITMAP):
            report = audit_soundness(cycle(4), ids, scheme, params)
            assert report.certificate_accepted_exists
            cert = report.witness
            assert all(
                verify_certificate(local_view(cycle(4), ids, v, cert.payload), scheme, params)
                for v in range(4)
            )


class TestAuditCoversRawPayloadSpace:
    def test_decoded_enumeration_matches_raw_bit_strings(self):
        # every raw bit string up to length 12 through the public verifiers
        # must reach the same existence verdict as the decoded-space audit
        from globalcert import Bits

        cases = [
            (Graph.of(2, [(0, 1)]), IdAssignment((0, 1), 2), 2),
            (Graph.of(2), IdAssignment((1, 0), 2), 2),
            (K3, IdAssignment((0, 1, 2), 4), 4),  # nothing accepted: exhaustive
        ]
        for graph, ids, id_range in cases:
            params = SchemeParams(target=K2, id_policy=IdRangePolicy.fixed(id_range))
            bounds = AuditBounds(max_claimed_n=2)
            for scheme in (SchemeTag.HASH, SchemeTag.IDLIST, SchemeTag.BITMAP):
                report = audit_soundness(graph, ids, scheme, params, bounds)
                brute = any(
                    all(
                        verify_certificate(
                            local_view(graph, ids, v, bits), scheme, params
                        )
                        for v in range(graph.vertex_count)
                    )
                    for length in range(13)
                    for value in range(1 << length)
                    for bits in [
                        Bits.from01(format(value, f"0{length}b") if length else "")
                    ]
                )
                assert brute == report.certificate_accepted_exists


class TestCspAudit:
    def test_matches_graph_audit(self):
        params = fixed8_params()
        cparams = CspParams(domain_size=2, id_policy=IdRangePolicy.fixed(8))
        rng = random.Random(50)
        for graph in rng.sample(list(all_labeled_graphs(4)), 6):
            ids = random_id_assignment(4, 8, rng.randrange(10**6))
            inst = graph_to_csp(graph, ids, K2)
            gr = audit_soundness(graph, ids, SchemeTag.HASH, params)
            cr = audit_csp_soundness(inst, cparams)
            assert gr.property_holds == cr.property_holds
            assert gr.certificate_accepted_exists == cr.certificate_accepted_exists
            assert gr.certificates_tried == cr.certificates_tried
            assert gr.witness == cr.witness

    def test_unary_and_ternary_constraints_match_brute_force(self):
        # x0 = 1 and (x0, x1, x2) in {(1, 0, 0), (0, 1, 1)}: a claim-1
        # certificate gives all three variables one value, so the first
        # witness lies deeper, and the ternary relation is not symmetric
        from globalcert import CspConstraint, CspInstance, csp_view, verify_csp_variable
        from globalcert.hashing import family_size
        from globalcert.schemes import encode_assignment_fields

        policy = IdRangePolicy.fixed(8)
        params = CspParams(domain_size=2, id_policy=policy)
        inst = CspInstance(
            3, 2, IdAssignment((5, 2, 7), 8),
            (
                CspConstraint((0,), frozenset({(1,)})),
                CspConstraint((0, 1, 2), frozenset({(1, 0, 0), (0, 1, 1)})),
            ),
        )
        report = audit_csp_soundness(inst, params, AuditBounds(max_claimed_n=3))

        def canonical_space():
            for claim in range(1, 4):
                for index in range(family_size(claim, 8)):
                    for values in itertools.product(range(2), repeat=claim):
                        yield encode_assignment_fields(claim, index, values, policy, 1, 2)

        tried = 0
        for payload in canonical_space():
            tried += 1
            if all(verify_csp_variable(csp_view(inst, v, payload), params) for v in range(3)):
                break
        else:
            payload = None
        assert payload is not None and tried > 2 * family_size(1, 8)
        assert report.property_holds and report.certificate_accepted_exists
        assert report.certificates_tried == tried
        assert report.witness.payload == payload

    def test_unsatisfiable_instance(self):
        from globalcert import CspConstraint, CspInstance

        inst = CspInstance(
            2,
            2,
            IdAssignment((1, 2), 8),
            (CspConstraint((0, 1), frozenset()),),
        )
        report = audit_csp_soundness(
            inst, CspParams(domain_size=2, id_policy=IdRangePolicy.fixed(8))
        )
        assert not report.property_holds
        assert not report.certificate_accepted_exists
        assert report.certificates_tried == 12142
