import itertools
import random

import pytest

from globalcert import (
    CspConstraint,
    CspInstance,
    CspParams,
    IdAssignment,
    IdRangePolicy,
    InvalidParams,
    NotSatisfiable,
    SchemeParams,
    TooLarge,
    clique,
    csp_view,
    cycle,
    exists_homomorphism,
    family_size,
    graph_to_csp,
    local_view,
    parse_csp,
    prove_csp,
    serialize_csp,
    solve_csp,
    verify_csp_variable,
    verify_hash,
)
from globalcert.bits import gamma_len
from globalcert.schemes import HashCertificate, encode_certificate

from labeled_graphs import all_labeled_graphs

K2 = clique(2)
K3 = clique(3)


def ids8(n):
    return IdAssignment(tuple(range(n)), 8)


class TestTranslation:
    def test_edge_to_k2(self):
        inst = graph_to_csp(clique(2), ids8(2), K2)
        assert inst.variable_count == 2
        assert inst.domain_size == 2
        assert len(inst.constraints) == 1
        assert inst.constraints[0].scope == (0, 1)
        assert inst.constraints[0].relation == frozenset({(0, 1), (1, 0)})

    def test_triangle_to_k3_is_proper_coloring(self):
        inst = graph_to_csp(clique(3), ids8(3), K3)
        want = frozenset((a, b) for a in range(3) for b in range(3) if a != b)
        assert all(ct.relation == want for ct in inst.constraints)
        solution = solve_csp(inst)
        assert solution is not None
        assert all(solution[u] != solution[v] for u, v in clique(3).edges)

    def test_edgeless_trivially_satisfiable(self):
        from globalcert import Graph

        inst = graph_to_csp(Graph.of(3), ids8(3), K3)
        assert inst.constraints == ()
        assert solve_csp(inst) == (0, 0, 0)

    def test_neighborhood(self):
        inst = graph_to_csp(cycle(4), ids8(4), K2)
        assert inst.neighborhood(0) == frozenset({1, 3})


class TestSolver:
    def test_even_cycle(self):
        assert solve_csp(graph_to_csp(cycle(4), ids8(4), K2)) == (0, 1, 0, 1)

    def test_no_constraints_all_zero(self):
        inst = CspInstance(3, 4, ids8(3), ())
        assert solve_csp(inst) == (0, 0, 0)

    def test_odd_cycle_unsatisfiable(self):
        assert solve_csp(graph_to_csp(clique(3), ids8(3), K2)) is None

    def test_budget(self):
        # an unsatisfiable instance over a big assignment space must give up
        empty = CspConstraint((0,), frozenset())
        inst = CspInstance(12, 10, IdAssignment(tuple(range(12)), 16), (empty,))
        assert solve_csp(inst) is None  # pruned immediately at variable 0
        hard = CspConstraint(tuple(range(12)), frozenset())
        inst2 = CspInstance(12, 10, IdAssignment(tuple(range(12)), 16), (hard,))
        with pytest.raises(TooLarge):
            solve_csp(inst2, budget=10**5)

    def test_agrees_with_homomorphism_oracle(self):
        for graph in all_labeled_graphs(4):
            for target in (K2, K3):
                inst = graph_to_csp(graph, ids8(4), target)
                assert (solve_csp(inst) is not None) == exists_homomorphism(graph, target)


class TestValidation:
    def test_duplicate_scope_variable(self):
        with pytest.raises(InvalidParams):
            CspConstraint((0, 0), frozenset({(0, 0)}))

    def test_arity_mismatch(self):
        with pytest.raises(InvalidParams):
            CspConstraint((0, 1), frozenset({(0,)}))

    def test_instance_bounds(self):
        with pytest.raises(InvalidParams):
            CspInstance(1, 2, ids8(1), (CspConstraint((3,), frozenset({(0,)})),))
        with pytest.raises(InvalidParams):
            CspInstance(1, 2, ids8(1), (CspConstraint((0,), frozenset({(5,)})),))


class TestCertification:
    def test_matches_graph_pipeline_node_for_node(self):
        policy = IdRangePolicy.fixed(8)
        gparams = SchemeParams(target=K2, id_policy=policy)
        cparams = CspParams(domain_size=2, id_policy=policy)
        rng = random.Random(6)
        from globalcert import random_h_colorable_graph, random_id_assignment

        for seed in range(8):
            graph = random_h_colorable_graph(4, K2, 0.7, seed)
            ids = random_id_assignment(4, 8, seed)
            inst = graph_to_csp(graph, ids, K2)
            honest = prove_csp(inst, cparams)
            assert all(
                verify_csp_variable(csp_view(inst, v, honest.payload), cparams)
                for v in range(4)
            )
            # adversarial certificates judged identically by both pipelines
            for _ in range(40):
                claimed = rng.randrange(1, 5)
                index = rng.randrange(family_size(claimed, 8))
                values = tuple(rng.randrange(2) for _ in range(claimed))
                cert = encode_certificate(HashCertificate(claimed, index, values), gparams)
                for v in range(4):
                    graph_decision = verify_hash(
                        local_view(graph, ids, v, cert.payload), gparams
                    )
                    csp_decision = verify_csp_variable(
                        csp_view(inst, v, cert.payload), cparams
                    )
                    assert graph_decision == csp_decision

    def test_unsatisfiable_unary_constraint(self):
        inst = CspInstance(
            1, 1, IdAssignment((0,), 1), (CspConstraint((0,), frozenset()),)
        )
        params = CspParams(domain_size=1, id_policy=IdRangePolicy.fixed(1))
        with pytest.raises(NotSatisfiable):
            prove_csp(inst, params)
        # the whole certificate space at claims 1..3: every one rejected
        gparams_like = params
        for claimed in (1,):
            for index in range(family_size(claimed, 1)):
                from globalcert.schemes import encode_assignment_fields

                payload = encode_assignment_fields(
                    claimed, index, (0,) * claimed, params.id_policy,
                    params.range_multiplier, 1,
                )
                assert not verify_csp_variable(csp_view(inst, 0, payload), params)

    def test_ternary_parity(self):
        relation = frozenset(
            t for t in itertools.product(range(2), repeat=3) if t[0] ^ t[1] ^ t[2] == 1
        )
        inst = CspInstance(
            3, 2, ids8(3), (CspConstraint((0, 1, 2), relation),)
        )
        params = CspParams(domain_size=2, id_policy=IdRangePolicy.fixed(8))
        honest = prove_csp(inst, params)
        assert all(
            verify_csp_variable(csp_view(inst, v, honest.payload), params)
            for v in range(3)
        )
        from globalcert.schemes import decode_assignment_fields, encode_assignment_fields

        claimed, index, _ = decode_assignment_fields(
            honest.payload, params.id_policy, params.range_multiplier, 2
        )
        zeros = encode_assignment_fields(
            claimed, index, (0,) * claimed, params.id_policy, params.range_multiplier, 2
        )
        assert all(
            not verify_csp_variable(csp_view(inst, v, zeros), params)
            for v in range(3)
        )

    def test_domain_mismatch_rejected(self):
        inst = graph_to_csp(cycle(4), ids8(4), K2)
        with pytest.raises(InvalidParams):
            prove_csp(inst, CspParams(domain_size=3, id_policy=IdRangePolicy.fixed(8)))

    def test_certificate_size_formula(self):
        policy = IdRangePolicy.fixed(8)
        for target, width in ((K2, 1), (K3, 2)):
            inst = graph_to_csp(cycle(4), ids8(4), target)
            params = CspParams(domain_size=target.vertex_count, id_policy=policy)
            cert = prove_csp(inst, params)
            expected = (
                gamma_len(4)
                + (family_size(4, 8) - 1).bit_length()
                + 4 * width
            )
            assert cert.payload.length == expected


class TestCspFiles:
    def test_round_trip(self):
        inst = graph_to_csp(cycle(4), ids8(4), K3)
        assert parse_csp(serialize_csp(inst)) == inst

    def test_explicit_file(self):
        text = (
            "csp 2 2 8\n"
            "id 0 5\n"
            "id 1 3\n"
            "ct 2 0 1 2\n"
            "0 1\n"
            "1 0\n"
        )
        inst = parse_csp(text)
        assert inst.variable_count == 2
        assert inst.ids.ids == (5, 3)
        assert inst.constraints[0].relation == frozenset({(0, 1), (1, 0)})
        assert serialize_csp(inst) == text

    def test_parse_errors(self):
        from globalcert import ParseError

        with pytest.raises(ParseError):
            parse_csp("")
        with pytest.raises(ParseError):
            parse_csp("csp 1 2\nid 0 0")
        with pytest.raises(ParseError):
            parse_csp("csp 1 2 4\nid 0 0\nct 2 0 1")
        with pytest.raises(ParseError):
            parse_csp("csp 2 2 4\nid 0 0\nid 0 1")
