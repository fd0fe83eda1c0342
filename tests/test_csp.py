import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from globalcert import (
    BUILTIN_TARGETS,
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
    find_homomorphism,
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
from globalcert.csp import edge_relation, solve_scopes
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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_incident_equals_a_scan_of_the_constraints(self, data):
        n = data.draw(st.integers(1, 12))
        scope = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 3), unique=True)
        constraints = tuple(
            CspConstraint(tuple(s), frozenset({(0,) * len(s)}) if data.draw(st.booleans()) else frozenset())
            for s in data.draw(st.lists(scope, max_size=20))
        )
        inst = CspInstance(n, 2, IdAssignment(tuple(range(n)), n), constraints)
        for var in range(-1, n + 1):
            assert inst.incident(var) == tuple(ct for ct in constraints if var in ct.scope)


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

    def test_long_chain_solves_without_recursion(self):
        n = 1500
        step = frozenset((a, (a + 1) % 3) for a in range(3))
        chain = tuple(CspConstraint((v, v + 1), step) for v in range(n - 1))
        inst = CspInstance(n, 3, IdAssignment(tuple(range(n)), n), chain)
        assert solve_csp(inst) == tuple(v % 3 for v in range(n))

    def test_agrees_with_homomorphism_oracle(self):
        for graph in all_labeled_graphs(4):
            for target in (K2, K3):
                inst = graph_to_csp(graph, ids8(4), target)
                assert (solve_csp(inst) is not None) == exists_homomorphism(graph, target)


C5 = cycle(5)


class TestSharedSearch:
    """find_homomorphism and solve_csp run one search: the same result and
    the same budget threshold (visited nodes) as each solver had on its own."""

    @pytest.mark.parametrize(
        "graph, target, budget, result",
        [
            (K3, K2, 10, None),
            (cycle(5), K2, 18, None),
            (clique(4), K3, 48, None),
            (cycle(5), K3, 9, (0, 1, 0, 1, 2)),
            (clique(4), C5, 80, None),
            (cycle(7), C5, 38, (0, 1, 0, 1, 2, 3, 4)),
        ],
        ids=["K3-K2", "C5-K2", "K4-K3", "C5-K3", "K4-C5", "C7-C5"],
    )
    def test_result_and_budget_threshold(self, graph, target, budget, result):
        ids = IdAssignment(tuple(range(graph.vertex_count)), graph.vertex_count)
        solvers = (
            lambda b: find_homomorphism(graph, target, budget=b),
            lambda b: solve_csp(graph_to_csp(graph, ids, target), budget=b),
        )
        for solve in solvers:
            with pytest.raises(TooLarge):
                solve(budget - 1)
            assert solve(budget) == result

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_first_coloring_in_product_order(self, data):
        from globalcert import Graph

        n = data.draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        target = BUILTIN_TARGETS[data.draw(st.sampled_from(["K2", "K3", "C5"]))]
        first = next(
            (
                colors
                for colors in itertools.product(range(target.vertex_count), repeat=n)
                if all(target.has_edge(colors[u], colors[v]) for u, v in edges)
            ),
            None,
        )
        graph = Graph.of(n, edges)
        assert find_homomorphism(graph, target) == first
        ids = IdAssignment(tuple(range(n)), n)
        assert solve_csp(graph_to_csp(graph, ids, target)) == first


def plain_backtrack(variable_count, domain_size, consistent):
    """The value-by-value search that `csp.backtrack` counts visits against:
    the lexicographically first assignment such that `consistent(var,
    values)` holds after each `values[var]` is set, or None, and the number
    of values it tried."""
    values = [-1] * variable_count
    visited = 0
    var = 0
    while 0 <= var < variable_count:
        value = values[var] + 1
        if value == domain_size:
            values[var] = -1
            var -= 1
            continue
        visited += 1
        values[var] = value
        if consistent(var, values):
            var += 1
    return (None if var < 0 else tuple(values)), visited


def plain_homomorphism(graph, target):
    allowed = edge_relation(target)
    back_neighbors = [[u for u in graph.neighbors(v) if u < v] for v in range(graph.vertex_count)]

    def consistent(v, values):
        return all((values[v], values[u]) in allowed for u in back_neighbors[v])

    return plain_backtrack(graph.vertex_count, target.vertex_count, consistent)


def plain_scopes(variable_count, domain_size, scopes, relations):
    by_last_var = [[] for _ in range(variable_count)]
    for scope, relation in zip(scopes, relations):
        by_last_var[max(scope)].append((scope, relation))

    def consistent(var, values):
        return all(tuple(values[w] for w in scope) in relation for scope, relation in by_last_var[var])

    return plain_backtrack(variable_count, domain_size, consistent)


def assert_same_search(solve, plain):
    """`solve(budget)` gives up one visit short of the plain search's count
    and returns its result at that count."""
    result, visited = plain
    with pytest.raises(TooLarge):
        solve(visited - 1)
    assert solve(visited) == result


@st.composite
def scoped_instances(draw, max_vars, domain_sizes, max_rows):
    """(variable_count, domain_size, scopes, relations) with scopes of arity
    1 to 3 that may name a variable more than once."""
    n = draw(st.integers(1, max_vars))
    d = draw(domain_sizes)
    scopes, relations = [], []
    for arity in draw(st.lists(st.integers(1, 3), max_size=8)):
        scopes.append(tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity))))
        row = st.tuples(*[st.integers(0, d - 1)] * arity)
        relations.append(frozenset(draw(st.lists(row, max_size=max_rows))))
    return n, d, scopes, relations


class TestMaskSearch:
    """The bitmask search returns the plain search's result and raises
    TooLarge one visit short of the plain search's visit count."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_graph_solver(self, data):
        from globalcert import Graph

        def edges(pairs):
            return data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []

        n = data.draw(st.integers(1, 9))
        graph = Graph.of(n, edges([(u, v) for u in range(n) for v in range(u + 1, n)]))
        kind = data.draw(st.sampled_from(["K2", "K3", "C5", "random"]))
        if kind == "random":
            k = data.draw(st.integers(2, 6))
            isolated = data.draw(st.integers(0, k - 1))
            target = Graph.of(k, edges([(a, b) for a in range(k) for b in range(a + 1, k) if isolated not in (a, b)]))
        else:
            target = BUILTIN_TARGETS[kind]
        assert_same_search(lambda b: find_homomorphism(graph, target, budget=b), plain_homomorphism(graph, target))

    @settings(max_examples=200, deadline=None)
    @given(scoped_instances(5, st.integers(1, 4), 12))
    def test_scopes(self, instance):
        assert_same_search(lambda b: solve_scopes(*instance, b), plain_scopes(*instance))

    @settings(max_examples=60, deadline=None)
    @given(scoped_instances(3, st.just(70), 40))
    def test_scopes_past_64_values(self, instance):
        assert_same_search(lambda b: solve_scopes(*instance, b), plain_scopes(*instance))


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

                payload = encode_assignment_fields(claimed, index, (0,) * claimed, params)
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

        claimed, index, _ = decode_assignment_fields(honest.payload, params)
        zeros = encode_assignment_fields(claimed, index, (0,) * claimed, params)
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

    def test_id_lines_may_follow_constraints(self):
        # header first, then records in any order, as in the graph format
        text = "csp 2 2 8\nct 2 0 1 2\n0 1\n1 0\nid 1 3\n# late\nid 0 5\n"
        inst = parse_csp(text)
        assert inst.ids.ids == (5, 3)
        assert serialize_csp(inst) == "csp 2 2 8\nid 0 5\nid 1 3\nct 2 0 1 2\n0 1\n1 0\n"
