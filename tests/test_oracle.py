import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import globalcert.hashing as hashing
import globalcert.oracle as oracle

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
    local_view,
    random_h_colorable_graph,
    random_id_assignment,
    run_all_nodes,
    verify_certificate,
)
from globalcert.hashing import family_size, member_blocks
from globalcert.schemes import (
    BitmapCertificate,
    HashCertificate,
    IdListCertificate,
    decode_hash_payload,
    encode_certificate,
    encode_hash_certificate,
)

from bipartite import is_bipartite
from labeled_graphs import all_labeled_graphs, isomorphism_classes

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

    def test_long_path_solves_without_recursion(self):
        n = 1500
        path = Graph.of(n, [(v, v + 1) for v in range(n - 1)])
        assert find_homomorphism(path, K2) == tuple(v % 2 for v in range(n))

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

    def test_idlist_audit_cost_does_not_grow_with_the_largest_identifier(self):
        # claim 1 is counted whole (2^40 ids x 2 colors); claim 2's first
        # accepted list is ((0, 0), (2^29, 1)), of rank 2^29 * 2 + 1
        started = time.perf_counter()
        report = audit_soundness(
            Graph.of(2, [(0, 1)]), IdAssignment((0, 2**29), 2**40), SchemeTag.IDLIST,
            SchemeParams(K2, IdRangePolicy.fixed(2**40)), AuditBounds(2, 10**30),
        )
        assert time.perf_counter() - started < 1.0
        assert report.certificate_accepted_exists
        assert report.certificates_tried == 2**41 + 2**30 + 2

    def test_one_vertex_target_bitmap_space_is_one_empty_payload(self):
        params = SchemeParams(clique(1), IdRangePolicy.fixed(8))
        alone = audit_soundness(Graph.of(1), IdAssignment((6,), 8), SchemeTag.BITMAP, params)
        assert alone.certificate_accepted_exists and alone.certificates_tried == 1
        assert alone.witness.payload.length == 0
        edge = audit_soundness(Graph.of(2, [(0, 1)]), IdAssignment((6, 2), 8), SchemeTag.BITMAP, params)
        assert not edge.property_holds and not edge.certificate_accepted_exists
        assert edge.certificates_tried == 1 and edge.witness == 2

    @pytest.mark.parametrize("scheme", list(SchemeTag), ids=lambda s: s.label)
    def test_claims_end_where_the_policy_refuses(self, scheme):
        # fixed:3 refuses claims above 3, so max_claimed_n 5 sizes claims 1-3
        bounds = AuditBounds(max_claimed_n=5)
        params = SchemeParams(K2, IdRangePolicy.fixed(3))
        report = audit_soundness(K3, IdAssignment((0, 1, 2), 3), scheme, params, bounds)
        assert not report.certificate_accepted_exists
        whole = {
            SchemeTag.HASH: sum(family_size(k, 3) * 2**k for k in (1, 2, 3)),
            SchemeTag.IDLIST: 258,  # (3 ids x 2 colors)^k over k = 1, 2, 3
            SchemeTag.BITMAP: 8,  # one range, 3 entries of 2 colors
        }[scheme]
        assert report.certificates_tried == whole

    def test_bitmap_ranges_share_one_unsolvable_quotient(self, monkeypatch):
        # K4 -> K3 has no coloring; ranges 4, 5 and 6 each hold every
        # identifier, and all three read the same identifier quotient
        solved = []
        solve = oracle.solve_scopes
        monkeypatch.setattr(oracle, "solve_scopes", lambda *args: solved.append(args) or solve(*args))
        params = SchemeParams(K3, IdRangePolicy.poly(1))
        ids = IdAssignment((0, 1, 2, 3), 4)
        report = audit_soundness(clique(4), ids, SchemeTag.BITMAP, params, AuditBounds(max_claimed_n=6))
        assert not report.certificate_accepted_exists
        assert report.certificates_tried == sum(3**m for m in range(1, 7))
        assert len(solved) == 1

    def test_witness_is_canonically_first(self):
        # an edgeless graph accepts the very first certificate of the space
        g = Graph.of(2)
        ids = IdAssignment((5, 3), 8)
        report = audit_soundness(g, ids, SchemeTag.HASH, fixed8_params())
        assert report.certificates_tried == 1
        decoded = decode_hash_payload(report.witness.payload, fixed8_params())
        assert decoded.claimed_n == 1 and decoded.hash_index == 0

    @pytest.mark.parametrize("kind", ["graph", "csp"])
    def test_an_accepted_certificate_one_node_rejects_raises(self, monkeypatch, kind):
        # a space that reports, as accepted, a claim-2 certificate under
        # poly:2 (M = 4): the node with identifier 8 finds no colour and
        # rejects, so the audit raises rather than report it
        graph, ids = Graph.of(3), IdAssignment((0, 1, 8), 9)
        policy = IdRangePolicy.poly(2)
        params = SchemeParams(target=K2, id_policy=policy) if kind == "graph" else CspParams(2, policy)
        found = encode_hash_certificate(HashCertificate(2, 0, (0, 0)), params)
        monkeypatch.setitem(oracle._SPACES, SchemeTag.HASH, lambda *args: (found, 1, None))
        monkeypatch.setattr(oracle, "_hash_space", lambda *args: (found, 1, None))
        with pytest.raises(AssertionError, match=r"audit witness rejected at identifiers \[8\]$"):
            if kind == "graph":
                audit_soundness(graph, ids, SchemeTag.HASH, params)
            else:
                audit_csp_soundness(graph_to_csp(graph, ids, K2), params)

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

    @pytest.mark.parametrize("scheme, over_at", [(SchemeTag.HASH, 7), (SchemeTag.IDLIST, 2), (SchemeTag.BITMAP, 1)])
    def test_space_ends_at_the_first_claim_past_the_bound(self, monkeypatch, scheme, over_at):
        # M = 10^6 for every claim up to 10^6: the space passes 10^7 at
        # `over_at` (hash: sum of family_size(k, 10^6) * 2^k), and no claim
        # after it is sized
        sized = []
        monkeypatch.setattr(oracle, "family_size", lambda k, ell: sized.append(k) or family_size(k, ell))
        params = SchemeParams(K2, IdRangePolicy.fixed(10**6))
        with pytest.raises(TooLarge, match=f"^certificate space exceeds 10000000 by claim {over_at}$"):
            audit_soundness(K3, IdAssignment((1, 4, 7), 9), scheme, params, AuditBounds(max_claimed_n=10**6))
        assert sized == (list(range(1, over_at + 1)) if scheme is SchemeTag.HASH else [])
        if scheme is SchemeTag.HASH:
            spaces = [family_size(k, 10**6) * 2**k for k in range(1, over_at + 1)]
            assert sum(spaces[:-1]) <= 10**7 < sum(spaces)

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


def canonical_space(scheme, params, max_claim):
    """Every decodable certificate of claims 1..max_claim, built through the
    public encoders in the audit's canonical order; a bitmap spans each
    distinct M(claim) once, ascending."""
    values = range(params.target.vertex_count)
    ranges = [(claim, params.id_policy.evaluate(claim)) for claim in range(1, max_claim + 1)]
    if scheme is SchemeTag.BITMAP:
        for id_range in sorted({id_range for _, id_range in ranges}):
            for colors in itertools.product(values, repeat=id_range):
                yield encode_certificate(BitmapCertificate(colors), params)
        return
    for claim, id_range in ranges:
        if scheme is SchemeTag.HASH:
            for index in range(family_size(claim, id_range)):
                for colors in itertools.product(values, repeat=claim):
                    yield encode_certificate(HashCertificate(claim, index, colors), params)
        else:
            records = list(itertools.product(range(id_range), values))
            for rows in itertools.product(records, repeat=claim):
                yield encode_certificate(IdListCertificate(rows), params)


class TestAuditMatchesBruteForce:
    # (graph, target, policy, ids or None to draw them): colorable and not,
    # first witnesses at and past the start of the space, 4-vertex graphs
    # no id list of claim <= 3 can cover, and poly:2 graphs holding the id
    # M(2) = 4, so that a node rejects every claim below 3, the largest
    # identifier sitting exactly at M(2); and the loopless K1, whose bitmap
    # space is the one empty payload
    CASES = [
        (Graph.of(2), K3, IdRangePolicy.fixed(5), None),
        (Graph.of(2, [(0, 1)]), K2, IdRangePolicy.fixed(8), None),
        (Graph.of(3, [(0, 1), (1, 2)]), K2, IdRangePolicy.fixed(8), None),
        (K3, K2, IdRangePolicy.fixed(5), None),
        (K3, K3, IdRangePolicy.fixed(4), None),
        (cycle(4), K2, IdRangePolicy.fixed(8), None),
        (Graph.of(4, [(0, 1), (0, 2), (0, 3)]), K3, IdRangePolicy.fixed(5), None),
        (clique(4), K3, IdRangePolicy.fixed(4), None),
        (Graph.of(3, [(0, 1), (1, 2)]), K2, IdRangePolicy.poly(2), (4, 0, 2)),
        (K3, K2, IdRangePolicy.poly(2), (1, 4, 3)),
        (Graph.of(1), clique(1), IdRangePolicy.fixed(8), None),
        (Graph.of(2, [(0, 1)]), clique(1), IdRangePolicy.fixed(8), None),
    ]

    @pytest.mark.parametrize("scheme", list(SchemeTag), ids=lambda s: s.label)
    def test_tried_and_witness_equal_the_brute_force_scan(self, scheme):
        rng = random.Random(77)
        for graph, target, policy, chosen in self.CASES:
            n = graph.vertex_count
            id_range = policy.evaluate(n)
            ids = IdAssignment(chosen or tuple(rng.sample(range(id_range), n)), id_range)
            params = SchemeParams(target=target, id_policy=policy)

            def rejecting(cert):
                return [
                    ids.id_of(v) for v in range(n)
                    if not verify_certificate(local_view(graph, ids, v, cert.payload), scheme, params)
                ]

            first, tried, witness = None, 0, None
            for cert in canonical_space(scheme, params, 3):
                first = first or cert
                tried += 1
                if not rejecting(cert):
                    witness = cert
                    break
            else:
                witness = min(rejecting(first))
            report = audit_soundness(graph, ids, scheme, params, AuditBounds(max_claimed_n=3))
            assert report.certificate_accepted_exists == isinstance(witness, Certificate)
            assert report.certificates_tried == tried
            assert report.witness == witness


def reference_scan(params, bounds, rows, make, variable_ids, scopes, relations):
    """oracle._scan one member at a time, the oracle for its block scan:
    variable v of member start + i reads positions[i][v] of the row's blocks,
    and a member's pattern maps each variable to the first variable at its
    position."""
    n_values = params.domain_size
    plan = []
    space = 0
    for claim, id_range, width, members, blocks in rows:
        if n_values > 1 and width > bounds.max_space.bit_length():
            raise oracle._too_large(bounds, claim)
        space += members * n_values**width
        if space > bounds.max_space:
            raise oracle._too_large(bounds, claim)
        plan.append((claim, id_range, width, members, blocks))
    unsolvable = set()
    tried = 0
    for claim, id_range, width, members, blocks in plan:
        entry_space = n_values**width
        if any(i >= id_range for i in variable_ids):
            tried += members * entry_space
            continue
        for member, positions in (
            (start + i, list(row)) for start, block in blocks for i, row in enumerate(block)
        ):
            pattern = tuple(map(positions.index, positions))
            if pattern not in unsolvable:
                entries = oracle._first_accepted(positions, n_values, scopes, relations)
                if entries is not None:
                    rank = sum(v * n_values ** (width - 1 - p) for p, v in entries.items())
                    colors = tuple(entries.get(p, 0) for p in range(width))
                    return make(claim, member, colors), tried + rank + 1, None
                unsolvable.add(pattern)
            tried += entry_space
    if not plan:
        return None, tried, None
    return None, tried, make(plan[0][0], 0, (0,) * plan[0][2])


def reference_hash_space(params, bounds, variable_ids, scopes, relations):
    """oracle._hash_space with each member's buckets from the scalar mixer,
    one member to a block."""
    mixed = [hashing._mix_input(i) for i in variable_ids]

    def blocks(buckets, members):
        for index in range(members):
            salt = hashing._fin(index)
            yield index, [[hashing._fin(m ^ salt) % buckets for m in mixed]]

    def make(claim, index, colors):
        return oracle.encode_hash_certificate(HashCertificate(claim, index, colors), params)

    def rows():
        for claim, id_range in oracle._claims(params.id_policy, bounds):
            buckets = params.bucket_count(claim)
            if buckets <= id_range:
                members = oracle.family_size(buckets, id_range)
                yield claim, id_range, buckets, members, blocks(buckets, members)

    return reference_scan(params, bounds, rows(), make, variable_ids, scopes, relations)


def solved_audit(audit):
    """audit()'s report, or its TooLarge text, and every solve_scopes call
    it made, in order."""
    calls = []
    solve = oracle.solve_scopes
    with mock.patch.object(oracle, "solve_scopes", lambda *args: calls.append(args) or solve(*args)):
        try:
            outcome = audit()
        except TooLarge as error:
            outcome = str(error)
    return outcome, calls


def member_by_member(audit):
    """solved_audit with the hash and bitmap spaces on the reference scan."""
    with (
        mock.patch.object(oracle, "_hash_space", reference_hash_space),
        mock.patch.dict(oracle._SPACES, {SchemeTag.HASH: reference_hash_space}),
        mock.patch.object(oracle, "_scan", reference_scan),
    ):
        return solved_audit(audit)


@st.composite
def audits(draw):
    """A hash, bitmap or CSP audit of a 1-5 vertex graph into K2, K3 or C5,
    under fixed, poly:1 or poly:2 identifiers, lambda 1 or 3/2, claims up to
    5, and a space bound that some audits pass."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = Graph.of(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    target = draw(st.sampled_from([K2, K3, cycle(5)]))
    policy = IdRangePolicy.parse(draw(st.sampled_from(["fixed:5", "fixed:8", "fixed:16", "poly:1", "poly:2"])))
    id_range = policy.evaluate(n)
    ids = IdAssignment(tuple(draw(st.permutations(range(id_range)))[:n]), id_range)
    multiplier = draw(st.sampled_from([Fraction(1), Fraction(3, 2)]))
    bounds = AuditBounds(draw(st.integers(1, 5)), draw(st.sampled_from([10**4, 10**6, 10**8])))
    kind = draw(st.sampled_from(["hash", "bitmap", "csp"]))
    if kind == "csp":
        cparams = CspParams(target.vertex_count, policy, multiplier)
        return lambda: audit_csp_soundness(graph_to_csp(graph, ids, target), cparams, bounds)
    params = SchemeParams(target, policy, multiplier)
    return lambda: audit_soundness(graph, ids, SchemeTag[kind.upper()], params, bounds)


# a 7-vertex path into K2 at claims 1 and 2 under fixed:2^20: claim 1's 55
# members are all unsolvable, and the seed's identifiers make claim 2's
# first solvable member the last of one block or the first of the next
BLOCK_EDGE_SEEDS = [(413, 31), (217, 32), (434, 95), (9, 96)]


class TestBlockScan:
    @settings(max_examples=120, deadline=None)
    @given(audits())
    def test_equals_the_member_by_member_scan(self, audit):
        assert solved_audit(audit) == member_by_member(audit)

    @pytest.mark.parametrize("seed, member", BLOCK_EDGE_SEEDS)
    def test_first_solvable_member_at_a_block_edge(self, seed, member):
        path = Graph.of(7, [(v, v + 1) for v in range(6)])
        ids = random_id_assignment(7, 2**20, seed)
        params = SchemeParams(K2, IdRangePolicy.fixed(2**20))
        starts = [start for start, _ in member_blocks(ids.ids, 2, family_size(2, 2**20))]
        assert member in starts or member + 1 in starts

        def audit():
            return audit_soundness(path, ids, SchemeTag.HASH, params, AuditBounds(max_claimed_n=2))

        outcome, calls = solved_audit(audit)
        assert (outcome, calls) == member_by_member(audit)
        decoded = decode_hash_payload(outcome.witness.payload, params)
        assert (decoded.claimed_n, decoded.hash_index) == (2, member)
        assert outcome.certificates_tried > family_size(1, 2**20) * 2 + member * 4

    def test_long_odd_cycle_counts_every_certificate(self):
        # no member of claims 1-3 colors C_1001 with K2, so every member is
        # visited and the whole space is counted
        params = SchemeParams(K2, IdRangePolicy.fixed(2**20))
        ids = random_id_assignment(1001, 2**20, 7)
        report = audit_soundness(cycle(1001), ids, SchemeTag.HASH, params, AuditBounds(max_claimed_n=3))
        assert not report.property_holds and not report.certificate_accepted_exists
        assert report.certificates_tried == 10942 == sum(family_size(k, 2**20) * 2**k for k in (1, 2, 3))


class TestWidenedAudit:
    def test_five_vertex_graphs_at_claims_up_to_six(self):
        # verdicts match the oracle on every 5-vertex graph up to
        # isomorphism, an unsatisfiable hash audit counts every decodable
        # certificate, and the CSP audit of the same instance agrees with
        # the hash audit field by field
        rng = random.Random(2024)
        graphs = list(isomorphism_classes(5))
        assert len(graphs) == 34
        for i, graph in enumerate(graphs):
            id_range, max_claim = ((8, 6), (16, 5))[i % 2]
            policy = IdRangePolicy.fixed(id_range)
            for target in (K2, K3, cycle(5)):
                params = SchemeParams(target=target, id_policy=policy)
                ids = random_id_assignment(5, id_range, rng.randrange(10**6))
                bounds = AuditBounds(max_claimed_n=max_claim, max_space=10**12)
                truth = exists_homomorphism(graph, target)
                report = audit_soundness(graph, ids, SchemeTag.HASH, params, bounds)
                assert report.certificate_accepted_exists == truth
                if not truth:
                    assert report.certificates_tried == sum(
                        family_size(k, id_range) * target.vertex_count**k
                        for k in range(1, max_claim + 1)
                    )
                bitmap = audit_soundness(graph, ids, SchemeTag.BITMAP, params, bounds)
                assert bitmap.certificate_accepted_exists == truth
                cparams = CspParams(domain_size=target.vertex_count, id_policy=policy)
                assert audit_csp_soundness(graph_to_csp(graph, ids, target), cparams, bounds) == report


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
        from globalcert.hashing import family_size, member_blocks
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
                        yield encode_assignment_fields(claim, index, values, params)

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
