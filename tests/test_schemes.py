import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from globalcert import (
    BitmapCertificate,
    Bits,
    BitmapTooLarge,
    Certificate,
    CspParams,
    CspView,
    Graph,
    HashCertificate,
    IdAssignment,
    IdListCertificate,
    IdRangePolicy,
    InvalidParams,
    LocalView,
    MalformedCertificate,
    NotSatisfiable,
    SchemeParams,
    SchemeTag,
    certificate_size_bits,
    clique,
    csp_view,
    cycle,
    decode_certificate,
    encode_certificate,
    find_homomorphism,
    graph_to_csp,
    local_view,
    prove_bitmap,
    prove_csp,
    prove_hash,
    prove_idlist,
    random_h_colorable_graph,
    random_id_assignment,
    run_all_nodes,
    verify_bitmap,
    verify_csp_variable,
    verify_hash,
    verify_idlist,
)
from globalcert.bits import gamma_len
from globalcert.csp import edge_relation
from globalcert.hashing import MAX_FAMILY_K, family_size
from globalcert.schemes import (
    _bitmap_colors,
    _Layout,
    _read_fields,
    _write_fields,
    bitmap_payload_bits,
    decode_assignment_fields,
    decode_hash_payload,
    decode_idlist_payload,
    encode_assignment_fields,
    encode_hash_certificate,
    encode_idlist_certificate,
    hash_payload_bits,
    idlist_payload_bits,
)

K2 = clique(2)


def params_fixed(m, target=K2, **kw):
    return SchemeParams(target=target, id_policy=IdRangePolicy.fixed(m), **kw)


def prove_translation(graph, ids, params):
    """The CSP prover on the graph's CSP translation, in the same framework."""
    csp_params = CspParams(params.domain_size, params.id_policy, params.range_multiplier)
    return prove_csp(graph_to_csp(graph, ids, params.target), csp_params)


def single_edge(ids=(5, 3), m=8):
    return Graph.of(2, [(0, 1)]), IdAssignment(ids, m)


def view_of(graph, ids, vertex, cert):
    return local_view(graph, ids, vertex, cert.payload)


class TestEncoding:
    def test_hash_layout_example(self):
        # claimed n = 2, M = 4: family size 30, so a 5-bit index; entries 1 bit
        params = params_fixed(4)
        for index in (0, 7, 29):
            cert = encode_certificate(HashCertificate(2, index, (0, 1)), params)
            expected = "010" + format(index, "05b") + "01"
            assert cert.payload.to01() == expected
            assert certificate_size_bits(cert) == 10

    def test_round_trip_all_forms(self):
        rng = random.Random(4)
        params = params_fixed(16, target=clique(3))
        for _ in range(60):
            n = rng.randrange(1, 6)
            from globalcert import family_size

            decoded = HashCertificate(
                n,
                rng.randrange(family_size(n, 16)),
                tuple(rng.randrange(3) for _ in range(n)),
            )
            assert decode_certificate(encode_certificate(decoded, params), params) == decoded

            records = sorted(
                (i, rng.randrange(3)) for i in rng.sample(range(16), n)
            )
            dec_list = IdListCertificate(tuple(records))
            assert decode_certificate(encode_certificate(dec_list, params), params) == dec_list

        small = params_fixed(6, target=clique(3))
        bitmap = BitmapCertificate(tuple(rng.randrange(3) for _ in range(6)))
        assert decode_certificate(encode_certificate(bitmap, small), small) == bitmap

    def test_truncated_payload_malformed(self):
        params = params_fixed(4)
        cert = encode_certificate(HashCertificate(2, 3, (0, 1)), params)
        clipped = Bits.from01(cert.payload.to01()[:-1])
        with pytest.raises(MalformedCertificate):
            decode_hash_payload(clipped, params)

    def test_out_of_range_fields_rejected(self):
        params = params_fixed(4)
        with pytest.raises(InvalidParams):
            encode_certificate(HashCertificate(2, 30, (0, 1)), params)  # index = size
        with pytest.raises(InvalidParams):
            encode_certificate(HashCertificate(2, 0, (0, 2)), params)  # color >= n'
        # index 30 and 31 fit the 5-bit field but name no family member
        with pytest.raises(MalformedCertificate):
            decode_hash_payload(Bits.from01("010" "11111" "01"), params)

    ENCODER_MISUSE = {
        "id-list record of three fields": (encode_idlist_certificate, IdListCertificate(((0, 0, 0),))),
        "id-list record of one field": (encode_idlist_certificate, IdListCertificate(((0,),))),
        "id-list record that is an integer": (encode_idlist_certificate, IdListCertificate((5,))),
        "id-list records that are an integer": (encode_idlist_certificate, IdListCertificate(5)),
        "id-list color 1.5": (encode_idlist_certificate, IdListCertificate(((0, 1.5),))),
        "id-list identifier 0.5": (encode_idlist_certificate, IdListCertificate(((0.5, 1),))),
        "id-list color None": (encode_idlist_certificate, IdListCertificate(((0, None),))),
        "hash color 1.5": (encode_hash_certificate, HashCertificate(2, 0, (0, 1.5))),
        "hash index 1.5": (encode_hash_certificate, HashCertificate(2, 1.5, (0, 1))),
        "hash color '1'": (encode_hash_certificate, HashCertificate(2, 0, (0, "1"))),
        "hash claim 2.0": (encode_hash_certificate, HashCertificate(2.0, 0, (0, 1))),
        "hash colors an integer": (encode_hash_certificate, HashCertificate(2, 0, 5)),
        "not a decoded certificate": (encode_certificate, ((0, 0),)),
    }

    @pytest.mark.parametrize("case", sorted(ENCODER_MISUSE))
    def test_a_malformed_decoded_form_is_invalid_params(self, case):
        encode, decoded = self.ENCODER_MISUSE[case]
        with pytest.raises(InvalidParams):
            encode(decoded, params_fixed(4))
        if encode is encode_hash_certificate:
            with pytest.raises(InvalidParams):
                encode(decoded, CspParams(2, IdRangePolicy.fixed(4)))

    def test_byte_padding_accepted_after_file_round_trip(self):
        params = params_fixed(4)
        cert = encode_certificate(HashCertificate(2, 3, (0, 1)), params)
        reloaded = Certificate.from_bytes(cert.to_bytes())
        assert reloaded.payload.length % 8 == 0
        assert decode_certificate(reloaded, params) == decode_certificate(cert, params)


class TestHashScheme:
    def test_single_edge_completeness(self):
        graph, ids = single_edge()
        params = params_fixed(8)
        cert = prove_hash(graph, ids, params)
        assert verify_hash(view_of(graph, ids, 0, cert), params)
        assert verify_hash(view_of(graph, ids, 1, cert), params)
        decoded = decode_certificate(cert, params)
        from globalcert import eval_hash

        c5 = decoded.colors[eval_hash(decoded.hash_index, 5, 2)]
        c3 = decoded.colors[eval_hash(decoded.hash_index, 3, 2)]
        assert c5 != c3

    def test_edgeless_graph_accepts_everywhere(self):
        graph = Graph.of(3)
        ids = IdAssignment((0, 4, 7), 8)
        params = params_fixed(8)
        cert = prove_hash(graph, ids, params)
        assert run_all_nodes(graph, ids, cert, params).all_accept

    def test_triangle_refused(self):
        with pytest.raises(NotSatisfiable):
            prove_hash(clique(3), IdAssignment((0, 1, 2), 8), params_fixed(8))

    @pytest.mark.parametrize("prove", [prove_hash, prove_idlist, prove_bitmap])
    def test_ids_that_do_not_cover_the_graph_are_refused(self, prove):
        with pytest.raises(InvalidParams, match="does not cover the graph"):
            prove(Graph.of(2, [(0, 1)]), IdAssignment((5,), 8), params_fixed(8))

    @pytest.fixture
    def no_search(self, monkeypatch):
        """Every homomorphism and CSP search fails the test."""
        import globalcert.csp as csp
        import globalcert.oracle as oracle

        def search(*args, **kwargs):
            raise AssertionError("the prover searched before checking its identifiers")

        monkeypatch.setattr(oracle, "find_homomorphism", search)
        monkeypatch.setattr(csp, "solve_csp", search)

    @pytest.mark.parametrize("prove", [prove_hash, prove_idlist, prove_bitmap, prove_translation])
    def test_identifiers_are_checked_before_any_search(self, prove, no_search):
        # poly:1 gives the triangle M(3) = 3, and identifier 5 lies outside
        params = SchemeParams(target=clique(2), id_policy=IdRangePolicy.poly(1))
        with pytest.raises(InvalidParams, match=r"^identifier 5 outside policy range M\(n\) = 3$"):
            prove(clique(3), IdAssignment((0, 1, 5), 8), params)

    def test_the_bitmap_cap_is_checked_before_any_search(self, no_search, monkeypatch):
        import globalcert.schemes as schemes

        monkeypatch.setattr(schemes, "BITMAP_MAX_RANGE", 7)
        with pytest.raises(BitmapTooLarge, match=r"^M\(n\) = 8 exceeds"):
            prove_bitmap(clique(3), IdAssignment((0, 1, 2), 8), params_fixed(8))

    def test_monochromatic_list_rejected(self):
        graph, ids = single_edge()
        params = params_fixed(8)
        honest = decode_certificate(prove_hash(graph, ids, params), params)
        bad = encode_certificate(
            HashCertificate(honest.claimed_n, honest.hash_index, (0, 0)), params
        )
        assert not verify_hash(view_of(graph, ids, 0, bad), params)
        assert not verify_hash(view_of(graph, ids, 1, bad), params)

    def test_lookup_refuses_identifiers_at_or_above_m_of_the_claim(self):
        # a claim of n = 2 under poly:2 has M = 4: the isolated node with id
        # 8 finds no colour and rejects, while ids 0 and 1 accept
        params = SchemeParams(target=K2, id_policy=IdRangePolicy.poly(2))
        cert = encode_certificate(HashCertificate(2, 0, (0, 0)), params)
        ids = IdAssignment((0, 1, 8), 9)
        assert run_all_nodes(Graph.of(3), ids, cert, params).decisions == (True, True, False)

    def test_adversarial_claimed_n_is_just_data(self):
        # a certificate claiming a different n than the true one is decoded
        # and judged on its own terms
        graph, ids = single_edge(ids=(5, 3), m=8)
        params = params_fixed(8)
        cert = encode_certificate(HashCertificate(3, 0, (0, 1, 0)), params)
        decisions = [
            verify_hash(view_of(graph, ids, v, cert), params) for v in range(2)
        ]
        assert all(isinstance(d, bool) for d in decisions)

    def test_ids_beyond_claimed_range_rejected(self):
        graph, ids = single_edge(ids=(5, 3), m=8)
        params = SchemeParams(target=K2, id_policy=IdRangePolicy.poly(2))
        # claimed n = 2 gives M = 4; the node with id 5 is outside the domain
        cert = encode_certificate(HashCertificate(2, 0, (0, 1)), params)
        assert not verify_hash(view_of(graph, ids, 0, cert), params)

    def test_completeness_sweep_small(self):
        rng = random.Random(17)
        for seed in range(12):
            n = rng.randrange(1, 9)
            target = random.Random(seed).choice([K2, clique(3)])
            graph = random_h_colorable_graph(n, target, 0.6, seed)
            policy = IdRangePolicy.poly(2)
            ids = random_id_assignment(n, policy.evaluate(n), seed)
            params = SchemeParams(target=target, id_policy=policy)
            cert = prove_hash(graph, ids, params)
            assert run_all_nodes(graph, ids, cert, params).all_accept

    def test_soundness_by_construction(self):
        # all nodes accept iff the induced map u -> L[h(Id(u))] is a
        # homomorphism (and every id is inside the claimed domain)
        from globalcert import eval_hash

        rng = random.Random(23)
        params = params_fixed(8)
        agreements = 0
        for _ in range(300):
            n = rng.randrange(1, 5)
            graph = Graph.of(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.5
                ],
            )
            ids = random_id_assignment(n, 8, rng.randrange(10**6))
            claimed = rng.randrange(1, 5)
            from globalcert import family_size

            index = rng.randrange(family_size(claimed, 8))
            colors = tuple(rng.randrange(2) for _ in range(claimed))
            cert = encode_certificate(HashCertificate(claimed, index, colors), params)
            all_accept = run_all_nodes(graph, ids, cert, params).all_accept
            induced = [colors[eval_hash(index, ids.id_of(v), claimed)] for v in range(n)]
            is_hom = all(
                K2.has_edge(induced[u], induced[v]) for u, v in graph.edges
            )
            assert all_accept == is_hom
            agreements += 1
        assert agreements == 300

    def test_bucket_multiplier_round_trip(self):
        graph, ids = single_edge()
        params = params_fixed(8, range_multiplier=Fraction(3, 2))
        cert = prove_hash(graph, ids, params)
        decoded = decode_certificate(cert, params)
        assert len(decoded.colors) == 3  # ceil(1.5 * 2)
        assert run_all_nodes(graph, ids, cert, params).all_accept


class TestHashFramework:
    """SchemeParams and CspParams share one multiplier check and one hash
    family per claim."""

    @pytest.mark.parametrize("multiplier", [Fraction(1, 2), "0.99", 0, -1])
    def test_multiplier_below_one_refused(self, multiplier):
        with pytest.raises(InvalidParams):
            SchemeParams(K2, IdRangePolicy.fixed(8), multiplier)
        with pytest.raises(InvalidParams):
            CspParams(2, IdRangePolicy.fixed(8), multiplier)

    def test_multiplier_spellings_give_equal_params(self):
        policy = IdRangePolicy.poly(2)
        for make in (lambda lam: SchemeParams(K2, policy, lam), lambda lam: CspParams(2, policy, lam)):
            spellings = [make(lam) for lam in ("3/2", 1.5, Fraction(3, 2))]
            assert spellings[0] == spellings[1] == spellings[2]
            assert len({hash(p) for p in spellings}) == 1
            assert spellings[0].range_multiplier == Fraction(3, 2)

    @given(
        multiplier=st.fractions(min_value=1, max_value=10**6, max_denominator=10**6),
        n=st.integers(0, 10**40),
    )
    def test_bucket_count_is_the_ceiling_of_lambda_n(self, multiplier, n):
        expected = math.ceil(Fraction(multiplier) * n)
        assert SchemeParams(K2, IdRangePolicy.fixed(8), multiplier).bucket_count(n) == expected
        assert CspParams(2, IdRangePolicy.fixed(8), multiplier).bucket_count(n) == expected

    @pytest.mark.parametrize("policy", [IdRangePolicy.fixed(64), IdRangePolicy.poly(2), IdRangePolicy.doubly_exponential()])
    @pytest.mark.parametrize("multiplier", [Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_graph_and_csp_share_the_family(self, policy, multiplier):
        graph_params = SchemeParams(clique(3), policy, multiplier)
        csp_params = CspParams(3, policy, multiplier)
        assert graph_params.value_width == csp_params.value_width == 2
        for n in range(1, 6):
            buckets = -(-multiplier.numerator * n // multiplier.denominator)
            assert graph_params.bucket_count(n) == csp_params.bucket_count(n) == buckets
            if buckets > policy.evaluate(n):  # poly:2 at n = 1 has one identifier
                for p in (graph_params, csp_params):
                    with pytest.raises(InvalidParams):
                        p.family(n)
                continue
            expected = family_size(buckets, policy.evaluate(n))
            assert graph_params.family(n) == csp_params.family(n) == expected

    def test_more_buckets_than_identifiers_refused_everywhere(self):
        # lambda = 2 under fixed:3: a claim of 2 has 4 buckets over 3 ids
        policy = IdRangePolicy.fixed(3)
        params, csp_params = SchemeParams(K2, policy, 2), CspParams(2, policy, 2)
        for p in (params, csp_params):
            with pytest.raises(InvalidParams):
                p.family(2)
            with pytest.raises(InvalidParams):
                encode_hash_certificate(HashCertificate(2, 0, (0, 1, 0, 1)), p)
            with pytest.raises(InvalidParams):
                hash_payload_bits(2, p)
        # gamma(2) then room enough for four entries and an index
        cert = Certificate(SchemeTag.HASH, Bits.from01("010" + "1010" * 4))
        with pytest.raises(MalformedCertificate):
            decode_certificate(cert, params)
        graph, ids = single_edge(ids=(0, 2), m=3)
        assert run_all_nodes(graph, ids, cert, params).decisions == (False, False)
        instance = graph_to_csp(graph, ids, K2)
        assert not any(verify_csp_variable(csp_view(instance, v, cert.payload), csp_params) for v in range(2))


class TestBitmapScheme:
    def test_layout_example(self):
        graph, ids = single_edge(ids=(0, 3), m=4)
        params = params_fixed(4)
        cert = prove_bitmap(graph, ids, params)
        assert cert.payload.to01() == "0001"
        assert run_all_nodes(graph, ids, cert, params).all_accept

    def test_edgeless_all_zero(self):
        graph = Graph.of(2)
        ids = IdAssignment((1, 2), 4)
        params = params_fixed(4)
        cert = prove_bitmap(graph, ids, params)
        assert cert.payload.to01() == "0000"
        assert run_all_nodes(graph, ids, cert, params).all_accept

    def test_doubly_exponential_range_too_large(self):
        params = SchemeParams(target=K2, id_policy=IdRangePolicy.doubly_exponential())
        graph = random_h_colorable_graph(5, K2, 0.5, 3)
        ids = random_id_assignment(5, 2**32, 3)
        with pytest.raises(BitmapTooLarge):
            prove_bitmap(graph, ids, params)

    def test_wrong_length_rejected(self):
        graph, ids = single_edge(ids=(0, 3), m=4)
        params = params_fixed(4)
        for bad in ("000", "00010"):
            cert = Certificate(SchemeTag.BITMAP, Bits.from01(bad))
            assert not verify_bitmap(view_of(graph, ids, 0, cert), params)

    def test_flipped_color_bit_rejected_at_edge(self):
        graph, ids = single_edge(ids=(0, 3), m=4)
        params = params_fixed(4)
        honest = prove_bitmap(graph, ids, params)
        flipped = Bits.from01(
            "".join(
                str(1 - int(b)) if i == 3 else b
                for i, b in enumerate(honest.payload.to01())
            )
        )
        cert = Certificate(SchemeTag.BITMAP, flipped)
        result = run_all_nodes(graph, ids, cert, params)
        assert not result.all_accept

    def test_file_round_trip_with_padding(self):
        graph, ids = single_edge(ids=(0, 3), m=4)
        params = params_fixed(4)
        cert = prove_bitmap(graph, ids, params)
        reloaded = Certificate.from_bytes(cert.to_bytes())
        assert run_all_nodes(graph, ids, reloaded, params).all_accept

    def test_larger_instances(self):
        policy = IdRangePolicy.fixed(4096)
        params = SchemeParams(target=K2, id_policy=policy)
        graph = random_h_colorable_graph(64, K2, 0.2, 9)
        ids = random_id_assignment(64, 4096, 9)
        cert = prove_bitmap(graph, ids, params)
        assert certificate_size_bits(cert) == 4096
        assert run_all_nodes(graph, ids, cert, params).all_accept

    def test_two_bit_colors_with_slack_value(self):
        # K3 colors use 2 bits, so the bit pattern 11 encodes nothing; a
        # node reading it must reject
        k3 = clique(3)
        params = SchemeParams(target=k3, id_policy=IdRangePolicy.fixed(4))
        graph = Graph.of(2, [(0, 1)])
        ids = IdAssignment((0, 3), 4)
        cert = prove_bitmap(graph, ids, params)
        assert certificate_size_bits(cert) == 8
        assert run_all_nodes(graph, ids, cert, params).all_accept
        bits = list(cert.payload.to01())
        bits[6:8] = "11"  # id 3's color becomes the out-of-range pattern
        bad = Certificate(SchemeTag.BITMAP, Bits.from01("".join(bits)))
        result = run_all_nodes(graph, ids, bad, params)
        assert not result.all_accept

    def test_slack_value_at_an_unread_identifier_rejects_everywhere(self):
        # no node reads id 1, but the verifier, like the decoder, refuses a
        # bitmap with any entry outside the target
        params = SchemeParams(target=clique(3), id_policy=IdRangePolicy.fixed(4))
        graph = Graph.of(2, [(0, 1)])
        ids = IdAssignment((0, 3), 4)
        bits = list(prove_bitmap(graph, ids, params).payload.to01())
        bits[2:4] = "11"
        bad = Certificate(SchemeTag.BITMAP, Bits.from01("".join(bits)))
        assert not any(run_all_nodes(graph, ids, bad, params).decisions)
        with pytest.raises(MalformedCertificate):
            decode_certificate(bad, params)


class TestBitmapCodec:
    @settings(max_examples=300, deadline=None)
    @given(
        target=st.sampled_from([clique(1), K2, clique(3), cycle(5)]),
        policy=st.sampled_from(["fixed:9", "fixed:16", "poly:1", "poly:2", "poly:3"]),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        padded=st.booleans(),
        data=st.data(),
    )
    def test_one_writer_and_one_reader(self, target, policy, n, seed, padded, data):
        # the prover and the encoder write the same bytes, the decoder reads
        # what the verifiers' lookup reads, and both refuse an entry >= n'
        params = SchemeParams(target, IdRangePolicy.parse(policy))
        id_range = params.id_policy.evaluate(n)
        graph = random_h_colorable_graph(n, target, 0.6 if target.edges else 0, seed)
        ids = random_id_assignment(n, id_range, seed)
        by_id = dict(zip(ids.ids, find_homomorphism(graph, target)))
        full = BitmapCertificate(tuple(by_id.get(i, 0) for i in range(id_range)))
        cert = prove_bitmap(graph, ids, params)
        assert cert == encode_certificate(full, params)

        def load(bits):
            honest = Certificate(SchemeTag.BITMAP, Bits.from01(bits))
            return Certificate.from_bytes(honest.to_bytes()) if padded else honest

        width = params.value_width
        loaded = load(cert.payload.to01())
        colors = decode_certificate(loaded, params).colors
        lookup = _bitmap_colors(loaded.payload, params)
        # byte padding may lengthen the range read from a payload, with zeros
        expected = full.colors if width else ()
        assert colors[: len(expected)] == expected and not any(colors[len(expected) :])
        assert padded or len(colors) == len(expected)
        reads = [lookup(i) for i in range(max(len(colors), id_range) + 1)]
        assert reads == ([*colors, None] if width else [0] * (id_range + 1))

        slack = range(target.vertex_count, 1 << width)
        if slack:
            i = data.draw(st.integers(0, id_range - 1))
            bits = cert.payload.to01()
            entry = format(data.draw(st.sampled_from(slack)), f"0{width}b")
            bad = load(bits[: i * width] + entry + bits[(i + 1) * width :])
            with pytest.raises(MalformedCertificate):
                decode_certificate(bad, params)
            with pytest.raises(MalformedCertificate):
                _bitmap_colors(bad.payload, params)

    @pytest.mark.parametrize("vertices", [2, 3, 5, 256, 257, 300])
    def test_the_writer_puts_each_color_msb_first_at_its_identifier(self, vertices):
        # one-byte colors up to 256 target vertices, the general path above;
        # the prover's entries at the identifiers, zero elsewhere
        target = clique(2) if vertices == 2 else cycle(vertices)
        params = SchemeParams(target, IdRangePolicy.fixed(40))
        rng = random.Random(vertices)
        colors = tuple(rng.randrange(vertices) for _ in range(40))
        width = params.value_width
        payload = encode_certificate(BitmapCertificate(colors), params).payload
        assert payload.to01() == "".join(format(c, f"0{width}b") for c in colors)
        assert decode_certificate(Certificate(SchemeTag.BITMAP, payload), params).colors == colors
        graph, ids = Graph.of(2, [(0, 1)]), IdAssignment((17, 5), 40)
        phi = find_homomorphism(graph, target)
        by_id = {17: phi[0], 5: phi[1]}
        full = BitmapCertificate(tuple(by_id.get(i, 0) for i in range(40)))
        assert prove_bitmap(graph, ids, params) == encode_certificate(full, params)

    @pytest.mark.parametrize(
        "vertices, color", [(3, 3), (3, -1), (3, 256), (3, 1.0), (300, 300), (300, -1), (300, 1 << 70), (300, 1.0)]
    )
    def test_the_writer_refuses_a_color_outside_the_target(self, vertices, color):
        params = SchemeParams(cycle(vertices), IdRangePolicy.fixed(4))
        with pytest.raises(InvalidParams, match="color"):
            encode_certificate(BitmapCertificate((0, color, 0, 1)), params)


class TestFieldCodec:
    """The hash (graph and CSP) and id-list layouts, one field codec: gamma(n),
    then fields of ceil(log2 bound) bits, with the bounds rebuilt here."""

    @staticmethod
    def encode(kind, n, fields, params):
        if kind == "idlist":
            records = tuple(zip(fields[::2], fields[1::2]))
            return encode_idlist_certificate(IdListCertificate(records), params).payload
        if kind == "hash":
            return encode_hash_certificate(HashCertificate(n, fields[0], tuple(fields[1:])), params).payload
        return encode_assignment_fields(n, fields[0], tuple(fields[1:]), params)

    @staticmethod
    def decode(kind, payload, params):
        if kind == "idlist":
            records = decode_idlist_payload(payload, params).records
            return len(records), [field for record in records for field in record]
        if kind == "hash":
            decoded = decode_hash_payload(payload, params)
            return decoded.claimed_n, [decoded.hash_index, *decoded.colors]
        claimed_n, index, values = decode_assignment_fields(payload, params)
        return claimed_n, [index, *values]

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["hash", "csp", "idlist"]),
        domain=st.integers(1, 5),
        policy=st.sampled_from(["fixed:1", "fixed:2", "fixed:64", "poly:1", "poly:2", "poly:4", "doubexp"]),
        multiplier=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
        n=st.integers(1, 12),
        data=st.data(),
    )
    def test_round_trip_size_and_bounds(self, kind, domain, policy, multiplier, n, data):
        policy = IdRangePolicy.parse(policy)
        try:
            id_range = policy.evaluate(n)
        except InvalidParams:
            assume(False)
        if kind == "idlist":
            params = SchemeParams(clique(domain), policy)
            bounds, size = [id_range, domain] * n, idlist_payload_bits
        else:
            k = math.ceil(multiplier * n)
            assume(k <= id_range)
            params = (SchemeParams(clique(domain), policy, multiplier) if kind == "hash"
                      else CspParams(domain, policy, multiplier))
            bounds, size = [family_size(k, id_range)] + [domain] * k, hash_payload_bits
        widths = [(bound - 1).bit_length() for bound in bounds]

        def raw(fields):
            gamma = format(n, f"0{2 * n.bit_length() - 1}b")
            return Bits.from01(gamma + "".join(format(f, f"0{w}b") for f, w in zip(fields, widths) if w))

        fields = [data.draw(st.integers(0, bound - 1)) for bound in bounds]
        payload = self.encode(kind, n, fields, params)
        assert payload == raw(fields)
        assert self.decode(kind, payload, params) == (n, fields)
        assert payload.length == size(n, params) == gamma_len(n) + sum(widths)

        j = data.draw(st.integers(0, len(bounds) - 1))
        fields[j] = bounds[j]
        with pytest.raises(InvalidParams):
            self.encode(kind, n, fields, params)
        if bounds[j] >> widths[j] == 0:  # the bound fits its field
            with pytest.raises(MalformedCertificate):
                self.decode(kind, raw(fields), params)

    @staticmethod
    def head_only(bounds):
        """The layout of gamma(n) then one field below each of `bounds`."""
        return lambda n: _Layout(n, tuple(bounds), (), 0)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_gamma_round_trip(self, n):
        layout_of = self.head_only(())
        payload = _write_fields(layout_of(n), [])
        assert payload.to01() == format(n, f"0{2 * n.bit_length() - 1}b")
        assert _read_fields(payload, layout_of) == (n, [])
        for cut in range(1, payload.length + 1):
            with pytest.raises(MalformedCertificate, match="payload truncated"):
                _read_fields(Bits.from01(payload.to01()[:-cut]), layout_of)

    def test_write_rejects_oversized_value(self):
        layout = self.head_only((4,))(1)
        for value in (4, 5, -1):
            with pytest.raises(InvalidParams, match=rf"field value {value} outside \[0, 4\)"):
                _write_fields(layout, [value])

    @pytest.mark.parametrize("values", [[], [1, 2]])
    def test_write_rejects_a_wrong_field_count(self, values):
        with pytest.raises(InvalidParams, match=f"expected 1 fields, got {len(values)}"):
            _write_fields(self.head_only((4,))(1), values)

    def test_a_claim_longer_than_its_payload_is_malformed(self):
        # gamma(1), then 3 of the 4 bits of a field below 16
        with pytest.raises(MalformedCertificate, match="claimed n larger than the payload allows"):
            _read_fields(Bits.from01("1" "101"), self.head_only((16,)))
        assert _read_fields(Bits.from01("1" "1010"), self.head_only((16,))) == (1, [10])


class TestIdListScheme:
    def test_single_edge_example(self):
        graph, ids = single_edge(ids=(5, 3), m=8)
        params = params_fixed(8)
        cert = prove_idlist(graph, ids, params)
        decoded = decode_certificate(cert, params)
        assert [r[0] for r in decoded.records] == [3, 5]
        c3, c5 = decoded.records[0][1], decoded.records[1][1]
        assert c3 != c5
        assert run_all_nodes(graph, ids, cert, params).all_accept

    def test_missing_identifier_rejected(self):
        graph, ids = single_edge(ids=(5, 3), m=8)
        params = params_fixed(8)
        cert = encode_certificate(IdListCertificate(((3, 1), (6, 0))), params)
        # the node with id 5 is absent; its neighbor (id 3) also rejects
        assert not verify_idlist(view_of(graph, ids, 0, cert), params)
        assert not verify_idlist(view_of(graph, ids, 1, cert), params)

    def test_unsorted_records_rejected_everywhere(self):
        graph, ids = single_edge(ids=(5, 3), m=8)
        params = params_fixed(8)
        cert = encode_certificate(IdListCertificate(((5, 0), (3, 1))), params)
        assert not verify_idlist(view_of(graph, ids, 0, cert), params)
        assert not verify_idlist(view_of(graph, ids, 1, cert), params)
        dup = encode_certificate(IdListCertificate(((3, 1), (3, 1))), params)
        assert not verify_idlist(view_of(graph, ids, 0, dup), params)

    def test_a_repeated_identifier_rejects_everywhere(self):
        # identifiers must ascend strictly: a list naming id 1 twice holds a
        # proper colouring of the edge (1, 2), yet both nodes reject it
        graph, ids = single_edge(ids=(1, 2), m=4)
        params = params_fixed(4)
        cert = encode_certificate(IdListCertificate(((1, 0), (1, 1), (2, 0))), params)
        assert run_all_nodes(graph, ids, cert, params).decisions == (False, False)

    def test_larger_instances(self):
        policy = IdRangePolicy.poly(2)
        params = SchemeParams(target=clique(3), id_policy=policy)
        graph = random_h_colorable_graph(64, clique(3), 0.3, 21)
        ids = random_id_assignment(64, policy.evaluate(64), 21)
        cert = prove_idlist(graph, ids, params)
        assert run_all_nodes(graph, ids, cert, params).all_accept


class TestSizes:
    def test_reference_point(self):
        params = params_fixed(20736)
        assert hash_payload_bits(12, params) == 44
        assert idlist_payload_bits(12, params) == 199
        assert bitmap_payload_bits(12, params) == 20736

    def test_sizes_match_produced_certificates(self):
        policy = IdRangePolicy.poly(4)
        params = SchemeParams(target=K2, id_policy=policy)
        graph = random_h_colorable_graph(12, K2, 0.6, 2)
        ids = random_id_assignment(12, policy.evaluate(12), 2)
        assert certificate_size_bits(prove_hash(graph, ids, params)) == 44
        assert certificate_size_bits(prove_idlist(graph, ids, params)) == 199
        assert certificate_size_bits(prove_bitmap(graph, ids, params)) == 20736

    def test_loglog_growth(self):
        p64 = params_fixed(1 << 64)
        p128 = params_fixed(1 << 128)
        assert hash_payload_bits(8, p64) == 36
        assert hash_payload_bits(8, p128) == 37
        assert idlist_payload_bits(8, p128) - idlist_payload_bits(8, p64) == 512

    def test_ordering_across_sizes(self):
        for n in (4, 6, 8, 10, 12):
            params = SchemeParams(target=K2, id_policy=IdRangePolicy.poly(4))
            h = hash_payload_bits(n, params)
            i = idlist_payload_bits(n, params)
            b = bitmap_payload_bits(n, params)
            assert h < i < b


class TestVerifierTotality:
    def test_random_payloads_never_raise(self):
        rng = random.Random(77)
        graph, ids = single_edge(ids=(5, 3), m=8)
        params = params_fixed(8)
        for _ in range(500):
            bits = Bits.from01(
                "".join(rng.choice("01") for _ in range(rng.randrange(0, 128)))
            )
            for verifier in (verify_hash, verify_idlist, verify_bitmap):
                decision = verifier(view_of(graph, ids, 0, Certificate(SchemeTag.HASH, bits)), params)
                assert decision in (True, False)

    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from(["fixed:1", "fixed:16", "poly:2", "doubexp"]),
        claim_bits=st.integers(1, 20_000),
        data=st.data(),
    )
    def test_a_claim_the_payload_cannot_hold_rejects_everywhere(self, policy, claim_bits, data):
        # gamma(n), n drawn log-uniformly below 2^20000, then fewer bits than
        # n: every hash, id-list and CSP layout of n holds at least n bits
        n = data.draw(st.integers(1 << (claim_bits - 1), (1 << claim_bits) - 1))
        tail = data.draw(st.text("01", max_size=min(n - 1, 64)))
        payload = Bits.from01(format(n, "b").zfill(2 * claim_bits - 1) + tail)
        policy = IdRangePolicy.parse(policy)
        graph, ids = cycle(6), random_id_assignment(6, 16, 1)
        params, csp_params = SchemeParams(K2, policy), CspParams(2, policy)
        for decode in (decode_hash_payload, decode_idlist_payload, decode_assignment_fields):
            with pytest.raises(MalformedCertificate):
                decode(payload, csp_params if decode is decode_assignment_fields else params)
        for tag in (SchemeTag.HASH, SchemeTag.IDLIST):
            assert run_all_nodes(graph, ids, Certificate(tag, payload), params).decisions == (False,) * 6
        instance = graph_to_csp(graph, ids, K2)
        assert not any(verify_csp_variable(csp_view(instance, v, payload), csp_params) for v in range(6))

    def test_a_megabyte_of_zeros_is_rejected_at_once(self):
        # no gamma code ends in an all-zero payload; finding that must not
        # cost one step per bit
        payload = Bits(bytes(1 << 20), 8 << 20)
        graph, ids = single_edge(ids=(5, 3), m=8)
        params = params_fixed(8)
        instance = graph_to_csp(graph, ids, K2)
        start = time.perf_counter()
        for verifier in (verify_hash, verify_idlist):
            assert not verifier(LocalView(5, frozenset({3}), payload), params)
        assert not verify_csp_variable(csp_view(instance, 0, payload), CspParams(2, IdRangePolicy.fixed(8)))
        assert time.perf_counter() - start < 0.5

    def test_one_vertex_target_degenerates(self):
        lonely = clique(1)
        params = SchemeParams(target=lonely, id_policy=IdRangePolicy.fixed(4))
        graph, ids = single_edge(ids=(0, 3), m=4)
        empty = Certificate(SchemeTag.BITMAP, Bits.empty())
        # any edge is fatal with a loopless one-vertex target
        assert not verify_bitmap(view_of(graph, ids, 0, empty), params)
        isolated = Graph.of(1)
        one_id = IdAssignment((2,), 4)
        assert verify_bitmap(view_of(isolated, one_id, 0, empty), params)

    @pytest.mark.parametrize("bits", ["1", "0001", "00000000", "0000000000000001"])
    def test_a_nonempty_one_vertex_bitmap_is_malformed(self, bits):
        params = SchemeParams(target=clique(1), id_policy=IdRangePolicy.fixed(4))
        cert = Certificate(SchemeTag.BITMAP, Bits.from01(bits))
        with pytest.raises(MalformedCertificate, match="nonempty payload"):
            decode_certificate(cert, params)
        assert not verify_bitmap(view_of(Graph.of(1), IdAssignment((2,), 4), 0, cert), params)

    def test_a_one_vertex_bitmap_takes_no_fill(self):
        # the empty payload is the whole bitmap; a fill of 1-7 zero bits
        # pads no content, so every node rejects it, as it rejects 8
        params = SchemeParams(target=clique(1), id_policy=IdRangePolicy.fixed(4))
        graph, ids = Graph.of(3), IdAssignment((0, 2, 3), 4)
        empty = Certificate(SchemeTag.BITMAP, Bits.empty())
        assert decode_certificate(empty, params) == BitmapCertificate(())
        assert run_all_nodes(graph, ids, empty, params).decisions == (True,) * 3
        for bits in ("000", "00000000"):
            cert = Certificate(SchemeTag.BITMAP, Bits.from01(bits))
            with pytest.raises(MalformedCertificate, match="nonempty payload"):
                decode_certificate(cert, params)
            assert run_all_nodes(graph, ids, cert, params).decisions == (False,) * 3

    @pytest.mark.parametrize("claim, length", [(100_000, 100_097), (40_000, 60_000), (40_000, 100_000)])
    def test_claims_beyond_the_family_size_reject_everywhere(self, claim, length):
        # gamma(claim) then zeros: the first two payloads are too short for
        # the claim's member index; the third is long enough, and 40000
        # buckets are above the family size's cap
        assert MAX_FAMILY_K < 40_000
        payload = Bits.from01(format(claim, "b").zfill(2 * claim.bit_length() - 1).ljust(length, "0"))
        policy = IdRangePolicy.poly(2)
        graph, ids = cycle(6), random_id_assignment(6, 36, 1)
        params, cert = SchemeParams(K2, policy), Certificate(SchemeTag.HASH, payload)
        with pytest.raises(MalformedCertificate):
            decode_hash_payload(payload, params)
        assert not any(verify_hash(view_of(graph, ids, v, cert), params) for v in range(6))
        assert run_all_nodes(graph, ids, cert, params).decisions == (False,) * 6
        instance, csp_params = graph_to_csp(graph, ids, K2), CspParams(2, policy)
        assert not any(verify_csp_variable(csp_view(instance, v, payload), csp_params) for v in range(6))

    @pytest.mark.parametrize("target", [K2, clique(1)], ids=["K2", "K1"])
    def test_an_identifier_below_zero_has_no_color(self, target):
        # identifiers 5 and 3 on an edge, or 5 alone for the loopless K1;
        # every verifier rejects a view naming -1, as itself or a neighbor
        graph, ids = single_edge() if target.edges else (Graph.of(1), IdAssignment((5,), 8))
        params = params_fixed(8, target=target)
        named = [(-1, ())] + [(i, (-1,)) for i in ids.ids] + [(-1, (i,)) for i in ids.ids]
        for prove, verify in ((prove_hash, verify_hash), (prove_idlist, verify_idlist), (prove_bitmap, verify_bitmap)):
            payload = prove(graph, ids, params).payload
            views = [LocalView(own, frozenset(others), payload) for own, others in named]
            assert [verify(view, params) for view in views] == [False] * len(named)
        csp_params = CspParams(target.vertex_count, IdRangePolicy.fixed(8))
        payload = prove_csp(graph_to_csp(graph, ids, target), csp_params).payload
        relation = edge_relation(target)
        views = [CspView(own, tuple(((own, other), relation) for other in others), payload) for own, others in named]
        assert [verify_csp_variable(view, csp_params) for view in views] == [False] * len(named)
