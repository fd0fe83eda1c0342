import math
import random

from fractions import Fraction

from hypothesis import example, given, reject, settings, strategies as st

from globalcert import (
    BenchSpec,
    BitmapCertificate,
    Bits,
    Certificate,
    CspConstraint,
    CspInstance,
    CspParams,
    Graph,
    IdAssignment,
    IdListCertificate,
    IdRangePolicy,
    MalformedCertificate,
    SchemeParams,
    SchemeTag,
    bench_sizes,
    clique,
    csp_view,
    cycle,
    decode_certificate,
    default_bench_specs,
    eval_hash,
    family_size,
    graph_to_csp,
    prove_and_run,
    random_h_colorable_graph,
    random_id_assignment,
    rows_to_csv,
    run_all_nodes,
    verify_csp_variable,
)
from globalcert import schemes
from globalcert.graphs import local_view
from globalcert.harness import CSV_HEADER
from globalcert.schemes import (
    HashCertificate,
    _bitmap_colors,
    _idlist_colors,
    check,
    decode_hash_payload,
    encode_certificate,
    hash_colors,
    shared_lookup,
)

K2 = clique(2)


def fixed_params(m):
    return SchemeParams(target=K2, id_policy=IdRangePolicy.fixed(m))


class TestRunAllNodes:
    def test_honest_hash_on_c6(self):
        g = cycle(6)
        ids = random_id_assignment(6, 64, 4)
        params = fixed_params(64)
        cert, result = prove_and_run(g, ids, SchemeTag.HASH, params)
        assert result.all_accept
        assert result.all_accept == all(result.decisions)
        assert result.size_bits == cert.payload.length
        assert result.prover_probes >= 1

    def test_corrupted_entry_rejected_at_edge(self):
        g = cycle(6)
        ids = random_id_assignment(6, 64, 4)
        params = fixed_params(64)
        cert, _ = prove_and_run(g, ids, SchemeTag.HASH, params)
        decoded = decode_hash_payload(cert.payload, params)
        from globalcert import eval_hash

        hit = eval_hash(decoded.hash_index, ids.id_of(0), len(decoded.colors))
        colors = list(decoded.colors)
        colors[hit] ^= 1
        bad = encode_certificate(
            HashCertificate(decoded.claimed_n, decoded.hash_index, tuple(colors)),
            params,
        )
        result = run_all_nodes(g, ids, bad, params)
        assert not result.all_accept
        assert not (result.decisions[0] and all(result.decisions[v] for v in (1, 5)))

    def test_random_payload_fuzz_on_triangle(self):
        rng = random.Random(31)
        tri = clique(3)
        ids = IdAssignment((0, 1, 2), 8)
        params = fixed_params(8)
        for _ in range(300):
            bits = Bits.from01(
                "".join(rng.choice("01") for _ in range(rng.randrange(0, 80)))
            )
            for scheme in SchemeTag:
                result = run_all_nodes(tri, ids, Certificate(scheme, bits), params)
                assert not result.all_accept


def planted(scheme: SchemeTag, target, n: int, rng: random.Random):
    """(graph, ids, honest certificate, params) under M = n^2: the colours
    come first (for hash, from a random family member and table), then each
    pair whose colours form a target edge is kept with probability 0.3."""
    policy = IdRangePolicy.poly(2)
    params = SchemeParams(target, policy)
    id_range = policy.evaluate(n)
    ids = random_id_assignment(n, id_range, rng.randrange(1 << 32))
    values = target.vertex_count
    if scheme is SchemeTag.HASH:
        index = rng.randrange(family_size(n, id_range))
        table = tuple(rng.randrange(values) for _ in range(n))
        colour = [table[eval_hash(index, i, n)] for i in ids.ids]
        decoded = HashCertificate(n, index, table)
    elif scheme is SchemeTag.IDLIST:
        colour = [rng.randrange(values) for _ in range(n)]
        decoded = IdListCertificate(tuple(sorted(zip(ids.ids, colour))))
    else:
        entries = [rng.randrange(values) for _ in range(id_range)]
        colour = [entries[i] for i in ids.ids]
        decoded = BitmapCertificate(tuple(entries))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = Graph.of(n, [(u, v) for u, v in pairs if target.has_edge(colour[u], colour[v]) and rng.random() < 0.3])
    return graph, ids, encode_certificate(decoded, params), params


def mutated(cert: Certificate, edits) -> Certificate:
    bits = cert.payload.to01()
    for kind, at in edits:
        if kind == "flip" and bits:
            i = at % len(bits)
            bits = bits[:i] + "10"[int(bits[i])] + bits[i + 1 :]
        elif kind == "truncate":
            bits = bits[: max(0, len(bits) - 1 - at % 16)]
        elif kind == "append":
            bits += format(at, "b")
    return Certificate(cert.scheme, Bits.from01(bits))


def colours_read(cert: Certificate, params: SchemeParams, ids: IdAssignment):
    """Each identifier's colour in the decoded certificate, None if it has none."""
    decoded = decode_certificate(cert, params)
    if cert.scheme is SchemeTag.HASH:
        id_range = params.id_policy.evaluate(decoded.claimed_n)
        buckets = len(decoded.colors)
        return [decoded.colors[eval_hash(decoded.hash_index, i, buckets)] if i < id_range else None for i in ids.ids]
    if cert.scheme is SchemeTag.IDLIST:
        return [dict(decoded.records).get(i) for i in ids.ids]
    return [decoded.colors[i] if i < len(decoded.colors) else None for i in ids.ids]


TARGETS = {"K2": clique(2), "K3": clique(3), "C5": cycle(5)}
EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "truncate", "append"]), st.integers(0, 2**16)),
    max_size=3,
)


class TestSoundnessAtScale:
    @settings(max_examples=300, deadline=None)
    @given(
        scheme=st.sampled_from(list(SchemeTag)),
        target=st.sampled_from(list(TARGETS)),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
    )
    def test_accepted_certificates_decode_to_a_homomorphism(self, scheme, target, n, seed, edits):
        target = TARGETS[target]
        graph, ids, honest, params = planted(scheme, target, n, random.Random(seed))
        cert = mutated(honest, edits)
        result = run_all_nodes(graph, ids, cert, params)
        assert result.all_accept == all(result.decisions)
        if not edits:
            assert result.all_accept
        if not result.all_accept:
            return
        colour = colours_read(cert, params, ids)
        assert None not in colour
        assert all(target.has_edge(colour[u], colour[v]) for u, v in graph.edges)


def planted_csp(n: int, domain: int, multiplier: Fraction, rng: random.Random):
    """(instance, honest hash certificate, params) under M = n^2: the values
    come from a random family member and table, then each constraint, of
    arity 1 to 3, allows the planted tuple and up to three random ones."""
    params = CspParams(domain, IdRangePolicy.poly(2), multiplier)
    id_range, buckets = n * n, params.bucket_count(n)
    if buckets > id_range:
        reject()
    ids = random_id_assignment(n, id_range, rng.randrange(1 << 32))
    index = rng.randrange(family_size(buckets, id_range))
    table = tuple(rng.randrange(domain) for _ in range(buckets))
    value = [table[eval_hash(index, i, buckets)] for i in ids.ids]
    constraints = []
    for _ in range(rng.randrange(2 * n + 1)):
        scope = tuple(rng.sample(range(n), rng.randrange(1, min(3, n) + 1)))
        rows = {tuple(rng.randrange(domain) for _ in scope) for _ in range(rng.randrange(4))}
        constraints.append(CspConstraint(scope, frozenset(rows | {tuple(value[v] for v in scope)})))
    instance = CspInstance(n, domain, ids, tuple(constraints))
    return instance, encode_certificate(HashCertificate(n, index, table), params), params


def csp_decisions(instance, cert, params):
    return [verify_csp_variable(csp_view(instance, v, cert.payload), params) for v in range(instance.variable_count)]


class TestCspSoundnessAtScale:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 12),
        domain=st.integers(2, 3),
        multiplier=st.sampled_from([Fraction(1), Fraction(3, 2)]),
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
        forged=st.none(),
    )
    # gamma(claim) then zeros up to the length: claims whose member index
    # the payload cannot hold
    @example(n=6, domain=2, multiplier=Fraction(1), seed=0, edits=[], forged=(100_000, 100_097))
    @example(n=6, domain=2, multiplier=Fraction(1), seed=0, edits=[], forged=(40_000, 60_000))
    def test_accepted_certificates_decode_to_a_solution(self, n, domain, multiplier, seed, edits, forged):
        instance, honest, params = planted_csp(n, domain, multiplier, random.Random(seed))
        if forged is not None:
            claim, length = forged
            honest = Certificate(SchemeTag.HASH, Bits.from01(format(claim, "b").zfill(2 * claim.bit_length() - 1).ljust(length, "0")))
        cert = mutated(honest, edits)
        decisions = csp_decisions(instance, cert, params)
        if not edits and forged is None:
            assert all(decisions)
        if forged is not None:
            assert not any(decisions)
        if not all(decisions):
            return
        decoded = decode_hash_payload(cert.payload, params)
        id_range, buckets = params.id_policy.evaluate(decoded.claimed_n), len(decoded.colors)
        value = [decoded.colors[eval_hash(decoded.hash_index, i, buckets)] if i < id_range else None for i in instance.ids.ids]
        assert None not in value
        assert all(tuple(value[v] for v in ct.scope) in ct.relation for ct in instance.constraints)


UNCACHED = {SchemeTag.HASH: hash_colors, SchemeTag.IDLIST: _idlist_colors, SchemeTag.BITMAP: _bitmap_colors}


def fresh_decisions(graph, ids, cert, params):
    """Each node decoding the payload itself, with no shared lookup."""
    out = []
    for v in range(graph.vertex_count):
        view = local_view(graph, ids, v, cert.payload)
        try:
            lookup = UNCACHED[cert.scheme](cert.payload, params)
        except MalformedCertificate:
            out.append(False)
        else:
            out.append(check(lookup, view, params))
    return tuple(out)


def fresh_csp_decisions(instance, cert, params):
    """Each variable decoding the payload itself, with no shared lookup."""
    out = []
    for v in range(instance.variable_count):
        view = csp_view(instance, v, cert.payload)
        try:
            lookup = hash_colors(cert.payload, params)
        except MalformedCertificate:
            out.append(False)
        else:
            out.append(
                lookup(view.own_id) is not None
                and all(tuple(map(lookup, scope)) in relation for scope, relation in view.constraints)
            )
    return out


def partly_rejected(graph, ids, honest, params):
    """The first one-bit flip of `honest` that some node accepts and some
    node rejects."""
    for at in range(honest.payload.length):
        cert = mutated(honest, [("flip", at)])
        decisions = fresh_decisions(graph, ids, cert, params)
        if any(decisions) and not all(decisions):
            return cert
    raise AssertionError("no flip rejects at only some nodes")


class TestSharedLookup:
    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(list(SchemeTag)),
        target=st.sampled_from(list(TARGETS)),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
    )
    def test_network_decisions_match_a_fresh_decode_per_node(self, scheme, target, n, seed, edits):
        graph, ids, honest, params = planted(scheme, TARGETS[target], n, random.Random(seed))
        cert = mutated(honest, edits)
        assert run_all_nodes(graph, ids, cert, params).decisions == fresh_decisions(graph, ids, cert, params)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        domain=st.integers(2, 3),
        multiplier=st.sampled_from([Fraction(1), Fraction(3, 2)]),
        seed=st.integers(0, 2**32 - 1),
        edits=EDITS,
    )
    def test_csp_decisions_match_a_fresh_decode_per_variable(self, n, domain, multiplier, seed, edits):
        instance, honest, params = planted_csp(n, domain, multiplier, random.Random(seed))
        cert = mutated(honest, edits)
        assert csp_decisions(instance, cert, params) == fresh_csp_decisions(instance, cert, params)

    def test_one_decode_per_network(self, monkeypatch):
        calls = []
        for name in ("decode_hash_payload", "decode_idlist_payload"):
            original = getattr(schemes, name)

            def counted(payload, params, original=original):
                calls.append(payload)
                return original(payload, params)

            monkeypatch.setattr(schemes, name, counted)
        rng = random.Random(5)
        for scheme in (SchemeTag.HASH, SchemeTag.IDLIST):
            graph, ids, honest, params = planted(scheme, clique(3), 40, rng)
            for cert in (honest, mutated(honest, [("truncate", 2)])):
                shared_lookup.cache_clear()
                calls.clear()
                decisions = run_all_nodes(graph, ids, cert, params).decisions
                assert calls == [cert.payload]
                assert all(decisions) == (cert is honest)
        instance, honest, params = planted_csp(12, 3, Fraction(1), rng)
        for cert in (honest, mutated(honest, [("truncate", 2)])):
            shared_lookup.cache_clear()
            calls.clear()
            decisions = csp_decisions(instance, cert, params)
            assert calls == [cert.payload]
            assert all(decisions) == (cert is honest)
        # an equal but distinct payload and params match the entry by value
        graph, ids, cert, params = planted(SchemeTag.HASH, clique(3), 40, rng)
        shared_lookup.cache_clear()
        calls.clear()
        decisions = run_all_nodes(graph, ids, cert, params).decisions
        twin = Certificate(cert.scheme, Bits(bytearray(cert.payload.data), cert.payload.length))
        twin_params = SchemeParams(Graph.of(3, clique(3).edges), IdRangePolicy.poly(2), Fraction(1))
        assert twin.payload is not cert.payload and twin.payload == cert.payload
        assert twin_params is not params and twin_params == params
        assert run_all_nodes(graph, ids, twin, twin_params).decisions == decisions
        assert calls == [cert.payload]
        # cache_clear drops the entry
        shared_lookup.cache_clear()
        assert run_all_nodes(graph, ids, twin, twin_params).decisions == decisions
        assert calls == [cert.payload] * 2
        # a CSP network and then a graph network on the same payload: the
        # params differ, so each decodes once
        calls.clear()
        instance = graph_to_csp(graph, ids, clique(3))
        assert csp_decisions(instance, cert, CspParams(3, params.id_policy)) == list(decisions)
        assert calls == [cert.payload]
        assert run_all_nodes(graph, ids, cert, params).decisions == decisions
        assert calls == [cert.payload] * 2

    def test_no_stale_lookup_across_certificates(self):
        rng = random.Random(8)
        for scheme in SchemeTag:
            graph, ids, a, params = planted(scheme, clique(3), 30, rng)
            b = partly_rejected(graph, ids, a, params)
            for cert in (a, b, a):
                assert run_all_nodes(graph, ids, cert, params).decisions == fresh_decisions(graph, ids, cert, params)
        instance, a, params = planted_csp(12, 3, Fraction(1), rng)
        b = mutated(a, [("flip", a.payload.length - 1)])
        assert csp_decisions(instance, a, params) != csp_decisions(instance, b, params)
        for cert in (a, b, a):
            assert csp_decisions(instance, cert, params) == fresh_csp_decisions(instance, cert, params)

    def test_no_stale_lookup_across_targets(self):
        rng = random.Random(9)
        for scheme in SchemeTag:
            graph, ids, cert, k4 = planted(scheme, clique(4), 30, rng)
            k3 = SchemeParams(clique(3), k4.id_policy)
            runs = [run_all_nodes(graph, ids, cert, params).decisions for params in (k4, k3, k4)]
            assert runs == [fresh_decisions(graph, ids, cert, params) for params in (k4, k3, k4)]
            assert all(runs[0]) and not all(runs[1])

    def test_a_certificate_read_from_a_bytearray_decides_as_from_bytes(self):
        rng = random.Random(10)
        for scheme in SchemeTag:
            graph, ids, honest, params = planted(scheme, clique(3), 20, rng)
            for cert in (honest, partly_rejected(graph, ids, honest, params)):
                shared_lookup.cache_clear()
                blob = cert.to_bytes()
                from_buffer = run_all_nodes(graph, ids, Certificate.from_bytes(bytearray(blob)), params)
                assert from_buffer.decisions == run_all_nodes(graph, ids, Certificate.from_bytes(blob), params).decisions
        instance, honest, params = planted_csp(12, 3, Fraction(1), rng)
        for cert in (honest, mutated(honest, [("flip", honest.payload.length - 1)])):
            shared_lookup.cache_clear()
            blob = cert.to_bytes()
            from_buffer = csp_decisions(instance, Certificate.from_bytes(bytearray(blob)), params)
            assert from_buffer == csp_decisions(instance, Certificate.from_bytes(blob), params)


SIX = Graph.of(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
RULE_TARGETS = {"K1": clique(1), "K2": K2, "C5": cycle(5), "six": SIX}


def rule_network(scheme, target, n, isolated, outside, payload, rng):
    """(graph, ids, certificate, params) on n vertices under M = n^2, the
    last `isolated` of them without edges. Identifiers come from [0, 2M)
    when `outside`, so some may lie outside M(n). The certificate is honest
    for a random colouring, whose non-edges the graph keeps now and then;
    or it is that certificate with one vertex recoloured, truncated or
    with one bit flipped; or random bits."""
    params = SchemeParams(target, IdRangePolicy.poly(2))
    values, id_range = target.vertex_count, n * n
    ids = random_id_assignment(n, id_range * (2 if outside else 1), rng.randrange(1 << 32))
    inside = [v for v in range(n) if ids.ids[v] < id_range]
    if scheme is SchemeTag.HASH:
        index = rng.randrange(family_size(n, id_range))
        table = [rng.randrange(values) for _ in range(n)]
        slot = [eval_hash(index, i, n) for i in ids.ids]
        colour = [table[b] for b in slot]
    elif scheme is SchemeTag.IDLIST:
        colour = [rng.randrange(values) for _ in range(n)]
        # identifiers no vertex holds fill the records up to n
        spare = sorted(set(range(id_range)) - set(ids.ids))[: n - len(inside)]
        records = {**{ids.ids[v]: colour[v] for v in inside}, **{i: rng.randrange(values) for i in spare}}
    else:
        entries = [rng.randrange(values) for _ in range(id_range)]
        colour = [entries[i] if i < id_range else 0 for i in ids.ids]
    connected = n - min(isolated, n)
    edges = [
        (u, v)
        for u in range(connected)
        for v in range(u + 1, connected)
        if rng.random() < (0.4 if target.has_edge(colour[u], colour[v]) else 0.03)
    ]
    graph = Graph.of(n, edges)
    if payload == "recoloured" and inside:
        v = rng.choice(inside)
        if scheme is SchemeTag.HASH:
            table[slot[v]] = (table[slot[v]] + 1) % values
        elif scheme is SchemeTag.IDLIST:
            records[ids.ids[v]] = (records[ids.ids[v]] + 1) % values
        else:
            entries[ids.ids[v]] = (entries[ids.ids[v]] + 1) % values
    if scheme is SchemeTag.HASH:
        decoded = HashCertificate(n, index, tuple(table))
    elif scheme is SchemeTag.IDLIST:
        decoded = IdListCertificate(tuple(sorted(records.items())))
    else:
        decoded = BitmapCertificate(tuple(entries))
    cert = encode_certificate(decoded, params)
    length = cert.payload.length
    if payload == "truncated":
        cert = mutated(cert, [("truncate", rng.randrange(16))])
    elif payload == "flipped":
        cert = mutated(cert, [("flip", rng.randrange(1 << 16))])
    elif payload == "random":
        cert = Certificate(scheme, Bits.from01("".join(rng.choice("01") for _ in range(rng.randrange(length + 17)))))
    return graph, ids, cert, params


def rule_colour(decoded, params, identifier):
    """The colour that README's rule gives `identifier` in a decoded
    certificate, or None."""
    if isinstance(decoded, HashCertificate):
        if identifier >= params.id_policy.evaluate(decoded.claimed_n):
            return None
        return decoded.colors[eval_hash(decoded.hash_index, identifier, len(decoded.colors))]
    if isinstance(decoded, IdListCertificate):
        listed = [i for i, _ in decoded.records]
        if any(a >= b for a, b in zip(listed, listed[1:])):
            return None
        return dict(decoded.records).get(identifier)
    if params.target.vertex_count == 1:
        return 0
    return decoded.colors[identifier] if identifier < len(decoded.colors) else None


def rule_decision(graph, ids, v, cert, params):
    """Node v's decision by README's rule, decoding the certificate itself:
    a payload that does not decode rejects; otherwise the node accepts iff
    its own identifier and every neighbour's have a colour and every
    incident colour pair is a target edge."""
    try:
        decoded = decode_certificate(cert, params)
    except MalformedCertificate:
        return False
    own = rule_colour(decoded, params, ids.ids[v])
    others = [rule_colour(decoded, params, ids.ids[u]) for edge in graph.edges if v in edge for u in edge if u != v]
    return own is not None and None not in others and all(params.target.has_edge(own, c) for c in others)


class TestDecisionsFollowTheRule:
    @settings(max_examples=300, deadline=None)
    @given(
        scheme=st.sampled_from(list(SchemeTag)),
        target=st.sampled_from(list(RULE_TARGETS)),
        n=st.integers(1, 12),
        isolated=st.integers(0, 3),
        outside=st.booleans(),
        payload=st.sampled_from(["honest", "recoloured", "truncated", "flipped", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_network_decisions_equal_a_fresh_decision_per_node(self, scheme, target, n, isolated, outside, payload, seed):
        graph, ids, cert, params = rule_network(scheme, RULE_TARGETS[target], n, isolated, outside, payload, random.Random(seed))
        expected = tuple(rule_decision(graph, ids, v, cert, params) for v in range(n))
        assert run_all_nodes(graph, ids, cert, params).decisions == expected


class TestProbeStatistics:
    def test_probes_follow_the_expected_search_cost(self):
        # a member is perfect on n identifiers in k = ceil(lambda n) buckets
        # with chance k!/((k-n)! k^n), so the scan's expected cost is its
        # inverse (about e^k / sqrt(2 pi k) at lambda = 1); candidate
        # indices probed stay under 20 times that in at least 99% of
        # seeded runs
        policy = IdRangePolicy.poly(4)
        for multiplier in (Fraction(1), Fraction(3, 2), Fraction(2)):
            params = SchemeParams(target=K2, id_policy=policy, range_multiplier=multiplier)
            for n in (4, 6, 8):
                k = params.bucket_count(n)
                bound = 20 * k**n * math.factorial(k - n) / math.factorial(k)
                over = 0
                runs = 100
                for seed in range(runs):
                    g = random_h_colorable_graph(n, K2, 0.5, seed)
                    ids = random_id_assignment(n, policy.evaluate(n), seed + 1000)
                    _, result = prove_and_run(g, ids, SchemeTag.HASH, params)
                    if result.prover_probes >= bound:
                        over += 1
                assert over <= runs // 100, (multiplier, n)


class TestBench:
    def test_reference_sizes(self):
        specs = [BenchSpec(12, K2, IdRangePolicy.poly(4))]
        rows = bench_sizes(specs, list(SchemeTag), seed=0)
        by_scheme = {row.scheme: row for row in rows}
        assert by_scheme["hash"].size_bits == 44
        assert by_scheme["idlist"].size_bits == 199
        assert by_scheme["bitmap"].size_bits == 20736
        assert all(row.status == "ok" for row in rows)
        assert by_scheme["idlist"].prover_probes == 0

    def test_loglog_regime(self):
        specs = [
            BenchSpec(8, K2, IdRangePolicy.fixed(1 << 64)),
            BenchSpec(8, K2, IdRangePolicy.fixed(1 << 128)),
        ]
        rows = bench_sizes(specs, [SchemeTag.HASH, SchemeTag.IDLIST], seed=1)
        hash_rows = [r for r in rows if r.scheme == "hash"]
        list_rows = [r for r in rows if r.scheme == "idlist"]
        assert hash_rows[1].size_bits - hash_rows[0].size_bits == 1
        assert list_rows[1].size_bits - list_rows[0].size_bits == 512

    def test_single_vertex_row(self):
        lonely = clique(1)
        specs = [BenchSpec(1, lonely, IdRangePolicy.fixed(2), density=0.0)]
        rows = bench_sizes(specs, [SchemeTag.HASH], seed=0)
        # gamma(1) + 2-bit index into the size-3 family + zero-width entry
        assert rows[0].size_bits == 3
        assert rows[0].status == "ok"

    def test_prover_error_becomes_status(self):
        specs = [BenchSpec(8, K2, IdRangePolicy.doubly_exponential())]
        rows = bench_sizes(specs, [SchemeTag.BITMAP], seed=0)
        assert rows[0].status == "BitmapTooLarge"
        assert rows[0].size_bits is None

    def test_monotone_separation(self):
        specs = [BenchSpec(n, K2, IdRangePolicy.poly(4)) for n in (4, 6, 8, 10, 12)]
        rows = bench_sizes(specs, list(SchemeTag), seed=3)
        for n in (4, 6, 8, 10, 12):
            sizes = {r.scheme: r.size_bits for r in rows if r.n == n}
            assert sizes["hash"] < sizes["idlist"] < sizes["bitmap"]

    def test_csv_shape_and_determinism(self):
        specs = default_bench_specs()[:3]
        a = rows_to_csv(bench_sizes(specs, [SchemeTag.HASH, SchemeTag.IDLIST], seed=9))
        b = rows_to_csv(bench_sizes(specs, [SchemeTag.HASH, SchemeTag.IDLIST], seed=9))
        lines_a, lines_b = a.strip().splitlines(), b.strip().splitlines()
        assert lines_a[0] == CSV_HEADER
        assert len(lines_a) == 1 + 2 * len(specs)
        # identical modulo the machine-dependent wall-clock column
        strip = lambda line: line.rsplit(",", 1)[0]
        assert [strip(l) for l in lines_a] == [strip(l) for l in lines_b]
