import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import globalcert.graphs as graphs
from globalcert import (
    BUILTIN_TARGETS,
    Bits,
    Certificate,
    CertificationError,
    CspConstraint,
    CspInstance,
    Graph,
    IdAssignment,
    IdRangePolicy,
    InvalidEdge,
    InvalidId,
    InvalidParams,
    MalformedCertificate,
    ParseError,
    SchemeParams,
    SchemeTag,
    clique,
    cycle,
    decode_certificate,
    exists_homomorphism,
    local_view,
    parse_csp,
    parse_graph,
    random_h_colorable_graph,
    random_id_assignment,
    serialize_csp,
    serialize_graph,
)


def with_comment_lines(text: str, rng: random.Random) -> str:
    """`text` with blank, whitespace-only and `#` lines inserted, and some
    lines indented or given trailing whitespace."""
    out = []
    for line in text.splitlines():
        while rng.random() < 0.3:
            out.append(rng.choice(["", "   ", "#", "# note", "  # x 1 2"]))
        out.append(rng.choice(["", "  ", "\t"]) + line + rng.choice(["", " ", "\t"]))
    return "\n".join(out) + rng.choice(["", "\n", "\n# end\n"])


def scalar_planted_graph(n: int, target: Graph, density: float, seed: int, draws=None) -> Graph:
    """The generator's pair loop, one `rng.random()` per candidate pair, as
    the oracle of the numpy generator; each candidate's (u, v, draw) is
    appended to `draws` when a list is given."""
    rng = random.Random(seed)
    phi = [rng.randrange(target.vertex_count) for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if target.has_edge(phi[u], phi[v]):
                draw = rng.random()
                if draws is not None:
                    draws.append((u, v, draw))
                if draw < density:
                    edges.append((u, v))
    return Graph.of(n, edges)


def assert_same_graph(graph: Graph, expected: Graph) -> None:
    """Equal, and equal down to the frozenset's iteration order."""
    assert graph == expected
    assert list(graph.edges) == list(expected.edges)


@st.composite
def planted_calls(draw):
    """(n, target, density, seed) for the generator: K1 at density 0, K2,
    K3, C5 or a random 2-8 vertex graph, densities including 0 and 1, and
    seeds including negative ones and ones above 2^64."""
    n = draw(st.integers(1, 300))
    target = draw(st.sampled_from(["K1", "K2", "K3", "C5", "random"]))
    if target == "random":
        k = draw(st.integers(2, 8))
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        graph = Graph.of(k, draw(st.lists(st.sampled_from(pairs), unique=True)))
    else:
        graph = Graph.of(1) if target == "K1" else BUILTIN_TARGETS[target]
    density = 0 if not graph.edges else draw(st.one_of(
        st.sampled_from([0, 0.0, 1, 1.0, 1e-9, 0.999999]),
        st.floats(0, 1),
    ))
    seed = draw(st.one_of(
        st.sampled_from([0, 1, -1, 2**32 - 1, 2**64, 2**64 + 1]),
        st.integers(-(2**80), 2**80),
    ))
    return n, graph, density, seed


def random_csp(rng: random.Random) -> CspInstance:
    n = rng.randrange(1, 7)
    domain = rng.randrange(1, 4)
    ids = random_id_assignment(n, rng.choice([n, n + 3, 2**20]), rng.randrange(10**6))
    constraints = []
    for _ in range(rng.randrange(5)):
        scope = tuple(rng.sample(range(n), rng.randrange(1, min(3, n) + 1)))
        rows = {tuple(rng.randrange(domain) for _ in scope) for _ in range(rng.randrange(5))}
        constraints.append(CspConstraint(scope, frozenset(rows)))
    return CspInstance(n, domain, ids, tuple(constraints))


# (parser, text with one fault, the exact exception type it raises)
SINGLE_FAULTS = [
    pytest.param(parse_graph, "", ParseError, id="graph-empty"),
    pytest.param(parse_graph, "id 0 1", ParseError, id="graph-no-header"),
    pytest.param(parse_graph, "# c\ne 0 1\ng 2 4\nid 0 0\nid 1 1", ParseError, id="graph-header-not-first"),
    pytest.param(parse_graph, "g 2 4 1\nid 0 0\nid 1 1", ParseError, id="graph-header-fields"),
    pytest.param(parse_graph, "g 2 4\nid 0 0\nid 1 1\ng 2 4", ParseError, id="graph-second-header"),
    pytest.param(parse_graph, "g 0 4", ParseError, id="graph-no-vertex"),
    pytest.param(parse_graph, "g 2 4\nid 0 0", ParseError, id="graph-id-missing"),
    pytest.param(parse_graph, "g 2 4\nid 0 0\nid 0 1", ParseError, id="graph-vertex-twice"),
    pytest.param(parse_graph, "g 2 4\nid 0 0\nid 2 1", ParseError, id="graph-vertex-out-of-range"),
    pytest.param(parse_graph, "g 2 4\nid 0 0\nid 1 x", ParseError, id="graph-not-an-integer"),
    pytest.param(parse_graph, "g 2 4\nid 0 0\nid 1 1\ne 0", ParseError, id="graph-edge-fields"),
    pytest.param(parse_graph, "g 2 4\nid 0 0\nid 1 1\nzz 0 1", ParseError, id="graph-unknown-record"),
    pytest.param(parse_graph, "g 2 0\nid 0 0\nid 1 1", InvalidId, id="graph-range-zero"),
    pytest.param(parse_graph, f"g 1 {2**128 + 1}\nid 0 0", InvalidId, id="graph-range-above-2^128"),
    pytest.param(parse_graph, "g 2 4\nid 0 0\nid 1 0", InvalidId, id="graph-duplicate-identifier"),
    pytest.param(parse_csp, "", ParseError, id="csp-empty"),
    pytest.param(parse_csp, "g 1 4\nid 0 0", ParseError, id="csp-graph-header"),
    pytest.param(parse_csp, "csp 1 2\nid 0 0", ParseError, id="csp-header-fields"),
    pytest.param(parse_csp, "csp 1 2 4\nid 0 0\nct 2 0 1", ParseError, id="csp-ct-fields"),
    pytest.param(parse_csp, "csp 1 2 4\nid 0 0\nct", ParseError, id="csp-bare-ct"),
    pytest.param(parse_csp, "csp 2 2 4\nid 0 0\nid 0 1", ParseError, id="csp-variable-twice"),
    pytest.param(parse_csp, "csp 2 2 4\nid 0 0", ParseError, id="csp-id-missing"),
    pytest.param(parse_csp, "csp 1 2 4\nid 0 0\nct 1 0 2\n0", ParseError, id="csp-rows-missing"),
    pytest.param(parse_csp, "csp 1 2 4\nid 0 0\nct 1 0 1\n0 1", ParseError, id="csp-row-arity"),
    pytest.param(parse_csp, "csp 1 2 4\nid 0 0\nct 1 0 1\n0\n1", ParseError, id="csp-extra-row"),
    pytest.param(parse_csp, "csp 2 2 4\nid 0 0\nid 1 1\nct 2 0 1 -3", ParseError, id="csp-negative-row-count"),
    pytest.param(parse_csp, "csp 0 2 4", InvalidParams, id="csp-no-variable"),
    pytest.param(parse_csp, "csp 1 0 4\nid 0 0", InvalidParams, id="csp-empty-domain"),
    pytest.param(parse_csp, "csp 1 2 4\nid 0 0\nct 0 0", InvalidParams, id="csp-empty-scope"),
    pytest.param(parse_csp, "csp 2 2 4\nid 0 0\nid 1 1\nct 2 0 0 0", InvalidParams, id="csp-scope-repeats"),
    pytest.param(parse_csp, "csp 2 2 4\nid 0 0\nid 1 1\nct 2 0 2 0", InvalidParams, id="csp-scope-out-of-range"),
    pytest.param(parse_csp, "csp 1 2 4\nid 0 0\nct 1 0 1\n2", InvalidParams, id="csp-value-outside-domain"),
    pytest.param(parse_csp, "csp 3 2 2\nid 0 0\nid 1 1\nid 2 2", InvalidId, id="csp-range-below-count"),
    pytest.param(parse_csp, "csp 1 2 4\nid 0 4", InvalidId, id="csp-identifier-out-of-range"),
    pytest.param(parse_csp, "csp 2 2 4\nid 0 1\nid 1 1", InvalidId, id="csp-duplicate-identifier"),
]


class TestParsing:
    def test_basic_file(self):
        graph, ids = parse_graph("g 2 8\nid 0 5\nid 1 3\ne 0 1")
        assert graph.vertex_count == 2
        assert graph.edges == frozenset({(0, 1)})
        assert ids.ids == (5, 3)
        assert ids.id_range == 8

    def test_duplicate_identifier_rejected(self):
        with pytest.raises(InvalidId):
            parse_graph("g 2 8\nid 0 5\nid 1 5\ne 0 1")

    def test_identifier_out_of_range_rejected(self):
        with pytest.raises(InvalidId):
            parse_graph("g 1 4\nid 0 9")

    def test_range_below_vertex_count_rejected(self):
        with pytest.raises(InvalidId):
            parse_graph("g 3 2\nid 0 0\nid 1 1\nid 2 2")

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdge):
            parse_graph("g 2 4\nid 0 0\nid 1 1\ne 1 1")

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(InvalidEdge):
            parse_graph("g 2 4\nid 0 0\nid 1 1\ne 0 5")

    def test_comments_and_blank_lines(self):
        text = "# hello\n\ng 2 4\n# ids\nid 0 2\nid 1 3\n\ne 0 1\n"
        graph, ids = parse_graph(text)
        assert graph.edges == frozenset({(0, 1)})

    def test_round_trip_randomized(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(1, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            graph = Graph.of(n, edges)
            id_range = rng.choice([n, n + 3, 2**20, 2**128])
            ids = random_id_assignment(n, id_range, rng.randrange(10**6))
            text = serialize_graph(graph, ids)
            assert parse_graph(text) == (graph, ids)
            assert parse_graph(with_comment_lines(text, rng)) == (graph, ids)
            instance = random_csp(rng)
            text = serialize_csp(instance)
            assert parse_csp(text) == instance
            assert parse_csp(with_comment_lines(text, rng)) == instance

    @pytest.mark.parametrize("parse, text, error", SINGLE_FAULTS)
    def test_single_fault_input_raises_its_type(self, parse, text, error):
        with pytest.raises(error) as raised:
            parse(text)
        assert type(raised.value) is error

    @settings(max_examples=300, deadline=None)
    @given(
        parse=st.sampled_from([parse_graph, parse_csp]),
        head=st.sampled_from(["", "g 2 9\n", "csp 2 2 9\n"]),
        lines=st.lists(st.lists(st.sampled_from("g id e csp ct # 0 1 -1 9 x".split()), max_size=5), max_size=10),
    )
    def test_token_soup_parses_or_raises_a_certification_error(self, parse, head, lines):
        try:
            parse(head + "\n".join(" ".join(line) for line in lines))
        except CertificationError:
            pass


class TestGraphInvariants:
    def test_no_self_loops(self):
        with pytest.raises(InvalidEdge):
            Graph.of(2, [(0, 0)])

    def test_unordered_and_deduplicated(self):
        g = Graph.of(3, [(1, 0), (0, 1)])
        assert g.edges == frozenset({(0, 1)})
        assert g.neighbors(0) == frozenset({1})
        assert g.neighbors(2) == frozenset()

    def test_endpoint_bounds(self):
        with pytest.raises(InvalidEdge):
            Graph.of(2, [(0, 2)])

    def test_ids_injective(self):
        with pytest.raises(InvalidId):
            IdAssignment((1, 1), 4)
        with pytest.raises(InvalidId):
            IdAssignment((4,), 4)


class TestLocalView:
    def test_path_endpoint(self):
        g = Graph.of(2, [(0, 1)])
        ids = IdAssignment((5, 3), 8)
        cert = Bits.from01("10")
        view = local_view(g, ids, 0, cert)
        assert view.own_id == 5
        assert view.neighbor_ids == frozenset({3})
        assert view.certificate == cert

    def test_isolated_vertex(self):
        g = Graph.of(1)
        view = local_view(g, IdAssignment((7,), 8), 0, Bits.empty())
        assert view.own_id == 7
        assert view.neighbor_ids == frozenset()

    def test_triangle(self):
        tri = clique(3)
        ids = IdAssignment((2, 4, 6), 8)
        view = local_view(tri, ids, 1, Bits.empty())
        assert view.own_id == 4
        assert view.neighbor_ids == frozenset({2, 6})

    def test_view_depends_only_on_the_triple(self):
        # different graphs inducing the same (own, neighbors, certificate)
        # triple produce equal views
        cert = Bits.from01("0101")
        star = Graph.of(4, [(0, 1), (0, 2), (0, 3)])
        path = Graph.of(5, [(1, 0), (0, 2), (3, 4)])
        ids_star = IdAssignment((9, 4, 11, 30), 32)
        ids_path = IdAssignment((9, 4, 11, 17, 23), 32)
        v1 = local_view(star, ids_star, 0, cert)
        g2 = Graph.of(5, [(1, 0), (0, 2)])
        # vertex 0 sees {4, 11} in both graphs below
        v2 = local_view(g2, ids_path, 0, cert)
        assert v1 != v2  # star has a third neighbor
        v3 = local_view(path, ids_path, 0, cert)
        assert v2 == v3

    def test_vertex_bound_checked(self):
        g = Graph.of(1)
        with pytest.raises(InvalidParams):
            local_view(g, IdAssignment((0,), 1), 1, Bits.empty())


class TestGenerator:
    def test_density_one_is_complete_between_classes(self, k2):
        g = random_h_colorable_graph(6, k2, 1.0, seed=5)
        # recover the class split from the construction's own rng
        rng = random.Random(5)
        phi = [rng.randrange(2) for _ in range(6)]
        expected = {
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if phi[u] != phi[v]
        }
        assert g.edges == frozenset(expected)

    def test_density_zero_is_edgeless(self, k2):
        assert random_h_colorable_graph(5, k2, 0.0, seed=1).edges == frozenset()

    def test_outputs_are_target_colorable(self, k2, k3):
        for seed in range(20):
            for target in (k2, k3):
                g = random_h_colorable_graph(10, target, 0.5, seed)
                assert exists_homomorphism(g, target)

    def test_deterministic_in_seed(self, k3):
        a = random_h_colorable_graph(9, k3, 0.5, seed=42)
        b = random_h_colorable_graph(9, k3, 0.5, seed=42)
        assert a == b

    def test_bad_density_rejected(self, k2):
        with pytest.raises(InvalidParams):
            random_h_colorable_graph(4, k2, 1.5, seed=0)

    def test_edgeless_target_needs_density_zero(self):
        lonely = Graph.of(1)
        with pytest.raises(InvalidParams):
            random_h_colorable_graph(4, lonely, 0.5, seed=0)
        assert random_h_colorable_graph(4, lonely, 0.0, seed=0).edges == frozenset()

    @settings(max_examples=150, deadline=None)
    @given(planted_calls())
    def test_equals_the_scalar_loop(self, call):
        assert_same_graph(random_h_colorable_graph(*call), scalar_planted_graph(*call))

    def test_a_density_equal_to_a_draw_excludes_its_pair(self, k3):
        # random() < density is strict: the pair whose draw equals the
        # density is left out, and kept at the next float above it, which
        # for a draw below 1/2 lies within one 2^-53 step of it
        draws = []
        scalar_planted_graph(40, k3, 0.5, 7, draws)
        u, v, draw = next(d for d in draws[len(draws) // 2 :] if 0 < d[2] < 0.5)
        for density, kept in ((draw, False), (math.nextafter(draw, 1), True)):
            graph = random_h_colorable_graph(40, k3, density, 7)
            assert_same_graph(graph, scalar_planted_graph(40, k3, density, 7))
            assert ((u, v) in graph.edges) is kept

    @pytest.mark.parametrize("cells", [1, 7, 64, 1000, None])
    def test_chunk_boundaries_change_nothing(self, c5, cells, monkeypatch):
        # None keeps the module's chunk size, which at n = 600 still splits
        # the rows into more than one chunk
        n = 600 if cells is None else 90
        if cells is not None:
            monkeypatch.setattr(graphs, "_CHUNK_CELLS", cells)
        assert graphs._CHUNK_CELLS // n < n - 1
        for density in (0.05, 1.0):
            assert_same_graph(random_h_colorable_graph(n, c5, density, 3), scalar_planted_graph(n, c5, density, 3))

    def test_a_target_of_many_vertices(self):
        # pair codes take memory in the target's edges, not in its k^2
        # pairs; at seeds 21 and 44 two of the 50 images are adjacent
        path = Graph.of(10**5, [(v, v + 1) for v in range(10**5 - 1)])
        for seed in (0, 21, 44):
            expected = scalar_planted_graph(50, path, 1.0, seed)
            assert bool(expected.edges) is (seed > 0)
            assert_same_graph(random_h_colorable_graph(50, path, 1.0, seed), expected)

    def test_caps_refuse_before_anything_is_drawn(self, k2, monkeypatch):
        # n = 10 at density 0.5: 45 vertex pairs, 22.5 expected edges
        expected = random_h_colorable_graph(10, k2, 0.5, 1)
        for name, allowed, refused in (("MAX_GENERATED_PAIRS", 45, 44), ("MAX_EXPECTED_EDGES", 23, 22)):
            with monkeypatch.context() as patch:
                patch.setattr(graphs, name, allowed)
                assert_same_graph(random_h_colorable_graph(10, k2, 0.5, 1), expected)
                patch.setattr(graphs, name, refused)
                patch.setattr(graphs, "random", None)
                with pytest.raises(InvalidParams, match="above the cap"):
                    random_h_colorable_graph(10, k2, 0.5, 1)

    def test_default_caps(self, k2, monkeypatch):
        monkeypatch.setattr(graphs, "random", None)
        with pytest.raises(InvalidParams, match="vertex pairs"):
            random_h_colorable_graph(10**5, k2, 0.0, 0)
        with pytest.raises(InvalidParams, match="expected edges"):
            random_h_colorable_graph(10**4, k2, 0.6, 0)


class TestIdRangePolicy:
    def test_fixed(self):
        p = IdRangePolicy.fixed(8)
        assert p.evaluate(3) == 8
        with pytest.raises(InvalidParams):
            p.evaluate(9)  # M < n

    def test_poly(self):
        p = IdRangePolicy.poly(4)
        assert p.evaluate(12) == 20736
        assert p.evaluate(1) == 1
        with pytest.raises(InvalidParams):
            IdRangePolicy.poly(0)

    def test_poly_refuses_a_power_past_2_128_before_taking_it(self):
        p = IdRangePolicy.parse("poly:10000000")
        assert p.evaluate(1) == 1
        started = time.perf_counter()
        with pytest.raises(InvalidParams):
            p.evaluate(6)  # 6^(10^7) has 26 million bits
        assert time.perf_counter() - started < 1.0
        assert IdRangePolicy.poly(128).evaluate(2) == 2**128
        with pytest.raises(InvalidParams):
            IdRangePolicy.poly(128).evaluate(3)

    def test_doubly_exponential(self):
        p = IdRangePolicy.doubly_exponential()
        assert p.evaluate(1) == 4
        assert p.evaluate(3) == 256
        assert p.evaluate(5) == 2**32
        assert p.evaluate(7) == 2**128
        assert p.evaluate(40) == 2**128  # capped

    def test_parse_describe_round_trip(self):
        for text in ("fixed:8", "poly:4", "doubexp"):
            assert IdRangePolicy.parse(text).describe() == text
        with pytest.raises(InvalidParams):
            IdRangePolicy.parse("linear:2")

    def test_fixed_range_bounds(self):
        with pytest.raises(InvalidParams):
            IdRangePolicy.fixed(0)
        with pytest.raises(InvalidParams):
            IdRangePolicy.fixed(2**128 + 1)


POLICIES = [
    *(IdRangePolicy.fixed(m) for m in (1, 7, 2**100, 2**128)),
    *(IdRangePolicy.poly(c) for c in (1, 2, 3, 4, 64, 128, 129)),
    IdRangePolicy.doubly_exponential(),
]


def _cap_window(policy):
    """The n around the last n the policy defines below the 2^128 cap."""
    top = 2**128
    if policy.kind == "poly":
        top = round(2 ** (128 / policy.param))
        while (top + 1) ** policy.param <= 2**128:
            top += 1
        while top**policy.param > 2**128:
            top -= 1
    return range(max(1, top - 3), top + 4)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
def test_policy_is_non_decreasing_at_least_n_and_refuses_every_larger_n(policy):
    # the three properties the bitmap length rule and the audits rely on
    last = None
    for n in sorted({*range(1, 3001), *_cap_window(policy)}):
        try:
            m = policy.evaluate(n)
        except InvalidParams:
            m = "refused"
        if last == "refused":
            assert m == "refused", n
        elif m != "refused":
            assert m >= n, n
            assert last is None or m >= last, n
        last = m


def _payload(bits: str) -> Bits:
    padded = bits + "0" * (-len(bits) % 8)
    return Bits(int(padded or "0", 2).to_bytes(len(padded) // 8, "big"), len(bits))


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
def test_bitmap_length_rule_matches_a_rule_built_from_the_values_of_m(policy):
    """A payload decodes iff some M(n) * width, tried largest first, is all
    of it or, for whole bytes, all but at most 7 zero bits; its colors are
    then the M(n) entries of that content."""
    cap = 1 << 13
    values = set()
    for n in range(1, cap + 10):  # M(n) >= n: every value a length can hold
        try:
            values.add(policy.evaluate(n))
        except InvalidParams:
            pass
    rng = random.Random(policy.describe())
    for target in (clique(2), clique(3), cycle(5)):
        params = SchemeParams(target, policy)
        width = params.value_width
        sizes = {m * width for m in values}
        lengths = set(range(601))
        larger = sorted(size for size in sizes if 600 < size <= cap)
        for size in larger[:4] + larger[-2:]:
            lengths.update(range(size - 9, size + 10))
        for length in sorted(lengths):
            tails = [length] + ([length - 1, rng.randrange(max(0, length - 9), length)] if length else [])
            for at in tails:  # the set bit's position; none at `length`
                bits = "0" * at + "1" * (at < length) + "0" * (length - at - 1)
                window = range(length - 7, length + 1) if length % 8 == 0 else [length]
                expected = None
                for content in sorted(sizes.intersection(window), reverse=True):
                    if "1" not in bits[content:]:
                        colors = tuple(int(bits[i : i + width], 2) for i in range(0, content, width))
                        expected = colors if max(colors) < target.vertex_count else None
                        break
                cert = Certificate(SchemeTag.BITMAP, _payload(bits))
                if expected is None:
                    with pytest.raises(MalformedCertificate):
                        decode_certificate(cert, params)
                else:
                    assert decode_certificate(cert, params).colors == expected, (target, length, at)


class TestRandomIds:
    def test_injective_and_in_range(self):
        for id_range in (5, 64, 2**128):
            ids = random_id_assignment(5, id_range, seed=3)
            assert len(set(ids.ids)) == 5
            assert all(i < id_range for i in ids.ids)

    def test_deterministic(self):
        assert random_id_assignment(6, 100, 9) == random_id_assignment(6, 100, 9)

    def test_range_too_small(self):
        with pytest.raises(InvalidId):
            random_id_assignment(5, 4, seed=0)
