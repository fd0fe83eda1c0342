"""Graphs, identifier assignments, and the strictly local view of a node.

Vertices are indexed 0..n-1 internally; verification code never sees the
indices, only identifiers, so everything a node learns flows through
:class:`LocalView`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .bits import Bits
from .errors import InvalidEdge, InvalidId, InvalidParams, ParseError

MAX_ID_RANGE = 1 << 128


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise InvalidParams("graph needs at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise InvalidEdge(f"self-loop at {u}")
            if not (0 <= u < v < self.vertex_count):
                raise InvalidEdge(f"bad edge ({u}, {v})")

    @classmethod
    def of(cls, vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """Build a graph, normalizing each pair to (min, max) and deduplicating."""
        # a set first: a frozenset copied from it takes its table size, one
        # grown from a generator can take twice the memory
        return cls(vertex_count, frozenset({(u, v) if u < v else (v, u) for u, v in edges}))

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        sets: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            sets[u].add(v)
            sets[v].add(u)
        return tuple(frozenset(s) for s in sets)


# The homomorphism target is an ordinary graph; the alias marks intent.
TargetGraph = Graph


def clique(k: int) -> Graph:
    return Graph.of(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def cycle(k: int) -> Graph:
    if k < 3:
        raise InvalidParams("cycle needs at least 3 vertices")
    return Graph.of(k, [(i, (i + 1) % k) for i in range(k)])


BUILTIN_TARGETS = {
    "K2": clique(2),
    "K3": clique(3),
    "C5": cycle(5),
}


@dataclass(frozen=True)
class IdAssignment:
    """Injective identifiers, one per vertex, drawn from {0, ..., id_range-1}."""

    ids: tuple[int, ...]
    id_range: int

    def __post_init__(self):
        if not 1 <= self.id_range <= MAX_ID_RANGE:
            raise InvalidId(f"id range {self.id_range} outside [1, 2^128]")
        for i in self.ids:
            if not 0 <= i < self.id_range:
                raise InvalidId(f"identifier {i} outside range {self.id_range}")
        if len(set(self.ids)) != len(self.ids):
            raise InvalidId("duplicate identifier")

    def id_of(self, vertex: int) -> int:
        return self.ids[vertex]

    def id_set(self) -> frozenset[int]:
        return frozenset(self.ids)


@dataclass(frozen=True)
class LocalView:
    """Everything a node may use to verify: its own identifier, the set of
    its neighbors' identifiers, and the shared certificate. Nothing else."""

    own_id: int
    neighbor_ids: frozenset[int]
    certificate: Bits

    def __post_init__(self):
        if self.own_id in self.neighbor_ids:
            raise InvalidParams("own id listed among neighbors")


def local_view(graph: Graph, ids: IdAssignment, vertex: int, certificate: Bits) -> LocalView:
    """Assemble the view of `vertex` under `ids` with the given certificate."""
    if not 0 <= vertex < graph.vertex_count:
        raise InvalidParams(f"vertex {vertex} out of range")
    if len(ids.ids) != graph.vertex_count:
        raise InvalidParams("id assignment does not cover the graph")
    return LocalView(
        own_id=ids.ids[vertex],
        neighbor_ids=frozenset(map(ids.ids.__getitem__, graph.neighbors(vertex))),
        certificate=certificate,
    )


@dataclass(frozen=True)
class IdRangePolicy:
    """Identifier range M as a fixed function of n, shared by prover and
    verifier as part of the scheme's framework.

    kind is one of:
      fixed    -- M(n) = param for every n
      poly     -- M(n) = n ** param (integer exponent >= 1)
      doubexp  -- M(n) = min(2 ** 2 ** n, 2 ** 128)

    `evaluate` is the one definition of M, and every kind gives it three
    properties that the bitmap decoder and the audits rely on: M is
    non-decreasing, M(n) >= n, and a policy that refuses n (M(n) past
    2^128 or below n) refuses every larger n.
    """

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind == "fixed":
            if not 1 <= self.param <= MAX_ID_RANGE:
                raise InvalidParams("fixed id range outside [1, 2^128]")
        elif self.kind == "poly":
            if self.param < 1:
                raise InvalidParams("poly exponent must be >= 1 so M(n) >= n")
        elif self.kind == "doubexp":
            pass
        else:
            raise InvalidParams(f"unknown policy kind {self.kind!r}")

    def evaluate(self, n: int) -> int:
        if n < 1:
            raise InvalidParams("n must be positive")
        if self.kind == "fixed":
            m = self.param
        elif self.kind == "poly":
            # n^param >= 2^(floor(log2 n) * param): refuse a power past 2^128
            # before taking it, so a large exponent costs nothing
            if n > 1 and (n.bit_length() - 1) * self.param > 128:
                raise InvalidParams(f"M(n) = {n}^{self.param} exceeds 2^128")
            m = n**self.param
            if m > MAX_ID_RANGE:
                raise InvalidParams(f"M(n) = {n}^{self.param} exceeds 2^128")
        else:
            m = 1 << min(1 << n, 128) if n < 8 else MAX_ID_RANGE
        if m < n:
            raise InvalidParams(f"policy yields M = {m} < n = {n}")
        return m

    def describe(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.param}"
        if self.kind == "poly":
            return f"poly:{self.param}"
        return "doubexp"

    @classmethod
    def parse(cls, text: str) -> "IdRangePolicy":
        if text == "doubexp":
            return cls("doubexp")
        for prefix in ("fixed", "poly"):
            if text.startswith(prefix + ":"):
                try:
                    return cls(prefix, int(text[len(prefix) + 1 :]))
                except ValueError:
                    raise InvalidParams(f"bad policy parameter in {text!r}") from None
        raise InvalidParams(f"cannot parse id-range policy {text!r}")

    @classmethod
    def fixed(cls, m: int) -> "IdRangePolicy":
        return cls("fixed", m)

    @classmethod
    def poly(cls, c: int) -> "IdRangePolicy":
        return cls("poly", c)

    @classmethod
    def doubly_exponential(cls) -> "IdRangePolicy":
        return cls("doubexp")


def _records(text: str):
    """(line number, fields) of every line that is neither blank nor a `#`
    comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def _integers(lineno: int, fields: list[str], count: int, form: str) -> list[int]:
    """`fields` as integers, checked to number `count`; `form` is the
    record's fixed form, named in the error."""
    if len(fields) != count:
        raise ParseError(f"line {lineno}: expected '{form}'")
    try:
        return [int(field) for field in fields]
    except ValueError:
        raise ParseError(f"line {lineno}: not an integer") from None


def read_instance(text: str, header: str, readers: dict) -> tuple[list[int], IdAssignment]:
    """The one reader of the graph and CSP formats; it checks syntax only.

    The first record has the fixed form `header`, a keyword and integers,
    the first of them the count n and the last the identifier range M. The
    records after it come in any order: one `id <vertex> <identifier>` for
    each vertex 0..n-1, and records whose keyword `readers` maps to a
    function called as `read(lineno, fields, records)`, where `records`
    yields the (line number, fields) of the records that follow. Returns
    the header's integers and the identifiers.
    """
    records = _records(text)
    form = header.split()
    first = next(records, None)
    if first is None:
        raise ParseError(f"empty file: expected a '{header}' header")
    if first[1][0] != form[0]:
        raise ParseError(f"line {first[0]}: expected a '{header}' header first")
    values = _integers(first[0], first[1][1:], len(form) - 1, header)
    count = values[0]
    ids: dict[int, int] = {}
    for lineno, fields in records:
        if fields[0] == "id":
            vertex, identifier = _integers(lineno, fields[1:], 2, "id <vertex> <identifier>")
            if not 0 <= vertex < count:
                raise ParseError(f"line {lineno}: vertex {vertex} out of range")
            if vertex in ids:
                raise ParseError(f"line {lineno}: vertex {vertex} assigned twice")
            ids[vertex] = identifier
        elif fields[0] in readers:
            readers[fields[0]](lineno, fields, records)
        else:
            raise ParseError(f"line {lineno}: unexpected record {fields[0]!r}")
    # every id names a distinct vertex below n, so only too few can occur
    if len(ids) < count:
        raise ParseError(f"expected {count} id lines, found {len(ids)}")
    return values, IdAssignment(tuple(ids[v] for v in range(count)), values[-1])


def parse_graph(text: str) -> tuple[Graph, IdAssignment]:
    """Parse the line-oriented graph format (see `read_instance`).

    Header `g <n> <M>`, then in any order exactly n lines
    `id <vertex> <identifier>` and zero or more lines `e <u> <v>`.
    """
    edges: list[list[int]] = []
    (n, _), ids = read_instance(text, "g <n> <M>", {
        "e": lambda lineno, fields, _: edges.append(_integers(lineno, fields[1:], 2, "e <u> <v>")),
    })
    if n < 1:
        raise ParseError("vertex count must be positive")
    return Graph.of(n, edges), ids


def serialize_graph(graph: Graph, ids: IdAssignment) -> str:
    """Inverse of parse_graph; output is canonical (sorted edges)."""
    if len(ids.ids) != graph.vertex_count:
        raise InvalidParams("id assignment does not cover the graph")
    lines = [f"g {graph.vertex_count} {ids.id_range}"]
    lines.extend(f"id {v} {ids.id_of(v)}" for v in range(graph.vertex_count))
    lines.extend(f"e {u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


# the generator visits all n(n-1)/2 vertex pairs and holds every edge it
# keeps, so a call past either cap is refused before anything is drawn
MAX_GENERATED_PAIRS = 5 * 10**7
MAX_EXPECTED_EDGES = 5 * 10**6
# vertex pairs marked per chunk of rows; bounds the generator's working memory
_CHUNK_CELLS = 1 << 18


def random_h_colorable_graph(n: int, target: TargetGraph, density: float, seed: int) -> Graph:
    """Random graph that admits a homomorphism to `target` by construction.

    Each vertex gets a uniformly random target vertex; a candidate edge is
    kept with probability `density` only when its endpoint images form a
    target edge. Deterministic in `seed`.

    The draws are those of one `random.Random(seed)`: the images
    `phi = [rng.randrange(k) for _ in range(n)]`, then one `rng.random()`
    per candidate pair (u < v) in row-major order, the pair kept when the
    draw is below `density`. The pairs are marked in numpy a chunk of rows
    at a time, and one `rng.getrandbits(64 m)` gives a chunk's m draws:
    its 32-bit words, least significant first, are the generator's next
    2m outputs, and `random()` is `((a >> 5) * 2^26 + (b >> 6)) / 2^53`
    for each pair of them. So `draw < density * 2^53` keeps exactly the
    pairs that the scalar loop keeps, and the edges come out in its order.
    numpy is imported here, at call time.
    """
    if not 0 <= density <= 1:
        raise InvalidParams(f"density {density} outside [0, 1]")
    if density > 0 and not target.edges:
        raise InvalidParams("target has no edges; only density 0 is satisfiable")
    if n < 1:
        raise InvalidParams("n must be positive")
    pairs = n * (n - 1) // 2
    if pairs > MAX_GENERATED_PAIRS:
        raise InvalidParams(f"n = {n} gives {pairs} vertex pairs, above the cap {MAX_GENERATED_PAIRS}")
    if density * pairs > MAX_EXPECTED_EDGES:
        raise InvalidParams(f"density {density} at n = {n} allows {float(density * pairs):.3g} "
                            f"expected edges, above the cap {MAX_EXPECTED_EDGES}")
    rng = random.Random(seed)
    k = target.vertex_count
    phi = [rng.randrange(k) for _ in range(n)]
    # a draw d in [0, 2^53) has random() = d / 2^53 < density iff d < threshold
    threshold = math.ceil(density * (1 << 53))
    if threshold == 0:
        # density 0 keeps no pair, and an edgeless target allows only it
        return Graph.of(n, ())
    import numpy as np

    images = np.array(phi, dtype=np.int64)
    # the target's edges in both orientations as codes a * k + b, sorted:
    # memory in the target's edges, not in its k^2 pairs
    codes = np.array(sorted(a * k + b for u, v in target.edges for a, b in ((u, v), (v, u))), dtype=np.int64)
    # a set filled in the scalar loop's order, so its frozenset is the one
    # Graph.of builds from the same pairs
    edges: set[tuple[int, int]] = set()
    rows = max(1, _CHUNK_CELLS // n)
    for start in range(0, n - 1, rows):
        # cell (i, j) is the pair u = start + i, v = start + 1 + j; the
        # corner mask keeps u < v
        stop = min(start + rows, n - 1)
        pair = images[start:stop, None] * k + images[None, start + 1 :]
        marked = codes.take(np.searchsorted(codes, pair), mode="clip") == pair
        marked[:, : stop - start] &= np.arange(stop - start) >= np.arange(stop - start)[:, None]
        cells = np.flatnonzero(marked)
        bits = rng.getrandbits(64 * len(cells)).to_bytes(8 * len(cells), "little")
        words = np.frombuffer(bits, dtype="<u4")
        draws = (words[0::2] >> 5).astype(np.uint64) << 26 | words[1::2] >> 6
        us, vs = np.divmod(cells[draws < threshold], n - start - 1)
        edges.update(zip((us + start).tolist(), (vs + start + 1).tolist()))
    return Graph(n, frozenset(edges))


def random_id_assignment(n: int, id_range: int, seed: int) -> IdAssignment:
    """Uniform injective assignment into {0, ..., id_range-1}, seed-deterministic.

    Rejection sampling keeps this exact for ranges up to 2^128.
    """
    if id_range < n:
        raise InvalidId(f"id range {id_range} smaller than vertex count {n}")
    rng = random.Random(seed)
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < n:
        candidate = rng.randrange(id_range)
        if candidate not in seen:
            seen.add(candidate)
            chosen.append(candidate)
    return IdAssignment(tuple(chosen), id_range)
