"""Exhaustive graph families shared by the audit tests."""

from globalcert import Graph


def all_labeled_graphs(n):
    """All 2^C(n,2) labeled simple graphs on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.of(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
