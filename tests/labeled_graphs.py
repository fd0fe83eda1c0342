"""Exhaustive graph families shared by the audit tests."""

import itertools

from globalcert import Graph


def all_labeled_graphs(n):
    """All 2^C(n,2) labeled simple graphs on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.of(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def isomorphism_classes(n):
    """One labeled graph per isomorphism class on n vertices, the first of
    each class in all_labeled_graphs order."""
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for graph in all_labeled_graphs(n):
        form = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in graph.edges)) for p in perms)
        if form not in seen:
            seen.add(form)
            yield graph
