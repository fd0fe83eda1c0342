"""Bipartiteness by breadth-first 2-colouring: an oracle for K2-colourability
that shares no code with the library's homomorphism search."""

from collections import deque


def is_bipartite(graph) -> bool:
    """Breadth-first 2-coloring per component; agrees with
    exists_homomorphism(graph, K2) by definition."""
    color = [-1] * graph.vertex_count
    for start in range(graph.vertex_count):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True
