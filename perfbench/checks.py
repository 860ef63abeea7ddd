"""Correctness gate for benchmark outputs, independent of ``minmatch.matching``.

Every function here works on plain edge lists and vertex sets, so a defect in
the package's own matching, bound or bridge code cannot hide itself by being
used to check its own output.
"""

from __future__ import annotations


def adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _is_k33(adj: dict[int, set[int]], n: int, m: int) -> bool:
    # K33 is the only triangle-free cubic graph on 6 vertices
    if n != 6 or m != 9 or any(len(nbrs) != 3 for nbrs in adj.values()):
        return False
    return not any(adj[u] & adj[v] for u in adj for v in adj[u])


def lambda6(adj: dict[int, set[int]], n: int, m: int) -> int:
    """4n - m + 2I + K - n1 for a connected graph, from its degree census."""
    degrees = [len(nbrs) for nbrs in adj.values()]
    n1 = degrees.count(1)
    cubic = 1 if n > 0 and len(adj) == n and all(d == 3 for d in degrees) else 0
    k2 = 1 if (n == 2 and m == 1) else 0
    return 4 * n - m + 2 * cubic + k2 - n1


def matching_problems(n: int, edges, matching) -> list[str]:
    """Ways in which ``matching`` fails to be a maximal matching of the
    connected graph (n vertices, ``edges``) within the certified bound."""
    adj = adjacency(edges)
    problems = []
    covered: set[int] = set()
    for u, v in matching:
        if v not in adj.get(u, ()):
            problems.append("edge_not_in_graph")
        if u in covered or v in covered:
            problems.append("not_disjoint")
        covered.add(u)
        covered.add(v)
    if any(u not in covered and v not in covered for u, v in edges):
        problems.append("not_maximal")
    size = len(matching)
    if _is_k33(adj, n, len(edges)):
        if size != 3:
            problems.append("over_bound")
    elif 6 * size > lambda6(adj, n, len(edges)):
        problems.append("over_bound")
    return problems


def bridge_count(adj: dict[int, set[int]]) -> int:
    """Number of bridges, by an iterative lowlink depth-first search."""
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges = 0
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > order[parent]:
                        bridges += 1
            elif w == parent:
                continue
            elif w in order:
                low[v] = min(low[v], order[w])
            else:
                order[w] = low[w] = len(order)
                stack.append((w, v, iter(adj[w])))
    return bridges


def is_connected(adj: dict[int, set[int]], n: int) -> bool:
    if len(adj) != n:
        return n == 1 and not adj
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n
