"""Named graphs, extremal chain families, random cubic graphs, enumeration."""

from __future__ import annotations

import random
from typing import Iterator

from .errors import BadParameter, RejectionLimitExceeded, TooLarge
from .graph import Edge, Graph

_REJECTION_CAP = 10_000


def gen_named(name: str, n: int | None = None) -> Graph:
    """Build a fixed named graph with canonical vertex numbering."""
    if name == "K2":
        return Graph.from_edges([(0, 1)])
    if name == "K4":
        return Graph.from_edges((i, j) for i in range(4) for j in range(i + 1, 4))
    if name == "K33":
        return Graph.from_edges((i, j) for i in range(3) for j in range(3, 6))
    if name == "K33_MINUS":
        return Graph.from_edges(
            (i, j) for i in range(3) for j in range(3, 6) if (i, j) != (0, 3)
        )
    if name == "PETERSEN":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return Graph.from_edges(outer + spokes + inner)
    if name == "CUBE_Q3":
        return Graph.from_edges(
            (i, j)
            for i in range(8)
            for j in range(i + 1, 8)
            if bin(i ^ j).count("1") == 1
        )
    if name == "C_n":
        if n is None or n < 3:
            raise BadParameter("cycle needs n >= 3")
        return Graph.from_edges((i, (i + 1) % n) for i in range(n))
    if name == "P_n":
        if n is None or n < 1:
            raise BadParameter("path needs n >= 1")
        return Graph.from_edges(((i, i + 1) for i in range(n - 1)), vertices=range(n))
    raise BadParameter(f"unknown graph name {name!r}")


# -- the cyclic chain of K33-minus blocks --------------------------------------
#
# Block i lives on vertices 6i..6i+5 with parts A = {6i, 6i+1, 6i+2} and
# B = {6i+3, 6i+4, 6i+5}; the deleted edge is (6i, 6i+3), making p_i = 6i and
# q_i = 6i+3 the degree-2 attachment points.  Chain edges q_i -> p_{i+1}
# close the cycle, so the result is cubic on n = 6k vertices with m = 9k.


def gen_gk(k: int) -> Graph:
    if k < 1:
        raise BadParameter("chain length k must be >= 1")
    edges: list[Edge] = []
    for b in range(k):
        o = 6 * b
        for i in range(3):
            for j in range(3, 6):
                if (i, j) != (0, 3):
                    edges.append((o + i, o + j))
    for b in range(k):
        edges.append((6 * b + 3, 6 * ((b + 1) % k)))
    return Graph.from_edges(edges)


def gen_random_cubic(n: int, seed: int) -> Graph:
    """Connected simple cubic graph via the pairing model.

    Uniform pairing of degree stubs with rejection of loops, parallel edges
    and disconnected outcomes; deterministic for a fixed (n, seed).
    """
    if n < 4 or n % 2 != 0:
        raise BadParameter("cubic graphs need even n >= 4")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(_REJECTION_CAP):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if not ok:
            continue
        g = Graph.from_edges(sorted(edges))
        if g.is_connected():
            return g
    raise RejectionLimitExceeded(f"no simple connected pairing after {_REJECTION_CAP} tries")


_ENUM_LIMIT = 7


def enumerate_connected_subcubic(n: int) -> Iterator[Graph]:
    """Stream all connected labeled graphs on n vertices with max degree 3."""
    if n < 1:
        raise BadParameter("need n >= 1")
    if n > _ENUM_LIMIT:
        raise TooLarge(f"labeled enumeration capped at n <= {_ENUM_LIMIT}")
    if n == 1:
        yield Graph.from_edges([], vertices=[0])
        return
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    deg = [0] * n
    adj = [0] * n
    chosen: list[Edge] = []

    def connected() -> bool:
        stack = [0]
        seen = 1
        count = 1
        while stack:
            v = stack.pop()
            rest = adj[v] & ~seen
            while rest:
                bit = rest & -rest
                rest ^= bit
                seen |= bit
                count += 1
                stack.append(bit.bit_length() - 1)
        return count == n

    def rec(idx: int) -> Iterator[Graph]:
        if idx == len(pairs):
            if connected():
                yield Graph.from_edges(list(chosen), vertices=range(n))
            return
        yield from rec(idx + 1)
        i, j = pairs[idx]
        if deg[i] < 3 and deg[j] < 3:
            deg[i] += 1
            deg[j] += 1
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            chosen.append((i, j))
            yield from rec(idx + 1)
            chosen.pop()
            adj[i] &= ~(1 << j)
            adj[j] &= ~(1 << i)
            deg[i] -= 1
            deg[j] -= 1

    yield from rec(0)

