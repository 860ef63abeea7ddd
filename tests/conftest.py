"""Shared corpus builders for the test suite."""

import random

import pytest

from minmatch import solver
from minmatch.errors import InternalInvariantViolation, TooLarge
from minmatch.generators import enumerate_connected_subcubic, gen_gk, gen_random_cubic
from minmatch.graph import Edge, Graph
from minmatch.matching import Matching, as_matching, is_maximal


def random_connected_subcubic(n: int, seed: int, deletions: int = 0) -> Graph:
    """Random connected cubic graph with up to `deletions` edges removed
    (connectivity preserved, removals skipped when they would disconnect)."""
    if n % 2:
        n += 1
    g = gen_random_cubic(max(n, 4), seed)
    rng = random.Random(seed * 31 + deletions)
    for _ in range(deletions):
        e = rng.choice(g.edges())
        g.remove_edge(*e)
        if not g.is_connected():
            g.add_edge(*e)
    return g


_ENUM_LIMIT = 12


def enumerate_maximal_matchings(g: Graph) -> list[Matching]:
    """All maximal matchings, for cross-checking gamma_exact on tiny graphs.

    A plain include/exclude search over the edges with its own maximality
    test, so that it shares no code with the search it checks.
    """
    if g.n > _ENUM_LIMIT:
        raise TooLarge(f"enumeration capped at n <= {_ENUM_LIMIT}")
    edges = g.edges()
    out: list[Matching] = []

    def search(i: int, chosen: list[Edge], covered: set[int]) -> None:
        if i == len(edges):
            if all(u in covered or v in covered for u, v in edges):
                out.append(frozenset(chosen))
            return
        u, v = edges[i]
        if u not in covered and v not in covered:
            search(i + 1, chosen + [(u, v)], covered | {u, v})
        search(i + 1, chosen, covered)

    search(0, [], set())
    return sorted(out, key=lambda M: (len(M), sorted(M)))


def bridged_pair(n_side: int, seed: int) -> Graph:
    """Two random cubic blobs joined by one bridge; min degree 2.

    Deletes one edge inside each blob and joins the freed endpoints, so the
    bridge endpoints have degree 3 and the graph stays subcubic.
    """
    g1 = gen_random_cubic(n_side, seed)
    g2 = gen_random_cubic(n_side, seed + 1)
    g = Graph()
    off = max(g1.vertices()) + 1
    for u, v in g1.edges():
        g.add_edge(u, v)
    for u, v in g2.edges():
        g.add_edge(u + off, v + off)
    a, b = g1.edges()[0]
    c, d = g2.edges()[0]
    g.remove_edge(a, b)
    g.remove_edge(c + off, d + off)
    g.add_edge(a, c + off)
    return g


def bridge_chain(k: int, seed: int, n_blob: int = 12) -> Graph:
    """k random cubic blobs in a row, each joined to the next by a bridge.

    Each blob loses the first edge whose removal keeps it connected; one
    freed endpoint takes the bridge from the previous blob, the other the
    bridge to the next, so the graph stays subcubic with k - 1 bridges or
    more.
    """
    g = Graph()
    prev = None
    for i in range(k):
        blob = gen_random_cubic(n_blob, seed + i)
        for a, b in blob.edges():
            blob.remove_edge(a, b)
            if blob.is_connected():
                break
            blob.add_edge(a, b)
        off = i * n_blob
        for u, v in blob.edges():
            g.add_edge(u + off, v + off)
        if prev is not None:
            g.add_edge(prev, a + off)
        prev = b + off
    return g


def bead_ring(k: int, seed: int, n_bead: int = 12) -> Graph:
    """k random cubic beads in a ring, each joined to the next by one link.

    Each bead loses the first edge whose removal leaves it bridgeless; its
    freed endpoints take the links to the previous and the next bead.  The
    graph is cubic and bridgeless, but deleting one link turns every other
    link into a bridge.
    """
    g = Graph()
    ends = []
    for i in range(k):
        bead = gen_random_cubic(n_bead, seed + i)
        for a, b in bead.edges():
            bead.remove_edge(a, b)
            if bead.is_connected() and not bead.find_bridges():
                break
            bead.add_edge(a, b)
        else:
            raise ValueError(f"bead {seed + i} has no edge whose removal leaves it bridgeless")
        off = i * n_bead
        for u, v in bead.edges():
            g.add_edge(u + off, v + off)
        ends.append((a + off, b + off))
    for i in range(k):
        g.add_edge(ends[i][1], ends[(i + 1) % k][0])
    return g


def reduced(g: Graph, step) -> Graph:
    """g after a linear reduction step, rebuilt here without the solver's
    code so that tests cross-check the engine's in-place reduction."""
    h = g.copy()
    h.remove_vertices_with_undo(step.deleted)
    for e in step.added_edges:
        h.add_edge(*e)
    return h


def cold_cut_off(g: Graph, boundary) -> list[set]:
    """Graph.cut_off with every search cold: each boundary vertex, in
    increasing order, is searched for from the boundary vertices joined
    before it only, and the targets' side is a copy of them.  The reference
    for what the warm searches cut off and how much they read: it reads g's
    adjacency as Graph.cut_off does, through g._adj."""
    adj = g._adj
    sides, joined = [], set()
    for s in sorted(boundary):
        if any(s in side for side in sides):
            continue
        found = _cold_search(adj, s, joined) if joined else None
        if found is None:
            joined.add(s)
        else:
            sides.append(found[1])
            if found[0] == 1:
                joined = {s}
    return sides


def _cold_search(adj, s, targets):
    """The two-sided search from s to the set targets, left unchanged: None
    if they are joined, else (0, s's component) or (1, the targets'), the
    side with fewer vertices found growing by a layer (s's on a tie)."""
    if s in targets:
        return None
    before, ahead, goal, after = {s}, [s], targets, None  # after: the targets' side, once it grows
    while True:
        if len(before) <= len(goal):
            if not ahead:
                return 0, before
            layer = []
            for u in ahead:
                for w in adj[u]:
                    if w not in before:
                        if w in goal:
                            return None
                        before.add(w)
                        layer.append(w)
            ahead = layer
        else:
            if after is None:
                goal = after = set(targets)
                behind = list(after)
            if not behind:
                return 1, after
            layer = []
            for w in behind:
                for u in adj[w]:
                    if u not in after:
                        if u in before:
                            return None
                        after.add(u)
                        layer.append(u)
            behind = layer


def bridge_candidates(g: Graph, bridge) -> list:
    """Candidate splits at a bridge of connected g: (name, connected parts in
    preorder), each part (vertex set, constraint) listed in full; the
    candidates the solver's bridge split chooses from (solver._candidates)."""
    out = []
    for name, removed, parts in solver._candidates(g, bridge):
        rest = set(g.iter_vertices()).difference(removed)
        out.append((name, tuple((rest if vs is None else vs, c) for vs, c in parts)))
    return out


# Per-block matching patterns of gen_gk's chain, offsets relative to the
# block base.  Two edges suffice for a block whenever one attachment point is
# covered from outside; three consecutive blocks then fit in 7 edges:
# cover-p block, chain edge, cover-q block, plain light block.
_BLOCK_FULL = ((0, 4), (1, 3), (2, 5))
_BLOCK_LIGHT = ((1, 4), (2, 5))
_BLOCK_COVER_P = ((0, 4), (1, 5))
_BLOCK_COVER_Q = ((1, 3), (2, 4))


def gen_gk_optimal_matching(k: int) -> Matching:
    """Maximal matching of gen_gk(k) of size ceil(7k/3).

    Period-3 pattern with explicit remainder blocks; validated against the
    graph before returning since the stitching is easy to get wrong.
    """
    t, r = divmod(k, 3)
    chosen: list[Edge] = []

    def put(block: int, pattern) -> None:
        o = 6 * block
        chosen.extend((o + a, o + b) for a, b in pattern)

    for s in range(t):
        put(3 * s, _BLOCK_COVER_P)
        put(3 * s + 1, _BLOCK_COVER_Q)
        put(3 * s + 2, _BLOCK_LIGHT)
        # chain edge between the cover-p and cover-q blocks
        chosen.append((6 * (3 * s) + 3, 6 * (3 * s + 1)))
    if r == 1:
        put(k - 1, _BLOCK_FULL)
    elif r == 2:
        put(k - 2, _BLOCK_FULL)
        put(k - 1, _BLOCK_LIGHT)

    M = as_matching(chosen)
    want = -(-7 * k // 3)
    if len(M) != want or not is_maximal(gen_gk(k), M):
        raise InternalInvariantViolation(
            f"chain matching pattern failed for k={k} (size {len(M)}, want {want})"
        )
    return M


@pytest.fixture(scope="session")
def corpus_n4():
    return list(enumerate_connected_subcubic(4))


@pytest.fixture(scope="session")
def corpus_n5():
    return list(enumerate_connected_subcubic(5))


@pytest.fixture(scope="session")
def corpus_n6():
    return list(enumerate_connected_subcubic(6))
