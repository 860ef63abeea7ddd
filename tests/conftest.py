"""Shared corpus builders for the test suite."""

import random

import pytest

from minmatch import solver
from minmatch.generators import enumerate_connected_subcubic, gen_random_cubic
from minmatch.graph import Graph


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
    h.remove_vertices(step.deleted)
    for e in step.added_edges:
        h.add_edge(*e)
    return h


def bridge_candidates(g: Graph, bridge) -> list:
    """Candidate splits at a bridge of connected g: (name, connected parts in
    preorder), each part (vertex set, constraint) listed in full; the
    candidates the solver's bridge split chooses from (solver._candidates)."""
    out = []
    for name, removed, parts in solver._candidates(g, bridge, None)[2]:
        rest = set(g.iter_vertices()).difference(removed)
        out.append((name, tuple((rest if vs is None else vs, c) for vs, c in parts)))
    return out


@pytest.fixture(scope="session")
def corpus_n4():
    return list(enumerate_connected_subcubic(4))


@pytest.fixture(scope="session")
def corpus_n5():
    return list(enumerate_connected_subcubic(5))


@pytest.fixture(scope="session")
def corpus_n6():
    return list(enumerate_connected_subcubic(6))
