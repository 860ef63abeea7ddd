"""Components cut off after a step, against the reference scans.

After a linear step, the solver lists the components of the reduced graph
by searches from the step's boundary (Graph.cut_off): one path from each
boundary vertex to those joined so far, and a refuted search cuts off the
side it used up.  component_of and connected_components stay the
reference: the one-path test must agree with them exactly.  cut_off and
Graph.smaller_side run one search from two sides that grows the side which
has found fewer vertices, so a refuted search must read the adjacency of
about the smaller side of the cut only, even when the other side is a long
path whose frontier stays at one vertex.
"""

import random

import pytest

from conftest import bead_ring, bridge_chain, cold_cut_off, random_connected_subcubic
from minmatch.generators import gen_random_cubic
from minmatch.graph import Graph
from minmatch.reductions import ReductionStep
from minmatch.solver import solve


def seed_sets(g: Graph, rng: random.Random, count: int = 40):
    """Random seed sets of 2 to 6 vertices: around one vertex, as a step's
    boundary is, or anywhere."""
    vertices = g.vertices()
    for _ in range(count):
        v = rng.choice(vertices)
        pool = sorted(g.neighbors(v) | {v}) if rng.random() < 0.5 else vertices
        yield set(rng.sample(pool, min(len(pool), rng.randrange(2, 7))))


@pytest.mark.parametrize("seed", range(4))
def test_joined_by_one_path_is_exact(seed):
    rng = random.Random(100 + seed)
    ring = bead_ring(5, seed)
    ring.remove_vertices_with_undo([next(v for v in ring.iter_vertices() if ring.degree(v) == 3)])
    graphs = [
        random_connected_subcubic(rng.randrange(20, 200), seed, rng.randrange(0, 30)),
        bridge_chain(4, seed),
        ring,
    ]
    for g in list(graphs):
        # without a few vertices and the ends of its most even bridge
        h = g.copy()
        h.remove_vertices_with_undo(rng.sample(h.vertices(), 3))
        sides = []
        for u, v in sorted(h.find_bridges()):
            h.remove_edge(u, v)
            sides.append((min(len(h.component_of(u)), len(h.component_of(v))), (u, v)))
            h.add_edge(u, v)
        if sides:
            h.remove_vertices_with_undo(max(sides)[1])
        graphs.append(h)
    # the seeds are joined by one path iff cut_off cuts nothing off, and
    # what it cuts off are whole components
    joined = split = 0
    for g in graphs:
        comps = g.connected_components()
        for seeds in seed_sets(g, rng):
            same = seeds <= g.component_of(next(iter(seeds)))
            sides = g.cut_off(seeds)
            assert (not sides) == same, (g.edges(), seeds)
            assert all(side in comps and not side.isdisjoint(seeds) for side in sides)
            assert len(sides) == len({i for i, c in enumerate(comps) for v in seeds if v in c}) - 1
            if same:
                joined += 1
            else:
                split += 1
    assert joined > 20 and split > 20


class CountingAdjacency(dict):
    """An adjacency dict that counts the vertices it is read at."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)

    def get(self, v, default=None):
        self.reads += 1
        return super().get(v, default)


def blob_on_a_bridge(n: int, seed: int) -> tuple[Graph, list[int], list[int]]:
    """A 12-vertex cubic blob joined by one bridge to a random cubic graph
    on n vertices: the graph, the blob's vertices and the others."""
    blob = gen_random_cubic(12, seed)
    big = gen_random_cubic(n, seed)
    for a, b in blob.edges():
        blob.remove_edge(a, b)
        if blob.is_connected():
            break
        blob.add_edge(a, b)
    c, d = big.edges()[0]
    big.remove_edge(c, d)
    g = Graph.from_edges(big.edges() + [(u + n, v + n) for u, v in blob.edges()] + [(c, a + n)])
    return g, [v + n for v in blob.vertices()], big.vertices()


def test_refuted_path_tests_read_the_smaller_side():
    n = 2000
    g, blob, rest = blob_on_a_bridge(n, 5)
    assert g.is_connected() and len(g.find_bridges()) == 1
    (bridge,) = g.find_bridges()
    cut = set(bridge)
    g._adj = CountingAdjacency(g._adj)
    g._adj.reads = 0
    side = g.smaller_side(g.neighbors(bridge[0]) - cut, g.neighbors(bridge[1]) - cut, cut)[1]
    assert side == set(blob) - cut
    assert g._adj.reads < (n + 12) / 10, g._adj.reads
    g.remove_edge(*bridge)
    rng = random.Random(5)
    for v in blob:
        seeds = {v, rng.choice(rest)}
        g._adj.reads = 0
        assert g.cut_off(seeds) == [set(blob)]
        assert g._adj.reads < (n + 12) / 10, (seeds, g._adj.reads)


@pytest.mark.parametrize("length", [1000, 16000])
def test_refuted_searches_read_a_thin_side_too(length):
    # a path's frontier stays at one vertex however far it runs, so a search
    # must be balanced by the vertices each side has found, not by frontiers
    blob = gen_random_cubic(12, 7)
    for x, y in blob.edges():
        blob.remove_edge(x, y)
        if blob.is_connected():
            break
        blob.add_edge(x, y)
    path = [(v, v + 1) for v in range(length - 1)]
    blob_edges = [(u + length, v + length) for u, v in blob.edges()]
    ends = [v + length for v in blob.vertices()]
    apart = Graph.from_edges(path + blob_edges)
    bridged = Graph.from_edges(path + blob_edges + [(0, x + length)])
    for g in (apart, bridged):
        g._adj = CountingAdjacency(g._adj)
    for b in ends:
        apart._adj.reads = 0
        assert apart.cut_off({length - 1, b}) == [set(ends)]
        assert apart._adj.reads < 100, (b, apart._adj.reads)
    cut = {0, x + length}
    bridged._adj.reads = 0
    assert bridged.smaller_side([1], bridged.neighbors(x + length) - cut, cut) == (1, set(ends) - cut)
    assert bridged._adj.reads < 100, bridged._adj.reads


def test_warm_joins_read_less_and_each_step_is_built_once(monkeypatch):
    # on an expander each boundary vertex is found from all that the step
    # has proved joined, so cut_off reads well under the cold searches on
    # the same calls, with the same answer; and a rule's step is recorded as
    # built, not copied on its way into the trace
    reads = {"warm": 0, "cold": 0}
    builds = 0
    cut_off, init = Graph.cut_off, ReductionStep.__init__

    def counted_cut_off(g, boundary):
        adj = g._adj
        g._adj = CountingAdjacency(adj)
        try:
            sides = cut_off(g, boundary)
            reads["warm"] += g._adj.reads
            g._adj.reads = 0
            assert sides == cold_cut_off(g, boundary)
            reads["cold"] += g._adj.reads
        finally:
            g._adj = adj
        return sides

    def counted_init(step, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(step, *args, **kwargs)

    monkeypatch.setattr(Graph, "cut_off", counted_cut_off)
    monkeypatch.setattr(ReductionStep, "__init__", counted_init)
    for seed in range(3):
        builds = reads["warm"] = reads["cold"] = 0
        cert = solve(gen_random_cubic(1000, seed))
        assert cert.valid
        assert reads["warm"] <= 0.7 * reads["cold"], (seed, reads)
        assert builds < 2 * len(cert.trace), (seed, builds, len(cert.trace))
