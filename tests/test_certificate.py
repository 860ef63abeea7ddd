"""The boundary certificate against the reference scans.

After a linear step on a clean graph (connected, every bridge a pendant
edge), the solver skips the connectivity check and the next bridge search
when two edge-disjoint paths join each vertex of the step's boundary to the
others, and after any linear step it skips the full connectivity check when
one path does.  Tarjan's lowlink search (Graph.find_bridges), is_connected
and component_of stay the reference: both path tests must agree with them
exactly, and the traces must be the ones the solver makes without any
certificate.  Both path tests and Graph.smaller_side run one search from two
sides that grows the side which has found fewer vertices, so a refuted
search must read the adjacency of about the smaller side of the cut only,
even when the other side is a long path whose frontier stays at one vertex.
The two-path test keeps its proof, an ear store on the graph, across the
graph's changes: it must stay exact under any mix of deletions, restores
and added or removed edges, and a warm test must read less than a cold one
where the proof is larger than the balls a cold search grows.
"""

import random

import pytest

from conftest import bead_ring, bridge_chain, random_connected_subcubic
from minmatch import solver
from minmatch.errors import DegreeOverflow, UnknownVertex
from minmatch.generators import gen_random_cubic
from minmatch.graph import Graph
from minmatch.solver import solve


def corpus():
    graphs = [gen_random_cubic(n, seed) for n, seed in ((50, 1), (100, 2), (200, 3), (300, 4))]
    graphs += [random_connected_subcubic(n, seed, d) for n, seed, d in ((60, 5, 4), (120, 6, 9), (200, 7, 15))]
    graphs += [bridge_chain(k, seed) for k, seed in ((3, 8), (6, 9))]
    graphs += [bead_ring(k, seed) for k, seed in ((4, 10), (7, 11))]
    return graphs


def rows(cert):
    return [
        (s.rule, s.case, sorted(s.deleted), sorted(s.added_edges), s.bridge)
        for s in cert.trace
    ]


def two_edge_components(g: Graph) -> dict[int, int]:
    """Reference: vertex -> index of its 2-edge-connected component, from
    the components of g without its bridges."""
    h = g.copy()
    for e in g.find_bridges():
        h.remove_edge(*e)
    return {v: i for i, comp in enumerate(h.connected_components()) for v in comp}


def test_positive_certificates_agree_with_tarjan(monkeypatch):
    answers = []
    certify = solver._stays_clean

    def checked(g, saved, added):
        proved = certify(g, saved, added)
        if proved:
            assert g.is_connected()
            assert all(min(g.degree(u), g.degree(v)) == 1 for u, v in g.find_bridges())
        answers.append(proved)
        return proved

    monkeypatch.setattr(solver, "_stays_clean", checked)
    for g in corpus():
        assert solve(g).valid
    assert answers.count(True) > 100
    assert answers.count(False) >= 2  # the rings: one deleted link bridges the rest


def test_traces_equal_those_without_certificate(monkeypatch):
    graphs = corpus()
    with_certificate = [solve(g) for g in graphs]
    monkeypatch.setattr(solver, "_stays_clean", lambda g, saved, added: False)
    for g, cert in zip(graphs, with_certificate):
        plain = solve(g)
        assert rows(cert) == rows(plain)
        assert cert.matching == plain.matching


def test_bridges_far_from_the_step_are_not_certified():
    g = bead_ring(5, 0)
    assert not g.find_bridges()
    x = min(v for v in g.iter_vertices() if any(w // 12 != v // 12 for w in g.neighbors(v)))
    saved = g.remove_vertices_with_undo([x])
    # every link but the one x ended is now a bridge, none of them near x
    assert len([e for e in g.find_bridges() if e[0] // 12 != e[1] // 12]) == 4
    assert not solver._stays_clean(g, saved, [])


def seed_sets(g: Graph, rng: random.Random, count: int = 40):
    """Random seed sets of 2 to 6 vertices: around one vertex, as a step's
    boundary is, or anywhere."""
    vertices = g.vertices()
    for _ in range(count):
        v = rng.choice(vertices)
        pool = sorted(g.neighbors(v) | {v}) if rng.random() < 0.5 else vertices
        yield set(rng.sample(pool, min(len(pool), rng.randrange(2, 7))))


@pytest.mark.parametrize("seed", range(4))
def test_joined_without_bridges_never_proves_a_false_case(seed):
    # and never refutes a true one: the test is exact
    rng = random.Random(seed)
    graphs = [
        random_connected_subcubic(rng.randrange(20, 200), seed, rng.randrange(0, 30)),
        bridge_chain(4, seed),
        bead_ring(4, seed),
    ]
    ring = bead_ring(5, seed)
    ring.remove_vertices([next(v for v in ring.iter_vertices() if ring.degree(v) == 3)])
    graphs.append(ring)
    proved = refuted = 0
    for g in graphs:
        label = two_edge_components(g)
        for seeds in seed_sets(g, rng):
            same = len({label[v] for v in seeds}) == 1
            assert g.joined(seeds, 2) == same, (g.edges(), seeds)
            if same:
                proved += 1
            else:
                refuted += 1
    assert proved > 20 and refuted > 20


@pytest.mark.parametrize("seed", range(4))
def test_joined_by_one_path_is_exact(seed):
    rng = random.Random(100 + seed)
    ring = bead_ring(5, seed)
    ring.remove_vertices([next(v for v in ring.iter_vertices() if ring.degree(v) == 3)])
    graphs = [
        random_connected_subcubic(rng.randrange(20, 200), seed, rng.randrange(0, 30)),
        bridge_chain(4, seed),
        ring,
    ]
    for g in list(graphs):
        # without a few vertices and the ends of its most even bridge
        h = g.copy()
        h.remove_vertices(rng.sample(h.vertices(), 3))
        sides = []
        for u, v in sorted(h.find_bridges()):
            h.remove_edge(u, v)
            sides.append((min(len(h.component_of(u)), len(h.component_of(v))), (u, v)))
            h.add_edge(u, v)
        if sides:
            h.remove_vertices(max(sides)[1])
        graphs.append(h)
    joined = split = 0
    for g in graphs:
        for seeds in seed_sets(g, rng):
            same = seeds <= g.component_of(next(iter(seeds)))
            assert g.joined(seeds, 1) == same, (g.edges(), seeds)
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
    g._adj = CountingAdjacency(g._adj)
    rng = random.Random(5)
    for v in blob:
        seeds = {v, rng.choice(rest)}
        g._adj.reads = 0
        assert not g.joined(seeds, 2)
        assert g._adj.reads < (n + 12) / 10, (seeds, g._adj.reads)
    assert g.joined(blob[:6], 2)
    (bridge,) = g.find_bridges()
    g.remove_edge(*bridge)
    for v in blob:
        seeds = {v, rng.choice(rest)}
        g._adj.reads = 0
        assert not g.joined(seeds, 1)
        assert g._adj.reads < (n + 12) / 10, (seeds, g._adj.reads)


def test_refuted_path_tests_read_the_smaller_side_from_a_warm_store():
    # the store holds a proof on the big side, which a refuted blob test
    # must not make it read
    n = 2000
    g, blob, rest = blob_on_a_bridge(n, 5)
    rng = random.Random(6)
    assert g.joined(rng.sample(rest, 6), 2)
    g._adj = CountingAdjacency(g._adj)
    for v in blob:
        seeds = {v, rng.choice(rest)}
        assert g._ears[0] and not g._ears[0].keys() & set(blob)
        g._adj.reads = 0
        assert not g.joined(seeds, 2)
        assert g._adj.reads < (n + 12) / 10, (seeds, g._adj.reads)


@pytest.mark.parametrize("seed", range(4))
def test_a_warm_path_test_reads_less_than_a_cold_one(seed):
    # prove the ball of radius 5 around a vertex, then delete a vertex next
    # to the proof, as a step does: the proof survives, and the boundary
    # test that follows starts from it.  A random cubic graph is an
    # expander, so a proof only saves reads once it holds more vertices than
    # the balls (about sqrt(n)) that a cold two-sided search grows.
    g = gen_random_cubic(2000, seed)
    v = random.Random(seed).choice(g.vertices())
    ball = {v}
    for _ in range(5):
        ball |= set().union(*(g.neighbors(u) for u in ball))
    assert g.joined(ball, 2)
    owner = g._ears[0]
    size = len(owner)
    x = min(w for u in owner for w in g.neighbors(u) if w not in owner)
    saved = g.remove_vertices_with_undo({x})
    assert len(owner) == size  # no unit held x
    boundary = set().union(*saved.values())
    cold = g.copy()
    for h in (g, cold):
        h._adj = CountingAdjacency(h._adj)
        assert h.joined(boundary, 2)
    assert g._adj.reads < cold._adj.reads, (g._adj.reads, cold._adj.reads)


@pytest.mark.parametrize("seed", range(3))
def test_ear_store_stays_exact_under_mutation(seed):
    # deletions, restores, added and removed edges between two-path tests:
    # every answer equals the reference, and most tests start from the store
    rng = random.Random(200 + seed)
    graphs = [
        gen_random_cubic(60, seed),
        random_connected_subcubic(80, seed, 10),
        bridge_chain(4, seed),
        bead_ring(5, 0),
    ]
    checks = warm = refuted = 0
    for g in graphs:
        undo = []
        for _ in range(40):
            r = rng.random()
            if r < 0.4 and g.n > 12:
                v = rng.choice(g.vertices())
                nbrs = sorted(g.neighbors(v))
                undo.append(g.remove_vertices_with_undo({v, *rng.sample(nbrs, min(len(nbrs), rng.randrange(3)))}))
            elif r < 0.6 and undo:
                try:
                    g.restore_vertices(undo.pop())
                except (DegreeOverflow, UnknownVertex):
                    pass  # refused: an edge or a deletion since took its place
            elif r < 0.8:
                free = [v for d in (0, 1, 2) for v in sorted(g.degree_bucket(d))]
                u, v = rng.sample(free, 2) if len(free) > 1 else (0, 0)
                if u != v and not g.has_edge(u, v):
                    g.add_edge(u, v)
            elif r < 0.9 and g.m:
                g.remove_edge(*rng.choice(g.edges()))
            g.validate()
            if g.n < 2:
                break
            label = two_edge_components(g)
            for seeds in seed_sets(g, rng, 4):
                warm += g._ears is not None and bool(g._ears[0])
                same = len({label[v] for v in seeds}) == 1
                assert g.joined(seeds, 2) == same, (g.edges(), seeds)
                checks += 1
                refuted += not same
    assert checks > 400 and warm > 0.7 * checks, (checks, warm)
    assert 0.1 * checks < refuted < 0.9 * checks, (checks, refuted)


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
        for g, seeds, paths in ((apart, {length - 1, b}, 1), (bridged, {0, b}, 2)):
            g._adj.reads = 0
            assert not g.joined(seeds, paths)
            assert g._adj.reads < 100, (seeds, paths, g._adj.reads)
    cut = {0, x + length}
    bridged._adj.reads = 0
    assert bridged.smaller_side([1], bridged.neighbors(x + length) - cut, cut) == (1, set(ends) - cut)
    assert bridged._adj.reads < 100, bridged._adj.reads


def test_joined_without_bridges_across_a_bridge():
    # two bridgeless beads joined by one link, which is a bridge
    g = bead_ring(4, 0)
    g.remove_vertices([v for v in g.vertices() if v >= 24])
    assert len(g.find_bridges()) == 1
    assert g.joined({0, 1, 2}, 2)
    assert not g.joined({0, 23}, 2)


def test_joined_without_bridges_single_seed():
    g = bridge_chain(3, 0)
    assert g.joined({0}, 2)
