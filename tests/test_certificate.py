"""The boundary certificate against the reference scans.

After a linear step on a clean graph (connected, every bridge a pendant
edge), the solver skips the connectivity check and the next bridge search
when the step's boundary lies in one 2-edge-connected component of a ball
around it.  Tarjan's lowlink search (Graph.find_bridges) and is_connected
stay the reference: every positive certificate must agree with them, and the
traces must be the ones the solver makes without any certificate.
"""

import random

import pytest

from conftest import bead_ring, bridge_chain, random_connected_subcubic
from minmatch import solver
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
        (s.rule, s.case, sorted(s.deleted), sorted(s.added_edges), s.meta.get("bridge"))
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


@pytest.mark.parametrize("seed", range(4))
def test_joined_without_bridges_never_proves_a_false_case(seed):
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
        vertices = g.vertices()
        for _ in range(40):
            v = rng.choice(vertices)
            # around one vertex, as a step's boundary is, or anywhere
            pool = sorted(g.neighbors(v) | {v}) if rng.random() < 0.5 else vertices
            seeds = set(rng.sample(pool, min(len(pool), rng.randrange(2, 7))))
            same = len({label[v] for v in seeds}) == 1
            if g.joined_without_bridges(seeds):
                assert same, (g.edges(), seeds)
                proved += 1
            elif not same:
                refuted += 1
    assert proved > 20 and refuted > 20


def test_joined_without_bridges_across_a_bridge():
    # two bridgeless beads joined by one link, which is a bridge
    g = bead_ring(4, 0)
    g.remove_vertices([v for v in g.vertices() if v >= 24])
    assert len(g.find_bridges()) == 1
    assert g.joined_without_bridges({0, 1, 2})
    assert not g.joined_without_bridges({0, 23})


def test_joined_without_bridges_single_seed():
    g = bridge_chain(3, 0)
    assert g.joined_without_bridges({0})
