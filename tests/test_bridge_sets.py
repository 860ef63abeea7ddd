"""Bridge sets carried by the engine, and bridge splits that cost the small side.

A task carries its non-pendant bridges when they are known, so that the
bridge search does not run again after every step, and a bridge split counts
its candidates' bounds from the smaller side and carves only the winner.
Tarjan's lowlink search (Graph.find_bridges) and plain component searches
stay the reference: every carried set, every candidate and every bound must
be the one they give, and the work a split does must stay linear in n.
"""

import random
from dataclasses import replace

import pytest

from conftest import (
    bead_ring,
    bridge_candidates,
    bridge_chain,
    bridged_pair,
    random_connected_subcubic,
)
from minmatch import solver
from minmatch.errors import InternalInvariantViolation
from minmatch.generators import gen_named
from minmatch.graph import Graph, edge
from minmatch.matching import lambda6, lambda6_of
from minmatch.reductions import RULE_BRIDGE, ExtensionBranch, ExtensionRecipe, ReductionStep
from minmatch.solver import PendantConstraint, solve
from test_trace_digest import corpus as trace_corpus


def tarjan(g: Graph, find=Graph.find_bridges) -> set:
    """Reference: the non-pendant bridges of g.  The search is bound when
    this module loads, so a test that counts Graph.find_bridges calls does
    not count these."""
    return {e for e in find(g) if min(g.degree(e[0]), g.degree(e[1])) > 1}


def sparse_shape(seed: int, n: int, density: float) -> Graph:
    """A connected subcubic graph from a degree-capped random edge subset:
    trees, tails and theta graphs with many bridges."""
    rng = random.Random(seed)
    g = Graph.from_edges((), range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < density and g.degree(u) < 3 and g.degree(v) < 3:
            g.add_edge(u, v)
    return g.subgraph(max(g.connected_components(), key=len))


def relabelled(g: Graph, seed: int) -> Graph:
    """g with its vertices renamed at random, so that the least bridge, and
    the side its lesser end is on, fall anywhere."""
    names = g.vertices()
    random.Random(seed).shuffle(names)
    rename = dict(zip(g.vertices(), names))
    return Graph.from_edges((rename[u], rename[v]) for u, v in g.edges())


def graphs_with_bridges():
    graphs = [bridge_chain(k, seed) for k, seed in ((3, 0), (5, 1), (8, 2))]
    graphs += [bridged_pair(12, seed) for seed in range(3)]
    graphs += [
        random_connected_subcubic(n, seed, d)
        for n, seed, d in ((40, 14, 0), (40, 25, 6), (40, 28, 2), (120, 6, 9))
    ]
    graphs += [sparse_shape(seed, 24, 0.1) for seed in range(40)]
    # forest candidates need 4n - m divisible by 6 on both sides, which no
    # tree side meets: keep the shapes that have one
    for n, density in ((24, 0.1), (30, 0.08)):
        shapes = (sparse_shape(seed, n, density) for seed in range(40, 300))
        graphs += [
            g for g in shapes if any(len(reference_candidates(g, b)) == 3 for b in g.find_bridges())
        ]
    return [g for g in graphs if g.n > 2]


def reference_candidates(g: Graph, bridge):
    """The candidate splits, built from whole-graph component searches."""
    u0, u1 = bridge
    h = g.copy()
    h.remove_edge(u0, u1)
    side0, side1 = h.component_of(u0), h.component_of(u1)
    out = [
        ("gamma0", ((side0 | {u1}, PendantConstraint(u1, bridge)), (side1, None))),
        ("gamma1", ((side1 | {u0}, PendantConstraint(u0, bridge)), (side0, None))),
    ]
    m0 = sum(h.degree(v) for v in side0) // 2
    m1 = h.m - m0
    if (4 * len(side0) - m0) % 6 == 0 and (4 * len(side1) - m1) % 6 == 0:
        h.remove_vertices_with_undo(bridge)
        comps = h.connected_components()
        comps.sort(key=lambda c: next(iter(c)) not in side0)
        out.append(("forest", tuple((c, None) for c in comps)))
    return out


def test_candidates_match_whole_graph_searches():
    splits = forests = two_large = 0
    for g in graphs_with_bridges():
        for bridge in sorted(g.find_bridges()):
            got = bridge_candidates(g, bridge)
            assert got == reference_candidates(g, bridge), (g.edges(), bridge)
            splits += 1
            if len(got) == 3:
                forests += 1
                # the larger side less its end splits in two: one part is
                # left in g, and its place in preorder is found by walking g
                small = solver._candidates(g, bridge, None)[1]
                two_large += sum(vs.isdisjoint(small) for vs, _ in got[2][1]) == 2
    assert splits > 300 and forests > 30 and two_large > 3


def test_counted_bounds_equal_those_of_the_parts():
    # each candidate's bound is counted from the smaller side (_census); it
    # must be the sum of the parts' own bounds, with or without the known
    # bridges that let the larger side's components go unsearched
    checked = 0
    for g in graphs_with_bridges():
        known = tarjan(g)
        for bridge in sorted(g.find_bridges()):
            for bridges in (None, known):
                _, small, candidates = solver._candidates(g, bridge, bridges)
                assert len(small) <= g.n - len(small)
                for name, removed, parts in candidates:
                    rest = set(g.iter_vertices()).difference(removed)
                    for vs, _ in parts:
                        part = g.subgraph(rest if vs is None else vs)
                        assert part.is_connected() and not part.is_cubic()
                        assert lambda6_of(*solver._census(g, vs, removed)) == lambda6(part)
                        checked += 1
    assert checked > 1000


def test_split_carves_the_winner_and_shares_the_bridges():
    splits = shared = 0
    for g in graphs_with_bridges():
        for bridge in sorted(tarjan(g)):
            step = ReductionStep(
                RULE_BRIDGE, None, frozenset(), frozenset(), None, None, bridge
            )
            if not g.degree_bucket(1):  # where solve splits, and a candidate meets the bound
                h = g.copy()
                recorded, carved, tasks = solver._split(h, step, tarjan(h))
                parts = dict(bridge_candidates(g, bridge))[recorded.case]
                assert [(t[1], t[2]) for t in tasks] == [(g.subgraph(vs), c) for vs, c in parts]
                for t in tasks:
                    assert t[3] == (None if recorded.case == "forest" else tarjan(t[1]))
                solver._undo(h, carved, {}, [])
                assert h == g
                h.validate()
                shared += 1
            # replay carves the candidate it is given, if it meets the bound
            for name, parts in bridge_candidates(g, bridge):
                h = g.copy()
                bound = sum(lambda6(g.subgraph(vs)) // 6 for vs, _ in parts)
                bound += name == "forest"
                if bound > lambda6(g) // 6:
                    with pytest.raises(InternalInvariantViolation, match="misses the bound a priori"):
                        solver._split(h, replace(step, case=name), None)
                    continue
                _, carved, tasks = solver._split(h, replace(step, case=name), None)
                assert [t[1:3] for t in tasks] == [(g.subgraph(vs), c) for vs, c in parts]
                assert all(t[3] is None for t in tasks)
                solver._undo(h, carved, {}, [])
                assert h == g
            splits += 1
    assert splits > 100 and shared > 10


def test_carried_bridge_sets_match_tarjan(monkeypatch):
    # at every dispatch, a carried set is exactly the non-pendant bridges
    seen = {"known": 0, "bridged": 0, "with_pendants": 0}
    rules = solver.select_rule

    def checked(g, constraint=None, bridges=None):
        if bridges is not None:
            assert bridges == tarjan(g), g.edges()
            seen["known"] += 1
            seen["bridged"] += bool(bridges)
            seen["with_pendants"] += bool(bridges) and bool(g.degree_bucket(1))
        return rules(g, constraint, bridges)

    monkeypatch.setattr(solver, "select_rule", checked)
    graphs = graphs_with_bridges() + [bead_ring(k, seed) for k, seed in ((4, 0), (6, 1))]
    graphs += [gen_named("P_n", 40), bridge_chain(30, 3)]
    # the least bridge anywhere: a gamma part that keeps the larger side, and
    # its bridges, starts with a pendant step
    graphs += [relabelled(bridge_chain(k, seed), seed) for k, seed in ((6, 4), (10, 5), (20, 6))]
    graphs += [relabelled(g, seed) for seed, g in enumerate(graphs_with_bridges()[:10])]
    for g in graphs:
        assert solve(g).valid
    assert seen["known"] > 300 and seen["bridged"] > 100 and seen["with_pendants"] > 10


def test_replay_is_the_same_engine(monkeypatch):
    # replay searches for bridges, carries the sets and makes the boundary
    # tests where solve does: only the source of each step differs
    count = {"find_bridges": 0, "joined2": 0}
    seen = {"known": 0, "bridged": 0}
    find, joined, replayed = Graph.find_bridges, Graph.joined, solver._replayed

    def counted_find(g):
        count["find_bridges"] += 1
        return find(g)

    def counted_joined(g, seeds, paths=1):
        count["joined2"] += paths == 2
        return joined(g, seeds, paths)

    def checked_replayed(recorded):
        source = replayed(recorded)

        def checked(g, constraint, bridges):
            if bridges is not None:
                assert bridges == tarjan(g), g.edges()
                seen["known"] += 1
                seen["bridged"] += bool(bridges)
            return source(g, constraint, bridges)

        return checked

    monkeypatch.setattr(Graph, "find_bridges", counted_find)
    monkeypatch.setattr(Graph, "joined", counted_joined)
    monkeypatch.setattr(solver, "_replayed", checked_replayed)
    graphs = trace_corpus() + [bridge_chain(k, seed) for k, seed in ((5, 0), (30, 3), (60, 1))]
    for g in graphs:
        count.update(dict.fromkeys(count, 0))
        cert = solve(g)
        solved = dict(count)
        count.update(dict.fromkeys(count, 0))
        assert solver.replay(g, cert) == cert.matching
        assert count == solved, (g.edges(), solved, count)
    assert seen["known"] > 400 and seen["bridged"] > 100

    # a recorded step is the only candidate: a `later` it comes with is not
    # read, even where it would rescue a step that leaves a cubic graph.
    # Petersen with the edge (0, 1) subdivided by 10; the step puts it back
    g = gen_named("PETERSEN")
    g.remove_edge(0, 1)
    g.add_edge(0, 10)
    g.add_edge(1, 10)
    cert = solve(g)
    back = ReductionStep(
        rule="DEG2_TWO_DEG3", case="test", deleted=frozenset({10}),
        added_edges=frozenset({(0, 1)}),
        extension=ExtensionRecipe((ExtensionBranch((), (), ()),)), budget=1,
    )
    later = iter([cert.trace[0]])
    trace = [replace(back, later=later)] + cert.trace[1:]
    with pytest.raises(InternalInvariantViolation, match="test produced a cubic component"):
        solver.replay(g, replace(cert, trace=trace))
    assert next(later) == cert.trace[0]


def test_lemma_on_deleted_sets():
    # _dropped on arbitrary deletions, against Tarjan after the step: exact
    # whenever it answers; a deleted set that is not connected, with bridges
    # known, gets no answer
    rng = random.Random(7)
    answered = refused = apart = 0
    for g in graphs_with_bridges():
        for _ in range(10):
            h = g.copy()
            known = tarjan(h)
            v = rng.choice(h.vertices())
            deleted = {v} | set(rng.sample(sorted(h.neighbors(v)), rng.randrange(0, h.degree(v) + 1)))
            if rng.random() < 0.3:
                deleted.add(rng.choice(h.vertices()))
            if len(deleted) >= h.n - 2:
                continue
            connected = h.subgraph(deleted).is_connected()
            saved = h.remove_vertices_with_undo(deleted)
            dropped = solver._dropped(h, saved, [], set(known))
            if known and not connected:
                assert dropped is None
                apart += 1
            elif dropped is None:
                refused += 1
            else:
                assert h.is_connected()
                assert known - dropped == tarjan(h), (g.edges(), deleted)
                answered += 1
    assert answered > 100 and refused > 20 and apart > 20


def test_step_that_deletes_the_whole_graph():
    # the last linear step of this 12-vertex graph leaves no vertex: no
    # component, so no task, and nothing to carve
    g = random_connected_subcubic(12, 156, 0)
    cert = solve(g)
    assert cert.valid
    assert any(s.rule not in ("BASE_SMALL", "K33_SPECIAL") for s in cert.trace)
    assert solver.replay(g, cert) == cert.matching


def test_contraction_is_recognised_from_the_step():
    g = gen_named("C_n", 12)
    saved = g.remove_vertices_with_undo({3, 4})
    assert solver._contraction(saved, [edge(2, 5)])
    assert not solver._contraction(saved, [edge(2, 6)])
    g = gen_named("C_n", 12)
    saved = g.remove_vertices_with_undo({3, 5})
    assert not solver._contraction(saved, [edge(2, 6)])
    # two vertices with the same two other neighbours: adjacent of degree 3,
    # or apart of degree 2, neither is a subdivided edge
    for edges in ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)], [(0, 2), (0, 3), (1, 2), (1, 3)]):
        g = Graph.from_edges(edges)
        saved = g.remove_vertices_with_undo({0, 1})
        assert not solver._contraction(saved, [(2, 3)])


def test_census_of_any_part():
    # _census against the counts of the subgraph itself, for arbitrary
    # vertex sets and arbitrary removals, isolated vertices included
    rng = random.Random(3)
    for g in graphs_with_bridges()[:30] + [gen_named("P_n", 7), Graph.from_edges([(0, 1), (0, 2), (0, 3)])]:
        for _ in range(10):
            chosen = set(rng.sample(g.vertices(), rng.randrange(1, g.n)))
            for vs, removed in ((chosen, ()), (None, chosen)):
                part = g.subgraph(chosen if vs is not None else set(g.iter_vertices()) - chosen)
                expected = (part.n, part.m, len(part.degree_bucket(1)))
                assert solver._census(g, vs, removed) == expected, (g.edges(), chosen, vs is None)


def test_bridge_chain_scans_and_carves_stay_linear(monkeypatch):
    # one search of the whole chain; the only other scans are of blob-sized
    # parts whose certificate was refuted by a new bridge.  Every vertex a
    # split or a carving lists or copies is on the smaller side of its
    # bridge, so the total is linear in n, where walking the larger side at
    # every split would be quadratic in the number of blobs
    count = {"big": 0, "scanned": 0, "listed": 0}
    find, side, carve = Graph.find_bridges, Graph.smaller_side, solver._carve

    def counted_find(g):
        count["big"] += g.n > 24
        count["scanned"] += g.n
        return find(g)

    def counted_side(g, a, b, cut):
        found = side(g, a, b, cut)
        count["listed"] += 0 if found is None else len(found[1])
        return found

    def counted_carve(g, removed, parts):
        count["listed"] += len(removed) + sum(len(vs) for vs, _, _ in parts if vs is not None)
        return carve(g, removed, parts)

    monkeypatch.setattr(Graph, "find_bridges", counted_find)
    monkeypatch.setattr(Graph, "smaller_side", counted_side)
    monkeypatch.setattr(solver, "_carve", counted_carve)
    for k in (20, 40, 80):
        for seed in (1, 2):
            g = bridge_chain(k, seed)
            for key in count:
                count[key] = 0
            assert solve(g).valid
            assert count["big"] <= 2, (k, seed, count)
            assert count["scanned"] <= 2 * g.n, (k, seed, count)
            assert count["listed"] <= 6 * g.n, (k, seed, count)
