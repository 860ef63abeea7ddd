"""Bridge splits that cost the small side, and components cut off after a step.

A bridge split counts its candidates' bounds from the smaller side and
carves only the winner, and after a linear step the searches of
Graph.cut_off list only the components that the kept one is not.  Tarjan's
lowlink search (Graph.find_bridges) and plain component searches stay the
reference: every candidate, every bound and every component cut off must be
the one they give, and the work of a solve must stay linear in n.
"""

import random
from dataclasses import replace

import pytest

from conftest import (
    bridge_candidates,
    bridge_chain,
    bridged_pair,
    cold_cut_off,
    random_connected_subcubic,
)
from minmatch import solver
from minmatch.errors import InternalInvariantViolation
from minmatch.generators import gen_named, gen_random_cubic
from minmatch.graph import Graph
from minmatch.matching import lambda6, lambda6_of
from minmatch.reductions import ExtensionBranch, ExtensionRecipe, ReductionStep, bridge_step
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


def smaller_side(g: Graph, bridge) -> set:
    """The side of g - bridge that the split lists, its end included."""
    cut = set(bridge)
    s, side = g.smaller_side(g.neighbors(bridge[0]) - cut, g.neighbors(bridge[1]) - cut, cut)
    return side | {bridge[s]}


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
                small = smaller_side(g, bridge)
                two_large += sum(vs.isdisjoint(small) for vs, _ in got[2][1]) == 2
    assert splits > 300 and forests > 30 and two_large > 3


def test_counted_bounds_equal_those_of_the_parts():
    # each candidate's bound is counted from the smaller side (_census); it
    # must be the sum of the parts' own bounds
    checked = 0
    for g in graphs_with_bridges():
        for bridge in sorted(g.find_bridges()):
            small = smaller_side(g, bridge)
            assert len(small) <= g.n - len(small)
            for name, removed, parts in solver._candidates(g, bridge):
                rest = set(g.iter_vertices()).difference(removed)
                for vs, _ in parts:
                    part = g.subgraph(rest if vs is None else vs)
                    assert part.is_connected() and not part.is_cubic()
                    assert lambda6_of(*solver._census(g, vs, removed)) == lambda6(part)
                    checked += 1
    assert checked > 1000


def test_split_carves_the_winner():
    # solve's split takes the candidate of least bound, replay's the one it
    # is given; both carve exactly its parts, and undo puts g back.  No
    # solve in the corpora reaches a forest split, so here every candidate
    # that meets the bound is split directly
    splits = solved = 0
    carved_cases = set()
    for g in graphs_with_bridges():
        for bridge in sorted(tarjan(g)):
            step = bridge_step(bridge)
            if not g.degree_bucket(1):  # where a split meets the bound a priori
                h = g.copy()
                recorded, undo, tasks = solver._split(h, step)
                parts = dict(bridge_candidates(g, bridge))[recorded.case]
                assert [t[1:] for t in tasks] == [(g.subgraph(vs), c) for vs, c in parts]
                assert undo[1:] == ({}, [])  # a split deletes and adds nothing
                solver._undo(h, *undo)
                assert h == g
                h.validate()
                solved += 1
            for name, parts in bridge_candidates(g, bridge):
                h = g.copy()
                bound = sum(lambda6(g.subgraph(vs)) // 6 for vs, _ in parts)
                bound += name == "forest"
                if bound > lambda6(g) // 6:
                    with pytest.raises(InternalInvariantViolation, match="misses the bound a priori"):
                        solver._split(h, replace(step, case=name))
                    continue
                recorded, undo, tasks = solver._split(h, replace(step, case=name))
                assert recorded.case == name and not recorded.added_edges
                assert [t[1:] for t in tasks] == [(g.subgraph(vs), c) for vs, c in parts]
                solver._undo(h, *undo)
                assert h == g
                carved_cases.add(name)
            splits += 1
    assert splits > 100 and solved > 10
    assert carved_cases == {"gamma0", "gamma1", "forest"}


def test_replay_is_the_same_engine(monkeypatch):
    # replay cuts off components after each recorded linear step, as solve
    # does after each candidate it tries, splits where solve split, and
    # searches for no bridge before a step: only the source of each step
    # differs
    count = {"reduced": 0, "split": 0, "find_bridges": 0}
    reduced, split, find = solver._reduced, solver._split, Graph.find_bridges

    def counted_reduced(g, step):
        count["reduced"] += 1
        return reduced(g, step)

    def counted_split(g, step):
        count["split"] += 1
        return split(g, step)

    def counted_find(g):
        count["find_bridges"] += 1
        return find(g)

    monkeypatch.setattr(solver, "_reduced", counted_reduced)
    monkeypatch.setattr(solver, "_split", counted_split)
    monkeypatch.setattr(Graph, "find_bridges", counted_find)
    graphs = trace_corpus() + [bridge_chain(k, seed) for k, seed in ((5, 0), (30, 3), (60, 1))]
    splits = rejected = 0
    for g in graphs:
        count.update(dict.fromkeys(count, 0))
        cert = solve(g)
        solved = dict(count)
        count.update(dict.fromkeys(count, 0))
        assert solver.replay(g, cert) == cert.matching
        linear = sum(s.rule not in ("BASE_SMALL", "K33_SPECIAL", "BRIDGE") for s in cert.trace)
        bridges = sum(s.rule == "BRIDGE" for s in cert.trace)
        assert count == {"reduced": linear, "split": bridges, "find_bridges": 0}
        assert solved["reduced"] >= linear and solved["split"] == bridges
        assert solved["find_bridges"] == 0
        splits += bridges
        rejected += solved["reduced"] - linear
    assert splits >= 2 and rejected >= 1

    # a recorded step is the only candidate: replay never asks the rules,
    # even where they would rescue a step that leaves a cubic graph.
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
    assert solver.select_rule(g, refused={back.added_edges}) == cert.trace[0]
    asked = []
    rules = solver.select_rule
    monkeypatch.setattr(solver, "select_rule", lambda *args: asked.append(args) or rules(*args))
    trace = [back] + cert.trace[1:]
    with pytest.raises(InternalInvariantViolation, match="test produced a cubic component"):
        solver.replay(g, replace(cert, trace=trace))
    assert asked == []


def random_deletions():
    """(g less the deleted set, the boundary of the deletion) for ten
    random deletions from each of graphs_with_bridges: a vertex, some of its
    neighbours and, now and then, one more vertex anywhere."""
    rng = random.Random(7)
    for g in graphs_with_bridges():
        for _ in range(10):
            h = g.copy()
            v = rng.choice(h.vertices())
            deleted = {v} | set(rng.sample(sorted(h.neighbors(v)), rng.randrange(0, h.degree(v) + 1)))
            if rng.random() < 0.3:
                deleted.add(rng.choice(h.vertices()))
            if len(deleted) >= h.n - 2:
                continue
            saved = h.remove_vertices_with_undo(deleted)
            yield h, solver._boundary(saved, [])


def test_cut_off_on_deleted_sets():
    # Graph.cut_off from the boundary of arbitrary deletions, against the
    # components listed whole: every component but one is cut off, and the
    # one left is at least as large as each
    split = whole = 0
    for h, boundary in random_deletions():
        sides = h.cut_off(boundary)
        comps = h.connected_components()
        kept = [c for c in comps if c not in sides]
        assert len(kept) == 1 and len(sides) == len(comps) - 1, (h.edges(), boundary)
        assert all(len(side) <= len(kept[0]) for side in sides)
        split += bool(sides)
        whole += not sides
    assert split > 100 and whole > 100


def twin_blobs(first: int, second: int) -> tuple[Graph, set[int], set[int]]:
    """Two copies of one 10-vertex cubic graph less an edge, numbered from
    `first` and from `second`, whose freed ends are joined to x and to y,
    which are adjacent; returns the graph less x and y, which is two equal
    components, and the two components, the copy numbered from `first`
    first.  Each holds two vertices of the deletion's boundary."""
    blob = gen_random_cubic(10, 3)
    a, b = blob.edges()[0]
    blob.remove_edge(a, b)
    x, y = 100, 101
    edges = [(x, y)]
    for off, end in ((first, x), (second, y)):
        edges += [(u + off, v + off) for u, v in blob.edges()] + [(a + off, end), (b + off, end)]
    g = Graph.from_edges(edges)
    g.remove_vertices_with_undo({x, y})
    return g, {v + first for v in blob.vertices()}, {v + second for v in blob.vertices()}


def test_cut_off_keeps_the_cold_searches_component():
    # the joined set grows in place, so a later search starts from all that
    # the step proved joined; what it cuts off, in which order, and the
    # component it keeps must still be what searches from the joined
    # boundary vertices alone give, ties included
    calls = cut = 0
    for h, boundary in random_deletions():
        sides = h.cut_off(boundary)
        assert sides == cold_cut_off(h, boundary), (h.edges(), boundary)
        calls += 1
        cut += bool(sides)
    assert calls > 500 and cut > 100
    # two equal components, each with two boundary vertices: the boundary
    # sorted, the higher-numbered copy's first vertex is searched for from
    # the lower copy's two, which a search joined and so grew the set, and
    # the tie goes to the searched side, so the lower copy is kept,
    # whichever way round the copies are numbered.  Renamed at random, the
    # four come in other orders, some with a search after the cut
    for first, second in ((0, 50), (50, 0)):
        g, one, two = twin_blobs(first, second)
        boundary = {v for v in g.iter_vertices() if g.degree(v) < 3}
        assert len(boundary & one) == len(boundary & two) == 2
        sides = g.cut_off(boundary)
        assert sides == cold_cut_off(g, boundary) == [two if first == 0 else one]
        rng = random.Random(first)
        for _ in range(30):
            names = list(g.iter_vertices())
            rng.shuffle(names)
            renamed = dict(zip(g.iter_vertices(), names))
            h = Graph.from_edges([(renamed[u], renamed[v]) for u, v in g.edges()])
            b = {renamed[v] for v in boundary}
            assert h.cut_off(b) == cold_cut_off(h, b)


def test_step_that_deletes_the_whole_graph():
    # the last linear step of this 12-vertex graph leaves no vertex: no
    # component, so no task, and nothing to carve
    g = random_connected_subcubic(12, 156, 0)
    cert = solve(g)
    assert cert.valid
    assert any(s.rule not in ("BASE_SMALL", "K33_SPECIAL") for s in cert.trace)
    assert solver.replay(g, cert) == cert.matching


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
    # no bridge search and no component listing of the whole graph: a step
    # cuts off components by searches from its boundary, and a split lists
    # the smaller side of its bridge.  Every vertex a split or a carving
    # lists or copies, and every side cut off, is on the smaller side of its
    # cut, so the totals are linear in n, where walking the larger side at
    # every cut would be quadratic in the number of blobs
    count = {"find_bridges": 0, "components": 0, "listed": 0, "cut_off": 0}
    find, components = Graph.find_bridges, Graph.connected_components
    side, cut_off, carve = Graph.smaller_side, Graph.cut_off, solver._carve

    def counted_find(g):
        count["find_bridges"] += 1
        return find(g)

    def counted_components(g):
        count["components"] += 1
        return components(g)

    def counted_side(g, a, b, cut):
        found = side(g, a, b, cut)
        count["listed"] += 0 if found is None else len(found[1])
        return found

    def counted_cut_off(g, boundary):
        sides = cut_off(g, boundary)
        count["cut_off"] += sum(map(len, sides))
        return sides

    def counted_carve(g, removed, parts):
        count["listed"] += len(removed) + sum(len(vs) for vs, _ in parts if vs is not None)
        return carve(g, removed, parts)

    monkeypatch.setattr(Graph, "find_bridges", counted_find)
    monkeypatch.setattr(Graph, "connected_components", counted_components)
    monkeypatch.setattr(Graph, "smaller_side", counted_side)
    monkeypatch.setattr(Graph, "cut_off", counted_cut_off)
    monkeypatch.setattr(solver, "_carve", counted_carve)
    for k, seed in ((20, 1), (20, 2), (40, 1), (40, 2), (80, 1), (80, 2), (1600, 1)):
        g = bridge_chain(k, seed)
        for key in count:
            count[key] = 0
        assert solve(g).valid
        assert count["find_bridges"] == count["components"] == 0, (k, seed, count)
        assert count["listed"] <= 6 * g.n, (k, seed, count)
        assert count["cut_off"] <= g.n, (k, seed, count)
