import inspect
import random
import sys
import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bead_ring,
    bridge_candidates,
    bridge_chain,
    bridged_pair,
    random_connected_subcubic,
    reduced,
)
from minmatch import reductions as R
from minmatch import solver
from minmatch.errors import (
    Disconnected,
    EmptyGraph,
    InternalInvariantViolation,
    InvalidConstraint,
    PreconditionViolated,
)
from minmatch.generators import (
    enumerate_connected_subcubic,
    gen_gk,
    gen_named,
    gen_random_cubic,
)
from minmatch.graph import Graph, edge
from minmatch.matching import (
    bound_report,
    is_matching,
    is_maximal,
    matching_within_bound,
)
from minmatch.oracle import gamma_exact
from minmatch.reductions import (
    ExtensionBranch,
    ExtensionRecipe,
    ReductionStep,
)
from minmatch.solver import (
    PendantConstraint,
    replay,
    select_rule,
    solve,
    solve_all,
    solve_avoiding,
)
from test_trace_digest import corpus as trace_corpus


def assert_sound(g, cert):
    assert is_matching(g, cert.matching)
    assert is_maximal(g, cert.matching)
    assert matching_within_bound(g, cert.matching)
    assert cert.valid


# -- solve on named instances ----------------------------------------------------

def test_solve_k33_special():
    cert = solve(gen_named("K33"))
    assert len(cert.matching) == 3
    assert cert.k33_special
    assert cert.trace[0].rule == "K33_SPECIAL"
    assert_sound(gen_named("K33"), cert)


def test_solve_k2():
    cert = solve(gen_named("K2"))
    assert cert.matching == frozenset({(0, 1)})
    assert cert.bound.lambda_times_6 == 6


def test_solve_g3_within_floor():
    g = gen_gk(3)
    cert = solve(g)
    assert_sound(g, cert)
    assert len(cert.matching) <= 7  # floor((72-27+2)/6)
    assert gamma_exact(g).gamma == 7


def test_solve_single_vertex():
    cert = solve(Graph.from_edges([], vertices=[0]))
    assert cert.matching == frozenset()
    assert cert.valid


def test_solve_rejects_disconnected_and_empty():
    with pytest.raises(Disconnected):
        solve(Graph.from_edges([(0, 1), (2, 3)]))
    with pytest.raises(EmptyGraph):
        solve(Graph())


def test_solve_all_splits_components():
    g = Graph.from_edges([(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    certs = solve_all(g)
    assert [len(c.matching) for c in certs] == [1, 2]
    assert all(c.valid for c in certs)


# -- rule selection and application on fixed instances -----------------------------

def test_degree1_step_on_p4():
    g = gen_named("P_n", 4)
    step = select_rule(g)
    assert step.rule == "DEGREE1"
    assert step.deleted == {0, 1, 2}
    h = reduced(g, step)
    assert h.vertices() == [3] and h.m == 0
    M = step.extension.apply(set())
    assert M == frozenset({(1, 2)})
    assert is_maximal(g, M)


def test_degree1_prefers_support_of_degree_two():
    # pendant u=0 at v=1; v's neighbours 2 (degree 1) and 3 (degree >= 2):
    # the support must be vertex 3, not the other pendant
    g = Graph.from_edges([(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (3, 5)])
    step = select_rule(g)
    assert step.rule == "DEGREE1"
    assert step.deleted == {0, 1, 3}


def test_adjacent_deg2_contraction_on_c6():
    g = gen_named("C_n", 6)
    step = select_rule(g)
    assert (step.rule, step.case) == ("ADJ_DEG2", "contract")
    assert step.deleted == {0, 1}
    assert step.added_edges == {(2, 5)}
    h = reduced(g, step)
    assert (h.n, h.m) == (4, 4)
    assert len(h.degree_bucket(2)) == 4  # a 4-cycle
    # both extension branches add exactly one edge
    M = step.extension.apply({(3, 4), (2, 5)})
    assert len(M) == 3 and (0, 5) in M and (1, 2) in M and (2, 5) not in M
    M2 = step.extension.apply({(2, 3), (4, 5)})
    assert M2 == frozenset({(2, 3), (4, 5), (0, 1)})
    assert is_maximal(g, M) and is_maximal(g, M2)


def test_adjacent_deg2_triangle_case():
    # two adjacent degree-2 vertices with a shared third neighbour force a
    # bridge at that neighbour, so the case is reachable only through the
    # step builder directly, never behind the bridge rule
    from minmatch.reductions import adjacent_deg2_step

    g = Graph.from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]
    )
    step = adjacent_deg2_step(g)
    assert (step.rule, step.case) == ("ADJ_DEG2", "triangle")
    assert step.deleted == {0, 1, 2}
    sub = gamma_exact(reduced(g, step)).witness
    M = step.extension.apply(set(sub))
    assert is_maximal(g, M)
    assert (0, 2) in M


def test_cubic_finish_on_q3():
    g = gen_named("CUBE_Q3")
    step = select_rule(g)
    assert (step.rule, step.case) == ("CUBIC_FINISH", "crossing")
    assert step.deleted == {0, 1}
    h = reduced(g, step)
    assert h.n == 6
    assert h.cubic_components() == []


def test_cubic_finish_shared_neighbour():
    # K4 with every edge subdivided... simpler: take the 3-prism, whose
    # adjacent vertices share no neighbour except on the triangles
    prism = Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    step = select_rule(prism)
    assert step.rule == "CUBIC_FINISH"
    assert step.case == "shared-neighbour"
    M = step.extension.apply(set(solve(reduced(prism, step)).matching))
    assert is_maximal(prism, M)


def test_select_noncubic_edge_q3(monkeypatch):
    # Q3 is below the base size; lower it so that the engine picks the edge
    monkeypatch.setattr(solver, "BASE_SIZE", 7)
    g = gen_named("CUBE_Q3")
    cert = solve(g)
    step = cert.trace[0]
    assert (step.rule, step.case, step.deleted) == ("CUBIC_FINISH", "crossing", {0, 1})
    (e,) = step.added_edges
    assert e in {(2, 3), (2, 5), (3, 4), (4, 5)}
    assert e not in set(g.edges())
    h = reduced(g, step)
    assert h.cubic_components() == []
    assert h.n == 6
    assert_sound(g, cert)
    assert replay(g, cert) == cert.matching


def test_select_noncubic_edge_petersen():
    g = gen_named("PETERSEN")
    u1, u2 = 0, 1
    v1s = sorted(g.neighbors(u1) - {u2})
    v2s = sorted(g.neighbors(u2) - {u1})
    cert = solve(g)
    step = cert.trace[0]
    assert (step.rule, step.case, step.deleted) == ("CUBIC_FINISH", "crossing", {u1, u2})
    (e,) = step.added_edges
    assert e in {edge(a, b) for a in v1s for b in v2s}
    assert reduced(g, step).cubic_components() == []
    assert_sound(g, cert)


def test_select_noncubic_edge_preconditions():
    g = gen_named("CUBE_Q3")

    def build(*trial):
        raise AssertionError("no step may be built from a bad candidate")

    with pytest.raises(PreconditionViolated):
        R._insertion(g, {0, 1}, set(), [((6, 7),)], build)  # not neighbours of v0
    with pytest.raises(PreconditionViolated):
        R._insertion(g, {0, 1}, set(), [], build)  # no candidate at all
    with pytest.raises(PreconditionViolated):
        R._insertion(g, {0, 1}, set(), [((2, 3),)], build)  # already an edge of g
    # a refused trial is passed over; with every trial refused, the last
    refused = {frozenset({(2, 5)})}
    trials = [((5, 2),), ((3, 4),)]
    assert R._insertion(g, {0, 1}, refused, trials, lambda e: e) == (3, 4)
    assert R._insertion(g, {0, 1}, refused | {frozenset({(3, 4)})}, trials, lambda e: e) == (3, 4)
    assert R._insertion(g, {0, 1}, refused, trials[:1], lambda e: e) == (5, 2)
    assert g == gen_named("CUBE_Q3")


def crossing_graph():
    # a 2.3.2 "main" site whose first candidate, q2 = 9, closes the
    # component {6, 9, 12, 13} into a cubic 4-clique
    return Graph.from_edges([
        (0, 1), (0, 2),
        (1, 3), (1, 4), (2, 5), (2, 6),
        (4, 7), (4, 8), (5, 9), (5, 10),
        (3, 11), (7, 10), (7, 11), (8, 10), (8, 11),
        (6, 12), (6, 13), (9, 12), (9, 13), (12, 13),
    ])


def test_choose_crossing_pair_rejects_cubic_closing_choice():
    g = crossing_graph()
    bad = g.copy()
    bad.remove_vertices_with_undo({0, 1, 2, 4, 5})
    bad.add_edge(3, 7)
    bad.add_edge(6, 9)
    assert bad.cubic_components() == [{6, 9, 12, 13}]
    # the rule gives its first candidate that is not refused, and the engine
    # asks again with each refusal
    step = select_rule(g)
    assert (step.case, step.variant) == ("2.3.2", "main")
    assert step.added_edges == {(3, 7), (6, 9)}
    refused, offered = {step.added_edges}, []
    for _ in range(3):
        step = select_rule(g, refused=refused)
        assert (step.case, step.variant, step.deleted) == ("2.3.2", "main", {0, 1, 2, 4, 5})
        offered.append(step.added_edges)
        refused.add(step.added_edges)
    assert offered == [{(3, 7), (6, 10)}, {(3, 8), (6, 9)}, {(3, 8), (6, 10)}]
    assert g == crossing_graph()
    cert = solve(g)
    assert cert.trace[0].deleted == {0, 1, 2, 4, 5}
    assert cert.trace[0].added_edges == {(3, 7), (6, 10)}
    assert_sound(g, cert)
    assert replay(g, cert) == cert.matching


def test_rejected_candidate_is_undone_exactly(monkeypatch):
    # the rejected first candidate leaves G' disconnected with a cubic K4
    # part, so the engine carves it before it sees the cubic task; g must be
    # back as it was before the engine reduces with the next candidate
    seen = []
    carves = []
    reduce, carve = solver._reduced, solver._carve

    def spy_reduce(g, step):
        seen.append((step.added_edges, g.copy()))
        return reduce(g, step)

    def spy_carve(g, removed, parts):
        rest = set(g.iter_vertices()).difference(removed)  # the part that stays in g
        carves.append(sorted(min(rest if p[0] is None else p[0]) for p in parts))
        return carve(g, removed, parts)

    monkeypatch.setattr(solver, "_reduced", spy_reduce)
    monkeypatch.setattr(solver, "_carve", spy_carve)
    g = crossing_graph()
    cert = solve(g)
    assert [a for a, _ in seen[:2]] == [{(3, 7), (6, 9)}, {(3, 7), (6, 10)}]
    seen[1][1].validate()  # the copy carries g's adjacency and degree buckets
    assert seen[1][1] == seen[0][1] == g
    assert carves[0] == [3, 6]
    assert cert.trace[0].added_edges == {(3, 7), (6, 10)}
    assert replay(g, cert) == cert.matching


def test_rejected_connected_cubic_candidate(monkeypatch):
    # Petersen with the edge (0, 1) subdivided by 10: a hand-made first
    # candidate deletes 10 and adds (0, 1) back, which leaves Petersen,
    # connected and cubic; the next is the step the rules choose
    g = gen_named("PETERSEN")
    g.remove_edge(0, 1)
    g.add_edge(0, 10)
    g.add_edge(1, 10)
    back = ReductionStep(
        rule="DEG2_TWO_DEG3", case="test", deleted=frozenset({10}),
        added_edges=frozenset({(0, 1)}),
        extension=ExtensionRecipe((
            ExtensionBranch(((0, 1),), ((0, 1),), ((0, 10),)),
            ExtensionBranch((), (), ()),
        )),
        budget=1,
    )
    rules = solver.select_rule
    offered = []
    fallback = "rules"  # what the source gives once `back` is refused

    def fake(h, constraint=None, refused=frozenset()):
        if 10 not in h:
            return rules(h, constraint, refused)
        if not refused:
            return back
        assert refused == {back.added_edges} and len(offered) < 3  # asked once per solve
        offered.append(rules(h, constraint, refused) if fallback == "rules" else fallback)
        return offered[-1]

    monkeypatch.setattr(solver, "select_rule", fake)
    cert = solve(g)
    assert cert.trace[0] == offered[0]
    assert 10 in cert.trace[0].deleted and cert.trace[0] != back
    assert_sound(g, cert)
    assert replay(g, cert) == cert.matching
    for fallback in (None, back):  # no step left, or the refused step again
        with pytest.raises(InternalInvariantViolation, match="test produced a cubic component"):
            solve(g)
    assert offered[1:] == [None, back]


def test_choose_crossing_pair_shared_vertex():
    # both candidate lists collapse onto vertex 7, which has two deleted
    # neighbours, so receiving two new edges keeps it within the degree cap
    g = Graph.from_edges([
        (0, 1), (0, 2),
        (1, 3), (1, 4), (2, 5), (2, 6),
        (4, 7), (4, 8), (5, 7), (5, 9),
        (3, 8), (6, 9),
        (8, 10), (9, 10), (10, 11), (7, 11), (3, 11),
    ])
    step = select_rule(g)
    assert (step.case, step.variant) == ("2.3.2", "main")
    assert step.added_edges == {(3, 7), (6, 7)}
    cert = solve(g)
    assert_sound(g, cert)


# -- bridge handling ---------------------------------------------------------------

def two_triangles_bridge():
    return Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )


def split_at_bridge(g, bridge, monkeypatch):
    """Solve with the base case lowered below g's size, and a split at the
    bridge as the first step, so that the split runs even on these small
    graphs; the rules solve its parts."""
    monkeypatch.setattr(solver, "BASE_SIZE", 5)
    rules = solver.select_rule
    monkeypatch.setattr(
        solver, "select_rule",
        lambda h, c=None, refused=frozenset(): R.bridge_step(bridge) if h.n == g.n else rules(h, c, refused),
    )
    cert = solve(g)
    assert_sound(g, cert)
    assert (cert.trace[0].rule, cert.trace[0].bridge) == ("BRIDGE", bridge)
    assert replay(g, cert) == cert.matching
    return cert


def test_bridge_two_triangles(monkeypatch):
    g = two_triangles_bridge()
    M = split_at_bridge(g, (2, 3), monkeypatch).matching
    assert len(M) <= 2  # floor((24-7)/6)
    assert gamma_exact(g).gamma == 2


def test_bridge_two_squares(monkeypatch):
    g = Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7), (0, 4)]
    )
    M = split_at_bridge(g, (0, 4), monkeypatch).matching
    assert len(M) <= 3  # floor(23/6)


def test_bridge_two_k4_minus(monkeypatch):
    half = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]  # K4 minus (0,3)
    other = [(u + 4, v + 4) for u, v in half]
    g = Graph.from_edges(half + other + [(0, 7)])
    assert (g.n, g.m) == (8, 11)
    M = split_at_bridge(g, (0, 7), monkeypatch).matching
    assert len(M) <= 3  # floor(21/6)
    assert gamma_exact(g).gamma <= len(M)


def test_bridge_preconditions(monkeypatch):
    # a recorded split must name a bridge of the graph it is replayed on
    g = two_triangles_bridge()
    cert = split_at_bridge(g, (2, 3), monkeypatch)
    for bad in ((0, 1), (0, 4), None):  # an edge on a cycle, no edge at all, and none named
        step = replace(cert.trace[0], bridge=bad)
        with pytest.raises(InternalInvariantViolation):
            replay(g, replace(cert, trace=[step] + cert.trace[1:]))


def test_some_bridge_candidate_meets_the_bound_a_priori(corpus_n6):
    # the paper's counting argument: at every bridge of a pendant-free graph,
    # the floors of the subproblems' own bounds (plus the bridge edge for
    # forest) already fit within floor(lambda/6) for some candidate
    graphs = [g for g in corpus_n6 if not g.degree_bucket(1)]
    graphs += [bridge_chain(k, seed) for k in (2, 3, 5) for seed in range(4)]
    splits = 0
    for g in graphs:
        target = bound_report(g).lambda_times_6 // 6
        for bridge in sorted(g.find_bridges()):
            bounds = []
            for name, parts in bridge_candidates(g, bridge):
                total = int(name == "forest")
                for verts, _ in parts:
                    part = g.subgraph(verts)
                    for comp in part.connected_components():
                        total += bound_report(part.subgraph(comp)).lambda_times_6 // 6
                bounds.append(total)
            assert min(bounds) <= target, (g.edges(), bridge, bounds)
            splits += 1
    assert splits > 50


def test_stem_of_case_231_is_split(monkeypatch):
    # u = 0 has degree 2 between v1 = 1 and v2 = 6; w11 = 2 and w12 = 3 see
    # v1, x1 = 4 and x2 = 5, which are adjacent, so {1, 2, 3, 4, 5} meets
    # the rest only at the stem (0, 1), and the rule splits there
    g = Graph.from_edges([
        (0, 1), (0, 6), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
        (6, 7), (6, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10),
    ])
    step = select_rule(g)
    assert (step.rule, step.case, step.bridge) == ("BRIDGE", None, (0, 1))
    stems = []
    case231 = R._deg2_case231

    def recorded(*args):
        step = case231(*args)
        if step.rule == "BRIDGE":
            stems.append(step.bridge)
        return step

    monkeypatch.setattr(R, "_deg2_case231", recorded)
    for h in (g, random_connected_subcubic(12, 52, 2), bridge_chain(14, 5)):
        stems.clear()
        cert = solve(h)
        assert_sound(h, cert)
        assert replay(h, cert) == cert.matching
        assert stems and [s.bridge for s in cert.trace if s.rule == "BRIDGE"] == stems


def test_split_when_every_candidate_leaves_a_cubic_part(monkeypatch):
    # the first step of this graph is a case-1 relink whose one candidate
    # leaves a cubic part: asked again with it refused, select_rule returns
    # the split at the least bridge at the deleted set, and the engine takes it
    offered = []
    bridge_at = R.bridge_at

    def recorded(g, vs):
        step = bridge_at(g, vs)
        offered.append(step.bridge)
        return step

    monkeypatch.setattr(R, "bridge_at", recorded)
    g = random_connected_subcubic(16, 971, 1)
    first = select_rule(g)
    assert (first.rule, first.case, first.variant) == ("DEG2_TWO_DEG3", "1", "relink")
    cert = solve(g)
    assert offered == [(1, 5)]
    assert (cert.trace[0].rule, cert.trace[0].case, cert.trace[0].bridge) == ("BRIDGE", "gamma1", (1, 5))
    assert_sound(g, cert)
    assert replay(g, cert) == cert.matching


def test_split_when_every_insertion_is_an_edge():
    # the adjacent degree-2 pair 1, 2 between v1 = 3 and v2 = 4; the
    # outer-independent insertions would join x1 = 7 or x2 = 8 to w21 = 5 or
    # w22 = 6, all edges already, and {0, ..., 8} meets the rest only at
    # (3, 9), where the rule splits
    g = Graph.from_edges([
        (1, 2), (1, 3), (2, 4), (0, 3), (3, 9), (4, 5), (4, 6), (0, 7), (0, 8),
        (5, 7), (5, 8), (6, 7), (6, 8), (10, 12), (10, 13), (11, 12), (11, 13),
        (12, 13), (9, 10), (9, 11),
    ])
    step = select_rule(g)
    assert (step.rule, step.case, step.bridge) == ("BRIDGE", None, (3, 9))
    cert = solve(g)
    assert cert.trace[0] == replace(cert.trace[0], rule="BRIDGE", bridge=(3, 9))
    assert_sound(g, cert)
    assert replay(g, cert) == cert.matching


def test_solve_on_bridged_blobs():
    # the linear rules solve bridged pairs; on bridged_pair(14, 5) case
    # 2.3.1's stem is a bridge, split with its first part anchored
    for g in [bridged_pair(10, seed) for seed in range(5)] + [bridged_pair(14, 5)]:
        cert = solve(g)
        assert_sound(g, cert)
        assert replay(g, cert) == cert.matching
    assert any(s.rule == "BRIDGE" for s in cert.trace)
    assert any(s.rule == "DEGREE1" and s.variant == "anchored" for s in cert.trace)


# -- avoidance ---------------------------------------------------------------------

def test_solve_avoiding_p3():
    g = gen_named("P_n", 3)
    cert = solve_avoiding(g, PendantConstraint(0, (0, 1)))
    assert cert.matching == frozenset({(1, 2)})
    assert cert.valid


def test_solve_avoiding_star():
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    cert = solve_avoiding(g, PendantConstraint(1, (0, 1)))
    assert len(cert.matching) == 1
    assert (0, 1) not in cert.matching


def test_solve_avoiding_k33_minus_pendant():
    g = gen_named("K33_MINUS")
    g.add_edge(0, 6)
    cert = solve_avoiding(g, PendantConstraint(6, (0, 6)))
    assert (0, 6) not in cert.matching
    assert_sound(g, cert)
    assert 6 * len(cert.matching) <= cert.bound.lambda_times_6


def test_solve_avoiding_validates_constraint():
    g = gen_named("P_n", 4)
    with pytest.raises(InvalidConstraint):
        solve_avoiding(g, PendantConstraint(1, (1, 2)))  # not degree 1
    with pytest.raises(InvalidConstraint):
        solve_avoiding(g, PendantConstraint(0, (1, 2)))  # wrong edge
    with pytest.raises(InvalidConstraint):
        solve_avoiding(gen_named("K2"), PendantConstraint(0, (0, 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_solve_avoiding_random_pendants(seed):
    rng = random.Random(seed)
    g = gen_random_cubic(rng.choice([10, 14, 20]), seed)
    # create a pendant by deleting two edges at one vertex
    v = rng.choice(g.vertices())
    nbrs = sorted(g.neighbors(v))
    g.remove_edge(v, nbrs[0])
    g.remove_edge(v, nbrs[1])
    if not g.is_connected():
        return
    cert = solve_avoiding(g, PendantConstraint(v, (v, nbrs[2])))
    assert edge(v, nbrs[2]) not in cert.matching
    assert_sound(g, cert)


# -- exhaustive and randomized soundness --------------------------------------------

def test_exhaustive_soundness_small():
    for n in range(1, 7):
        for g in enumerate_connected_subcubic(n):
            cert = solve(g)
            assert_sound(g, cert)


def test_replay_reproduces_matching_small(corpus_n6):
    for g in corpus_n6[::11]:
        cert = solve(g)
        assert replay(g, cert) == cert.matching


def test_replay_every_certificate_of_the_digest_corpus():
    # gamma0 and gamma1 splits, bridged pairs, chains and cubic n = 100: a
    # replayed split takes its candidate from the recorded case.  No solve
    # is known to choose a forest split; test_split_carves_the_winner
    # replays one directly
    cases = set()
    for g in trace_corpus():
        cert = solve(g)
        assert replay(g, cert) == cert.matching
        cases.update(s.case for s in cert.trace if s.rule == "BRIDGE")
    assert cases == {"gamma0", "gamma1"}


def test_leaf_guards_the_exceptional_graph():
    # no solve reaches these guards, as a reduction that adds edges trips the
    # cubic-task check first: base steps are handed to _leaf directly
    k33 = gen_named("K33")
    special = solve(k33).trace[0]
    assert special.rule == "K33_SPECIAL"
    assert len(solver._leaf(k33, special, None, [])) == 3
    # a K33 task that is not the input: some step came before it
    with pytest.raises(InternalInvariantViolation, match="exceptional 6-vertex component"):
        solver._leaf(k33, special, None, [special])
    # a K33_SPECIAL step on a graph that is not K33 (a 6-cycle on the same
    # vertices), and a plain base step on K33
    cycle = gen_named("C_n", 6)
    assert set(cycle.iter_vertices()) == special.deleted
    with pytest.raises(InternalInvariantViolation, match="wrong kind of graph"):
        solver._leaf(cycle, special, None, [])
    plain = solve(cycle).trace[0]
    assert plain.rule == "BASE_SMALL" and plain.deleted == special.deleted
    with pytest.raises(InternalInvariantViolation, match="wrong kind of graph"):
        solver._leaf(k33, plain, None, [])


def test_replay_rejects_truncated_trace():
    g = gen_random_cubic(40, 3)
    cert = solve(g)
    with pytest.raises(InternalInvariantViolation):
        replay(g, replace(cert, trace=cert.trace[:-1]))


def test_replay_rejects_extra_step():
    g = gen_random_cubic(40, 3)
    cert = solve(g)
    with pytest.raises(InternalInvariantViolation):
        replay(g, replace(cert, trace=cert.trace[:1] + cert.trace))


def test_replay_rejects_tampered_recipe():
    # the last base step loses one edge of its matching
    g = gen_random_cubic(40, 3)
    cert = solve(g)
    i = max(i for i, s in enumerate(cert.trace) if s.rule == "BASE_SMALL")
    (branch,) = cert.trace[i].extension.branches
    tampered = replace(
        cert.trace[i],
        extension=replace(cert.trace[i].extension, branches=(replace(branch, add=branch.add[1:]),)),
    )
    trace = cert.trace[:i] + [tampered] + cert.trace[i + 1:]
    with pytest.raises(InternalInvariantViolation):
        replay(g, replace(cert, trace=trace))


def _with_step(trace, i, **changes):
    return trace[:i] + [replace(trace[i], **changes)] + trace[i + 1:]


def _base_witness(edges):
    return ExtensionRecipe((ExtensionBranch((), (), tuple(edges)),))


def test_replay_rejects_a_step_over_its_budget():
    g = gen_named("P_n", 12)
    cert = solve(g)
    i = next(i for i, s in enumerate(cert.trace) if s.rule == "DEGREE1")
    with pytest.raises(InternalInvariantViolation, match="grew by 1 > 0"):
        replay(g, replace(cert, trace=_with_step(cert.trace, i, budget=0)))


def test_replay_rejects_a_base_witness_over_the_bound():
    # {01, 23} is a maximal matching of P_4, one edge more than lambda allows
    g = gen_named("P_n", 4)
    cert = solve(g)
    trace = _with_step(cert.trace, 0, extension=_base_witness([(0, 1), (2, 3)]))
    with pytest.raises(InternalInvariantViolation, match=r"6\*2 exceeds bound 11"):
        replay(g, replace(cert, trace=trace))


def test_replay_rejects_a_base_witness_that_holds_the_forbidden_edge():
    # step 1 solves the gamma0 split's constrained part; this witness is a
    # maximal matching of that part that holds its forbidden edge
    g = random_connected_subcubic(12, 52, 2)
    cert = solve(g)
    assert (cert.trace[0].case, cert.trace[1].rule) == ("gamma0", "BASE_SMALL")
    trace = _with_step(cert.trace, 1, extension=_base_witness([(1, 6), (2, 4), (7, 9)]))
    with pytest.raises(InternalInvariantViolation, match="avoidance constraint violated"):
        replay(g, replace(cert, trace=trace))


def test_replay_rejects_a_trace_with_a_step_left_over():
    g = gen_named("P_n", 12)
    cert = solve(g)
    with pytest.raises(InternalInvariantViolation, match="trace has unconsumed steps"):
        replay(g, replace(cert, trace=cert.trace + cert.trace[-1:]))


def test_replay_rejects_a_linear_step_without_a_recipe():
    g = gen_named("P_n", 12)
    cert = solve(g)
    assert cert.trace[0].rule == "DEGREE1"
    with pytest.raises(InternalInvariantViolation, match="DEGREE1/None carries no extension recipe"):
        replay(g, replace(cert, trace=_with_step(cert.trace, 0, extension=None)))


def test_replay_rejects_a_base_step_that_misses_a_vertex():
    g = gen_named("P_n", 4)
    cert = solve(g)
    trace = _with_step(cert.trace, 0, deleted=cert.trace[0].deleted - {3})
    with pytest.raises(InternalInvariantViolation, match="base step does not cover the graph"):
        replay(g, replace(cert, trace=trace))


def test_replay_rejects_a_bridge_step_with_an_unknown_candidate():
    g = random_connected_subcubic(12, 52, 2)
    cert = solve(g)
    assert (cert.trace[0].rule, cert.trace[0].case) == ("BRIDGE", "gamma0")
    trace = _with_step(cert.trace, 0, case="gamma2")
    with pytest.raises(InternalInvariantViolation, match=r"no gamma2 candidate at bridge \(1, 6\)"):
        replay(g, replace(cert, trace=trace))


@pytest.mark.parametrize("branch, message", [
    (ExtensionBranch((), ((4, 5),), ()), r"extension removes \(4, 5\) not present in sub-matching"),
    (ExtensionBranch(((4, 5),), (), ((1, 2),)), "no extension branch matched"),
])
def test_replay_rejects_a_recipe_that_does_not_fit_the_sub_matching(branch, message):
    # P_12's pendant step leaves the path 3..11, whose base witness
    # {34, 67, 9 10} lacks its edge 45: a recipe may neither remove 45 nor
    # have only branches that require it
    g = gen_named("P_n", 12)
    cert = solve(g)
    assert (4, 5) not in cert.matching and cert.trace[1].deleted == set(range(3, 12))
    trace = _with_step(cert.trace, 0, extension=ExtensionRecipe((branch,)))
    with pytest.raises(InternalInvariantViolation, match=message):
        replay(g, replace(cert, trace=trace))


def test_public_entry_points_refuse_what_they_cannot_solve():
    with pytest.raises(InvalidConstraint, match="vertex 9 not in graph"):
        solve_avoiding(gen_named("P_n", 4), PendantConstraint(9, (8, 9)))
    with pytest.raises(EmptyGraph, match="cannot solve the empty graph"):
        solve_all(Graph())


def test_replay_of_an_avoiding_certificate():
    # the certificate does not record the constraint, so replay runs without
    # the avoided-edge check; the trace alone still gives the same matching
    for n in (6, 14):
        g = gen_named("P_n", n)
        cert = solve_avoiding(g, PendantConstraint(0, (0, 1)))
        assert replay(g, cert) == cert.matching and (0, 1) not in cert.matching


@pytest.mark.parametrize("rule", ["DEGREE1", "ADJ_DEG2", "DEG2_TWO_DEG3"])
@pytest.mark.parametrize("tamper", ["drop_edge", "add_non_edge", "add_non_edge_within_budget"])
def test_replay_rejects_tampered_linear_step(rule, tamper):
    # every branch of one linear step's recipe loses its first edge, or gains
    # an edge that is in no graph the trace passes through, far from the step
    # (the last case also lifts the step's budget, so that only the check
    # that M is a matching of g can catch it)
    g = gen_random_cubic(100, 3)
    cert = solve(g)
    i = next(i for i, s in enumerate(cert.trace) if s.rule == rule and s.variant != "anchored")
    step = cert.trace[i]
    if tamper == "drop_edge":
        branches = tuple(replace(br, add=br.add[1:]) for br in step.extension.branches)
    else:
        near = set(step.deleted).union(*(g.neighbors(v) for v in step.deleted))
        near |= {v for s in cert.trace for e in s.added_edges for v in e}
        far = [v for v in g.vertices() if v not in near]
        e = next((a, b) for a in far for b in far if a < b and not g.has_edge(a, b))
        branches = tuple(replace(br, add=br.add + (e,)) for br in step.extension.branches)
    budget = None if tamper == "add_non_edge_within_budget" else step.budget
    tampered = replace(step, budget=budget, extension=replace(step.extension, branches=branches))
    trace = cert.trace[:i] + [tampered] + cert.trace[i + 1:]
    with pytest.raises(InternalInvariantViolation):
        replay(g, replace(cert, trace=trace))


def _replay_one_step(g, deleted, added):
    # a hand-made linear step, the whole of the trace, whose recipe adds nothing
    step = ReductionStep(
        rule="DEG2_TWO_DEG3", case="hand-made", deleted=frozenset(deleted),
        added_edges=frozenset(added), extension=ExtensionRecipe((ExtensionBranch((), (), ()),)),
        budget=None,
    )
    with pytest.raises(InternalInvariantViolation, match="produced a cubic component"):
        replay(g, replace(solve(g), trace=[step]))


def test_replay_rejects_a_step_that_leaves_a_connected_cubic_graph():
    # Petersen with the edge (0, 1) subdivided by 10; the step puts it back
    g = gen_named("PETERSEN")
    g.remove_edge(0, 1)
    g.add_edge(0, 10)
    g.add_edge(10, 1)
    _replay_one_step(g, {10}, {(0, 1)})


def test_replay_rejects_a_step_that_leaves_cubic_components():
    # two K4s, each with one edge subdivided, the subdivision vertices 8, 9
    # joined; the step deletes both and leaves the two K4s
    g = Graph.from_edges([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 8), (1, 8),
                          (4, 6), (4, 7), (5, 6), (5, 7), (6, 7), (4, 9), (5, 9), (8, 9)])
    _replay_one_step(g, {8, 9}, {(0, 1), (4, 5)})


def _finished_edge_and_later_step(g, cert):
    """At the first bridge split (gamma0, solved part by part): an edge of
    the matching inside the first, constrained part, and the index of the
    first linear step of the second part."""
    b = next(i for i, s in enumerate(cert.trace) if s.rule == "BRIDGE")
    u0, u1 = cert.trace[b].bridge
    h = g.copy()
    h.remove_edge(u0, u1)
    side0 = h.component_of(u0)
    assert cert.trace[b].case == "gamma0" and u1 not in side0
    e = next(e for e in sorted(cert.matching) if set(e) <= side0)
    j = next(
        i for i, s in enumerate(cert.trace)
        if i > b and s.rule not in ("BRIDGE", "BASE_SMALL") and not s.deleted & side0
    )
    return e, j


@pytest.mark.parametrize("tamper", ["add", "require_and_remove"])
def test_replay_rejects_a_recipe_that_touches_a_finished_part(tamper, monkeypatch):
    # the matching is one set across the parts of a split: a step of the
    # second part may neither add an edge the first part already holds, nor
    # read (and so remove) one.  The chain is split at its first bridge
    bridges_first(monkeypatch)
    g = bridge_chain(5, 0)
    cert = solve(g)
    e, j = _finished_edge_and_later_step(g, cert)
    step = cert.trace[j]
    branches = step.extension.branches
    if tamper == "add":
        branches = tuple(replace(br, add=br.add + (e,)) for br in branches)
        error = "not a maximal matching"
    else:
        branches = (ExtensionBranch((e,), (e,), branches[0].add),) + branches
        error = "leaves the graph"
    tampered = replace(step, extension=replace(step.extension, branches=branches))
    trace = cert.trace[:j] + [tampered] + cert.trace[j + 1:]
    with pytest.raises(InternalInvariantViolation, match=error):
        replay(g, replace(cert, trace=trace))


def test_matchings_are_frozen():
    g = bridge_chain(3, 1)
    cert = solve(g)
    avoiding = solve_avoiding(gen_named("P_n", 12), PendantConstraint(0, (0, 1)))
    for M in (cert.matching, avoiding.matching, replay(g, cert)):
        assert type(M) is frozenset


def test_bridge_split_carves_the_winner_once(monkeypatch):
    # the candidates' bounds are counted without carving them, so each
    # split carves once, its winner: gamma0 at every bridge of a chain
    # split in the order of earlier versions, and at the splits the rules
    # fall back to
    carvings = []
    per_split = []
    carve, split = solver._carve, solver._split

    def counting_split(g, step):
        before = len(carvings)
        out = split(g, step)
        per_split.append(len(carvings) - before)
        return out

    def counting_carve(g, removed, parts):
        carvings.append(parts)
        return carve(g, removed, parts)

    monkeypatch.setattr(solver, "_carve", counting_carve)
    monkeypatch.setattr(solver, "_split", counting_split)
    fallbacks = [random_connected_subcubic(16, 971, 1), random_connected_subcubic(12, 52, 2)]
    splits = [s for g in fallbacks for s in solve(g).trace if s.rule == "BRIDGE"]
    assert [s.case for s in splits] == ["gamma1", "gamma0"]
    bridges_first(monkeypatch)
    chained = [s for s in solve(bridge_chain(5, 0)).trace if s.rule == "BRIDGE"]
    assert len(chained) >= 4 and {s.case for s in chained} == {"gamma0"}
    assert per_split == [1] * len(splits + chained)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([12, 20, 40, 80]), st.integers(0, 3))
def test_randomized_soundness(seed, n, deletions):
    g = random_connected_subcubic(n, seed, deletions)
    cert = solve(g)
    assert_sound(g, cert)
    assert replay(g, cert) == cert.matching


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 24), st.floats(0.15, 0.9))
def test_soundness_on_arbitrary_shapes(seed, n, density):
    # degree-capped random edge subsets give trees, tails, theta graphs and
    # other shapes the pairing model rarely produces
    rng = random.Random(seed)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < density and g.degree(u) < 3 and g.degree(v) < 3:
            g.add_edge(u, v)
    comp = g.component_of(min(g.iter_vertices()))
    g = g.subgraph(comp)
    cert = solve(g)
    assert_sound(g, cert)
    assert replay(g, cert) == cert.matching


def test_solver_deterministic():
    g = gen_random_cubic(60, 11)
    a, b = solve(g), solve(g)
    assert a.matching == b.matching
    assert [(s.rule, s.case, s.deleted) for s in a.trace] == [
        (s.rule, s.case, s.deleted) for s in b.trace
    ]


def test_solve_leaves_input_untouched():
    g = gen_named("PETERSEN")
    before = g.copy()
    solve(g)
    assert g == before


def test_deep_reduction_chains():
    # long paths exercise the pendant rule depth; long cycles the contraction
    p = gen_named("P_n", 600)
    cert = solve(p)
    assert cert.valid
    assert len(cert.matching) == 200  # pendant chain is optimal on paths
    c = gen_named("C_n", 601)
    cert = solve(c)
    assert cert.valid
    assert 6 * len(cert.matching) <= cert.bound.lambda_times_6


@pytest.fixture
def low_recursion_limit():
    old = sys.getrecursionlimit()
    limit = len(inspect.stack(0)) + 60
    sys.setrecursionlimit(limit)
    yield limit
    sys.setrecursionlimit(old)


def test_solve_leaves_recursion_limit_alone(low_recursion_limit):
    # the engine keeps its own stack: reduction chains and bridge nestings far
    # deeper than the interpreter's limit neither overflow it nor make the
    # solver raise it
    for g in (gen_named("P_n", 600), gen_named("C_n", 601), bridge_chain(40, 7)):
        cert = solve(g)
        assert cert.valid
        assert len(cert.trace) > low_recursion_limit
        assert replay(g, cert) == cert.matching
        assert sys.getrecursionlimit() == low_recursion_limit


def bridges_first(monkeypatch):
    """Rule order with BRIDGE at the least non-pendant bridge right after
    DEGREE1, as earlier versions had it: every bridge of a chain is split,
    the splits nested as deep as the chain is long."""
    rules = solver.select_rule

    def select(g, constraint=None, refused=frozenset()):
        bridges = () if constraint is not None or g.degree_bucket(1) else g.find_bridges()
        return R.bridge_step(min(bridges)) if bridges else rules(g, constraint, refused)

    monkeypatch.setattr(solver, "select_rule", select)


def test_bridge_chain_memory_grows_linearly(monkeypatch):
    # a bridge split carves its parts out of the working graph, as a linear
    # step does, and its step records no vertex sets; a frame that kept its
    # level's whole graph, or a step that listed its parts, would hold about
    # k^2/2 blob copies on a chain of k blobs split bridge by bridge
    bridges_first(monkeypatch)

    def peak(k):
        g = bridge_chain(k, 7)
        tracemalloc.start()
        try:
            cert = solve(g)
            assert replay(g, cert) == cert.matching
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100) < 6 * peak(25)
    g = bridge_chain(25, 7)
    steps = [s for s in solve(g).trace if s.rule == "BRIDGE"]
    assert len(steps) >= 24
    assert all(s.bridge is not None and not s.deleted and not s.added_edges for s in steps)


def test_solver_handles_noncontiguous_vertex_ids():
    g = gen_random_cubic(30, 4)
    relabeled = Graph.from_edges(
        (7 * u + 100, 7 * v + 100) for u, v in g.edges()
    )
    cert = solve(relabeled)
    assert_sound(relabeled, cert)
    assert replay(relabeled, cert) == cert.matching


# -- trace structure -----------------------------------------------------------------

def test_trace_step_shape_limits():
    for seed in (0, 1, 2):
        g = random_connected_subcubic(100, seed, deletions=seed)
        cert = solve(g)
        for step in cert.trace:
            if step.rule in ("BASE_SMALL", "K33_SPECIAL"):
                assert len(step.deleted) <= 9
                continue
            if step.rule == "BRIDGE":
                assert step.deleted == frozenset()
                continue
            assert 1 <= len(step.deleted) <= 10
            assert len(step.added_edges) <= 2


def test_the_recorded_step_is_its_compared_fields():
    # a step compares as the record a certificate writes; a BRIDGE step that
    # names another bridge is another step
    compared = [f.name for f in fields(ReductionStep) if f.compare]
    assert compared == ["rule", "case", "deleted", "added_edges", "extension", "budget", "bridge"]
    g = random_connected_subcubic(12, 52, 2)  # case 2.3.1's stem is a bridge
    step = next(s for s in solve(g).trace if s.rule == "BRIDGE")
    other = next(e for e in sorted(g.edges()) if e != step.bridge)
    assert replace(step, bridge=other) != step
    assert replace(step, variant="label") == step


def test_the_rules_are_asked_again_after_each_refusal(monkeypatch):
    # a step is plain data: the engine keeps the added-edge sets it refused
    # and asks select_rule again, so on the digest corpus the rules are
    # called once per recorded linear or bridge step, plus once per refusal
    # (a reduction undone: one more _reduced or _split call than steps)
    names = [f.name for f in fields(ReductionStep)]
    assert names == ["rule", "case", "deleted", "added_edges", "extension", "budget", "bridge", "variant"]
    count = {"select_rule": 0, "reduce": 0}
    rules, reduce, split = solver.select_rule, solver._reduced, solver._split

    def counted(name, fn):
        def call(*args):
            count[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(solver, "select_rule", counted("select_rule", rules))
    monkeypatch.setattr(solver, "_reduced", counted("reduce", reduce))
    monkeypatch.setattr(solver, "_split", counted("reduce", split))
    steps, refusing = 0, []
    for g in trace_corpus():
        before = count["reduce"]
        trace = solve(g).trace
        taken = sum(s.rule not in ("BASE_SMALL", "K33_SPECIAL") for s in trace)
        if count["reduce"] - before != taken:
            refusing.append(g)
        steps += taken
    refusals = count["reduce"] - steps
    assert (steps, refusals, count["select_rule"]) == (115, 1, 116)
    assert refusing == [random_connected_subcubic(16, 971, 1)]


def test_refused_single_candidate_without_a_bridge_is_an_error(monkeypatch):
    # the pair of test_rejected_connected_cubic_candidate: a faked deg2 rule
    # offers only the step that puts (0, 1) back, so once it is refused
    # select_rule looks for a bridge at {10}, finds none, and returns None
    g = gen_named("PETERSEN")
    g.remove_edge(0, 1)
    g.add_edge(0, 10)
    g.add_edge(1, 10)
    assert not g.find_bridges()
    back = R._relink("DEG2_TWO_DEG3", "test", {10}, (0, 1), ((0, 10),), (), budget=1)
    monkeypatch.setattr(R, "deg2_step", lambda h, refused=frozenset(): back)
    assert select_rule(g, refused={back.added_edges}) is None
    with pytest.raises(InternalInvariantViolation, match=r"^DEG2_TWO_DEG3/test produced a cubic component$"):
        solve(g)


def test_refused_last_trial_without_a_bridge_is_an_error(monkeypatch):
    # a faked source refuses the crossing graph's later three candidates
    # from the start, so the engine's one refusal leaves no trial; the graph
    # is bridgeless, so there is no split either
    g = crossing_graph()
    assert not g.find_bridges()
    rules = solver.select_rule
    rest = {frozenset(es) for es in ([(3, 7), (6, 10)], [(3, 8), (6, 9)], [(3, 8), (6, 10)])}

    def source(h, constraint=None, refused=frozenset()):
        return rules(h, constraint, set(refused) | rest if h.n == g.n else refused)

    monkeypatch.setattr(solver, "select_rule", source)
    with pytest.raises(InternalInvariantViolation, match=r"^DEG2_TWO_DEG3/2.3.2 produced a cubic component$"):
        solve(g)


def step_edges(step):
    """Every edge a recorded step holds."""
    edges = list(step.added_edges)
    for br in step.extension.branches:
        edges += br.requires + br.remove + br.add
    if step.bridge is not None:
        edges.append(step.bridge)
    return edges


def test_recorded_edges_are_normalised():
    # base steps, bridge markers and split steps are built without running
    # edge() again, so what they are built from must be in (min, max) form
    g = gen_named("K33_MINUS")
    g.add_edge(0, 6)
    avoiding = solve_avoiding(g, PendantConstraint(6, (6, 0)))  # the edge as (max, min)
    assert [s.rule for s in avoiding.trace] == ["BASE_SMALL"]
    certs = [solve(h) for h in trace_corpus() + [bridge_chain(5, 0)]] + [avoiding]
    rules = set()
    for cert in certs:
        for step in cert.trace:
            assert all(u < v for u, v in step_edges(step)), step
            rules.add(step.rule)
    assert {"BASE_SMALL", "BRIDGE", "DEGREE1", "ADJ_DEG2", "DEG2_TWO_DEG3", "CUBIC_FINISH"} <= rules


def test_no_trial_reductions(monkeypatch):
    # the engine's cubic-task test alone picks inserted edges: no rule
    # searches for cubic components, and the graph loses vertices with undo
    # data only in the engine's own reductions and carvings; a bridge split
    # lists its candidates without removing anything
    def no_search(self, vertices):
        raise AssertionError("has_cubic_component_touching called")

    calls = {"undo": 0, "carve": 0}
    undo, carve = Graph.remove_vertices_with_undo, solver._carve

    def count_undo(self, vs):
        calls["undo"] += 1
        return undo(self, vs)

    def count_carve(g, removed, parts):
        calls["carve"] += 1
        return carve(g, removed, parts)

    monkeypatch.setattr(Graph, "has_cubic_component_touching", no_search)
    monkeypatch.setattr(Graph, "remove_vertices_with_undo", count_undo)
    monkeypatch.setattr(solver, "_carve", count_carve)
    graphs = [gen_random_cubic(n, seed) for n, seed in ((50, 1), (100, 2), (200, 3), (300, 4))]
    graphs += [bridge_chain(k, seed) for k, seed in ((3, 0), (6, 1), (10, 2))]
    graphs += [bead_ring(k, seed) for k, seed in ((3, 0), (5, 1))]
    for g in graphs:
        for key in calls:
            calls[key] = 0
        cert = solve(g)
        assert cert.valid
        linear = sum(s.rule not in ("BASE_SMALL", "K33_SPECIAL", "BRIDGE") for s in cert.trace)
        assert calls["undo"] <= linear + calls["carve"]


def test_termination_steps_shrink():
    g = gen_random_cubic(120, 3)
    cert = solve(g)
    deleted_total = sum(
        len(s.deleted) for s in cert.trace if s.rule != "BRIDGE"
    )
    assert deleted_total >= g.n  # every vertex is eventually consumed
    assert len(cert.trace) <= g.n


def test_deg2_232_delta_counts():
    # the main tree-shaped reduction must delete 5 vertices and drop the
    # edge count by exactly 8 (10 incident edges minus 2 added back)
    found = False
    for seed in range(30):
        g = random_connected_subcubic(60, 1000 + seed, deletions=1)
        cert = solve(g)
        work = g.copy()
        for step in cert.trace:
            if step.rule == "BRIDGE":
                break
            if step.rule == "DEG2_TWO_DEG3" and step.case == "2.3.2" and step.variant == "main":
                before = (work.n, work.m)
                nxt = reduced(work, step)
                assert before[0] - nxt.n == 5
                assert before[1] - nxt.m == 8
                found = True
            if step.rule in ("BASE_SMALL", "K33_SPECIAL"):
                break
            work = reduced(work, step)
        if found:
            break
    assert found


def test_budgets_respected_on_random_graphs():
    budgets = {"DEGREE1": 1, "CUBIC_FINISH": 1}
    for seed in range(10):
        g = random_connected_subcubic(80, 2000 + seed, deletions=seed % 3)
        cert = solve(g)
        for step in cert.trace:
            if step.budget is not None:
                assert step.budget <= 4
            if step.rule in budgets:
                assert step.budget == budgets[step.rule]
