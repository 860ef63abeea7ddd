"""Targeted coverage of the rarer reduction variants.

The random corpora reach most branches of the case analysis; the ones they
miss (or hit only a handful of times) get explicit constructions here, plus
one deterministic sweep that pins the full variant checklist.
"""

import random

import pytest

from conftest import bead_ring, enumerate_maximal_matchings, random_connected_subcubic, reduced
from minmatch import reductions
from minmatch.errors import PreconditionViolated
from minmatch.generators import gen_named
from minmatch.graph import Graph
from minmatch.matching import is_maximal
from minmatch.oracle import gamma_exact
from minmatch.reductions import ExtensionBranch, ExtensionRecipe, adjacent_deg2_step
from minmatch.solver import replay, select_rule, solve


def test_deg2_231_shared_third_neighbour_hexagon():
    # stem 0 with degree-3 neighbours 1, 2; the side-1 outer pair {3, 4}
    # shares all three neighbours {1, 7, 8}, and 7, 8 share their third
    # neighbour 9: the contraction that adds the 0-9 edge must fire
    g = Graph.from_edges([
        (0, 1), (0, 2),
        (1, 3), (1, 4),
        (2, 5), (2, 6),
        (3, 7), (3, 8), (4, 7), (4, 8),
        (7, 9), (8, 9),
        (5, 10), (5, 11), (6, 10), (6, 11), (9, 10),
    ])
    assert g.find_bridges() == set()
    step = select_rule(g)
    assert (step.rule, step.case, step.variant) == (
        "DEG2_TWO_DEG3", "2.3.1", "hexagon",
    )
    assert step.deleted == {1, 3, 4, 7, 8}
    assert step.added_edges == {(0, 9)}
    cert = solve(g)
    assert cert.valid
    assert replay(g, cert) == cert.matching

    # exercise all three recipe branches against oracle sub-solutions
    for sub in _all_maximal(reduced(g, step)):
        M = step.extension.apply(set(sub))
        assert is_maximal(g, M)
        assert len(M) - len(sub) <= step.budget


def _all_maximal(g):
    if g.n <= 12:
        return enumerate_maximal_matchings(g)
    return [gamma_exact(g).witness]


_TEN = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (4, 5), (3, 6), (3, 7), (4, 7), (5, 8), (6, 8),
        (7, 9), (9, 10), (10, 12), (10, 13), (11, 12), (11, 13), (12, 13)]


@pytest.mark.parametrize("edges, matched", [
    # 9 hangs on x12 = 7, so x21 = 8 has degree 2 and the step is built
    # the other way round; then on x21
    (_TEN, [(0, 1), (4, 5), (6, 8), (7, 9)]),
    ([(8, 9) if e == (7, 9) else e for e in _TEN], [(0, 2), (3, 7), (4, 5), (8, 9)]),
], ids=["9-on-x12", "9-on-x21"])
def test_deg2_22_ten_both_orientations(edges, matched):
    # stem 0 between v1 = 1 and v2 = 2; 3-6 is the least crossing edge, so
    # w11, w12, w21, w22 = 4, 3, 6, 5, and 4-5, 4-7, 5-8 close the
    # configuration around x12 = 7 and x21 = 8
    g = Graph.from_edges(edges)
    cert = solve(g)
    step = cert.trace[0]
    assert (step.rule, step.case, step.variant) == ("DEG2_TWO_DEG3", "2.2", "ten")
    assert step.deleted == set(range(10))
    (branch,) = step.extension.branches
    assert sorted(branch.add) == matched
    assert cert.valid
    assert replay(g, cert) == cert.matching
    assert len(cert.matching) == 5


def test_adjacent_deg2_outer_pair_edge_direct():
    # adjacent degree-2 pair 0-1 whose contraction would leave a cubic
    # graph, with an edge inside one outer pair
    g = Graph.from_edges([
        (0, 1), (0, 2), (1, 3),
        (2, 4), (2, 5), (4, 5),          # outer pair of v1=2 joined by an edge
        (3, 6), (3, 7),
        (4, 8), (5, 9), (6, 8), (6, 9), (7, 8), (7, 9),
    ])
    assert sorted(g.degree_bucket(2)) == [0, 1]
    step = adjacent_deg2_step(g)
    assert (step.rule, step.case) == ("ADJ_DEG2", "outer-pair-edge")
    cert = solve(g)
    assert cert.valid


def test_variant_checklist_on_seeded_corpus():
    # deterministic sweep; the seeds below are known to reach every listed
    # variant, so a regression that silently reroutes cases will show up.
    # The first two graphs reach the bridge splits: every candidate of a
    # case-1 relink leaves a cubic part (gamma1), and case 2.3.1's stem
    # (gamma0).  No solve is known to choose a forest split, which
    # test_split_carves_the_winner covers by splitting directly
    want = {
        ("ADJ_DEG2", "chord", None),
        ("ADJ_DEG2", "contract", None),
        ("ADJ_DEG2", "outer-cross-edge", None),
        ("ADJ_DEG2", "outer-independent", None),
        ("ADJ_DEG2", "outer-pair-edge", None),
        ("ADJ_DEG2", "shared-outer", None),
        ("BRIDGE", "gamma0", None),
        ("BRIDGE", "gamma1", None),
        ("CUBIC_FINISH", "crossing", None),
        ("CUBIC_FINISH", "shared-neighbour", None),
        ("DEG2_TWO_DEG3", "0", None),
        ("DEG2_TWO_DEG3", "1", "deep"),
        ("DEG2_TWO_DEG3", "1", "relink"),
        ("DEG2_TWO_DEG3", "1", "short"),
        ("DEG2_TWO_DEG3", "2.1", "cross"),
        ("DEG2_TWO_DEG3", "2.1", "rewire"),
        ("DEG2_TWO_DEG3", "2.1", "short"),
        ("DEG2_TWO_DEG3", "2.2", "rewire"),
        ("DEG2_TWO_DEG3", "2.2", "short"),
        ("DEG2_TWO_DEG3", "2.2", "ten"),
        ("DEG2_TWO_DEG3", "2.3.1", "deg2-twin"),
        ("DEG2_TWO_DEG3", "2.3.1", "split"),
        ("DEG2_TWO_DEG3", "2.3.2", "main"),
        ("DEG2_TWO_DEG3", "2.3.2", "pinch"),
        ("DEG2_TWO_DEG3", "2.3.2", "relink"),
        ("DEGREE1", None, None),
    }
    seen = set()
    bridged = [random_connected_subcubic(16, 971, 1), random_connected_subcubic(12, 52, 2)]
    for i in range(-len(bridged), 4000):
        if i < 0:
            g = bridged[i]
        else:
            rng = random.Random(200_000 + i)
            n = rng.randrange(8, 120)
            g = random_connected_subcubic(n, 201_000 + i, deletions=rng.randint(0, 3))
        cert = solve(g)
        assert cert.valid
        for s in cert.trace:
            seen.add((s.rule, s.case, s.variant))
        if want <= seen:
            break
    missing = want - seen
    assert not missing, f"variants never exercised: {sorted(missing, key=str)}"


def test_extension_recipe_first_match_semantics():
    e1, e2 = (0, 1), (2, 3)
    recipe = ExtensionRecipe((
        ExtensionBranch((e1, e2), (e1,), ((4, 5),)),
        ExtensionBranch((e1,), (e1,), ()),
        ExtensionBranch((), (), ((6, 7),)),
    ))
    assert recipe.apply({e1, e2}) == frozenset({e2, (4, 5)})
    assert recipe.apply({e1}) == frozenset()
    assert recipe.apply({e2}) == frozenset({e2, (6, 7)})


def _sorted_scan_pair(g):
    """The adjacent degree-2 pair by the plain sorted scan: the smallest
    degree-2 vertex with a degree-2 neighbour, and its smallest such one."""
    for u1 in sorted(g.degree_bucket(2)):
        twos = sorted(w for w in g.neighbors(u1) if g.degree(w) == 2)
        if twos:
            return u1, twos[0]
    return None


def _check_adjacent_pair(g, step):
    pair = _sorted_scan_pair(g)
    if pair is None:
        assert step is None
        return False
    # every ADJ_DEG2 case deletes both vertices of its pair; a contraction
    # deletes only them
    assert step.rule == "ADJ_DEG2"
    assert set(pair) <= step.deleted
    if step.case == "contract":
        assert step.deleted == set(pair)
    return True


def _deg2_rich_graphs():
    return (
        [gen_named("P_n", n) for n in range(3, 14)]
        + [gen_named("C_n", n) for n in range(5, 14)]
        + [random_connected_subcubic(n, seed, n // 4) for n in (20, 40, 80) for seed in range(8)]
        + [bead_ring(k, seed) for k in (3, 4) for seed in (0, 1)]
    )


def test_adjacent_pair_matches_sorted_scan():
    found = none = 0
    for g in _deg2_rich_graphs():
        if _check_adjacent_pair(g, adjacent_deg2_step(g)):
            found += 1
        else:
            none += 1
    assert found > 20 and none > 5  # P_3 and the cubic bead rings give none


def test_adjacent_pair_matches_sorted_scan_inside_solves(monkeypatch):
    # the working graphs of a solve, after many steps, are where degree-2
    # vertices pile up; compare at every call the engine makes
    rule = reductions.adjacent_deg2_step
    counts = {True: 0, False: 0}

    def checked(g, refused=frozenset()):
        step = rule(g, refused)
        counts[_check_adjacent_pair(g, step)] += 1
        return step

    monkeypatch.setattr(reductions, "adjacent_deg2_step", checked)
    cubic = [random_connected_subcubic(n, seed) for n in (100, 200) for seed in range(3)]
    for g in _deg2_rich_graphs() + cubic:
        cert = solve(g)
        assert cert.valid
    assert counts[True] > 100 and counts[False] > 100


def test_deg2_without_adjacent_pair_dispatches_to_deg2_rule():
    # Petersen with the edges 0-1 and 5-7 subdivided by 10 and 11: two
    # degree-2 vertices, not adjacent, each between two degree-3 vertices
    g = gen_named("PETERSEN")
    for (a, b), s in (((0, 1), 10), ((5, 7), 11)):
        g.remove_edge(a, b)
        g.add_edge(a, s)
        g.add_edge(s, b)
    assert sorted(g.degree_bucket(2)) == [10, 11]
    assert adjacent_deg2_step(g) is None
    step = select_rule(g)
    assert step.rule == "DEG2_TWO_DEG3"
    assert 10 in step.deleted


def test_pendant_rule_refuses_a_vertex_that_is_not_a_pendant():
    g = Graph.from_edges([(0, 1), (1, 2), (1, 3), (3, 4)])
    with pytest.raises(PreconditionViolated, match="1 is not a degree-1 vertex"):
        reductions.degree1_step(g, 1)
    with pytest.raises(PreconditionViolated, match="3 is not a degree-1 vertex"):
        reductions.degree1_step(g, 3)
    assert reductions.degree1_step(g, 0).deleted == {0, 1, 3}


def test_deg2_rule_refuses_a_neighbour_below_degree_3():
    # 0, the least degree-2 vertex, has neighbours of degree 2 (C_5), or one
    # of degree 3 and one of degree 2
    msg = "rule needs both neighbours of the degree-2 vertex at degree 3"
    for g in (gen_named("C_n", 5), Graph.from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 4)])):
        assert 0 == min(g.degree_bucket(2))
        with pytest.raises(PreconditionViolated, match=msg):
            reductions.deg2_step(g)
