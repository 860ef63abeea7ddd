import pytest

from conftest import enumerate_maximal_matchings
from minmatch.errors import Disconnected, EdgeNotInGraph, EmptyGraph, NotAMatching
from minmatch.generators import enumerate_connected_subcubic, gen_gk, gen_named
from minmatch.graph import Graph
from minmatch.matching import (
    as_matching,
    bound_report,
    gamma_lower_bound,
    is_matching,
    is_maximal,
    matching_within_bound,
    maximality_status,
)
from minmatch.oracle import gamma_exact


def test_is_matching_basic():
    k33 = gen_named("K33")
    assert is_matching(k33, as_matching([(0, 3), (1, 4), (2, 5)]))
    assert not is_matching(k33, as_matching([(0, 3), (0, 4)]))
    assert is_matching(k33, frozenset())


def test_is_matching_rejects_foreign_edges():
    with pytest.raises(EdgeNotInGraph):
        is_matching(gen_named("K2"), as_matching([(0, 2)]))


def test_is_maximal_c4():
    c4 = gen_named("C_n", 4)
    assert not is_maximal(c4, as_matching([(0, 1)]))
    assert is_maximal(c4, as_matching([(0, 1), (2, 3)]))


def test_is_maximal_k4():
    k4 = gen_named("K4")
    assert not is_maximal(k4, as_matching([(0, 1)]))
    assert is_maximal(k4, as_matching([(0, 1), (2, 3)]))


def test_is_maximal_requires_matching():
    with pytest.raises(NotAMatching):
        is_maximal(gen_named("C_n", 4), as_matching([(0, 1), (1, 2)]))
    with pytest.raises(EdgeNotInGraph):
        is_maximal(gen_named("C_n", 4), as_matching([(0, 2)]))


def brute_force_maximal(g, M):
    covered = {v for e in M for v in e}
    return all(u in covered or v in covered for u, v in g.edges())


def test_is_maximal_agrees_with_brute_force(corpus_n5):
    for g in corpus_n5:
        for M in enumerate_maximal_matchings(g):
            assert is_maximal(g, M)
            assert brute_force_maximal(g, M)
        small = min(enumerate_maximal_matchings(g), key=len)
        for e in small:
            trimmed = small - {e}
            assert is_maximal(g, trimmed) == brute_force_maximal(g, trimmed)


def test_bound_report_examples():
    assert bound_report(gen_named("K4")).lambda_times_6 == 12
    rep = bound_report(gen_named("K2"))
    assert (rep.lambda_times_6, rep.k2, rep.cubic) == (6, 1, 0)
    assert bound_report(gen_named("C_n", 4)).lambda_times_6 == 12
    k33 = bound_report(gen_named("K33"))
    assert (k33.lambda_times_6, k33.cubic) == (17, 1)


def test_bound_report_rejects_disconnected():
    g = Graph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        bound_report(g)


def test_bound_report_holds_its_counts():
    # the counts the certificate writes, read off the graph, and the one
    # formula applied to them
    for g, counts in ((gen_named("K2"), (2, 1, 2, 0, 1)), (gen_named("K33"), (6, 9, 0, 1, 0)),
                      (gen_named("P_n", 5), (5, 4, 2, 0, 0)), (gen_gk(3), (18, 27, 0, 1, 0))):
        rep = bound_report(g)
        assert (rep.n, rep.m, rep.n1, rep.cubic, rep.k2) == counts
        assert rep.lambda_times_6 == 4 * rep.n - rep.m + 2 * rep.cubic + rep.k2 - rep.n1


def test_bound_report_rejects_the_empty_graph():
    with pytest.raises(EmptyGraph, match="bound undefined for the empty graph"):
        bound_report(Graph())


def test_region_check_finds_two_matching_edges_at_a_vertex():
    # 1 is covered twice; the region check sees it from 1, and only from 1
    g = gen_named("P_n", 4)
    M = {(0, 1), (1, 2)}
    assert maximality_status(g, M, {1}) == 1
    assert maximality_status(g, M, {3, 1}) == 1
    assert maximality_status(g, M, {0}) == 0  # the caller vouches for the rest
    assert maximality_status(g, M) == 1


def test_gamma_lower_bound():
    assert gamma_lower_bound(gen_named("K33")) == 2
    g30 = gen_gk(5)  # cubic, n=30, m=45
    assert gamma_lower_bound(g30) == 9 == (3 * 30) // 10
    assert gamma_lower_bound(gen_named("K2")) == 1
    from minmatch.generators import gen_random_cubic
    g20 = gen_random_cubic(20, 0)  # cubic, m=30: exactly 3n/10
    assert gamma_lower_bound(g20) == 6


def test_lower_bound_below_gamma_small(corpus_n6):
    for g in corpus_n6[::7]:
        assert gamma_lower_bound(g) <= gamma_exact(g).gamma


def test_matching_within_bound_k33_special():
    k33 = gen_named("K33")
    assert matching_within_bound(k33, as_matching([(0, 3), (1, 4), (2, 5)]))
    assert not matching_within_bound(k33, as_matching([(0, 3), (1, 4)]))


def test_equality_characterization_small():
    # gamma reaches (4n - m + 3)/6 exactly on K33 among connected graphs here
    for n in range(2, 7):
        for g in enumerate_connected_subcubic(n):
            gamma = gamma_exact(g).gamma
            attains = 6 * gamma == 4 * g.n - g.m + 3
            from minmatch.graph import is_k33
            assert attains == is_k33(g), g.edges()
