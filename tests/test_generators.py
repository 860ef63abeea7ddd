from itertools import combinations

import pytest

from conftest import gen_gk_optimal_matching
from minmatch.errors import BadParameter, TooLarge
from minmatch.generators import (
    enumerate_connected_subcubic,
    gen_gk,
    gen_named,
    gen_random_cubic,
)
from minmatch.graph import Graph, is_k33
from minmatch.matching import is_maximal
from minmatch.oracle import gamma_exact


def test_named_k33():
    g = gen_named("K33")
    assert (g.n, g.m, g.is_cubic()) == (6, 9, True)
    # bipartite: parts {0,1,2} and {3,4,5} are independent
    assert all(not g.has_edge(i, j) for i in range(3) for j in range(3) if i != j)


def test_named_k33_minus():
    g = gen_named("K33_MINUS")
    assert (g.n, g.m, len(g.degree_bucket(2))) == (6, 8, 2)
    assert sorted(v for v in g.vertices() if g.degree(v) == 2) == [0, 3]


def test_named_cycle_and_path():
    c5 = gen_named("C_n", 5)
    assert (c5.n, c5.m) == (5, 5) and len(c5.degree_bucket(2)) == 5
    p1 = gen_named("P_n", 1)
    assert (p1.n, p1.m) == (1, 0)
    with pytest.raises(BadParameter):
        gen_named("C_n", 2)
    with pytest.raises(BadParameter):
        gen_named("NOPE")


def test_named_petersen_and_cube():
    pet = gen_named("PETERSEN")
    assert (pet.n, pet.m) == (10, 15) and pet.is_cubic()
    assert pet.find_bridges() == set()
    q3 = gen_named("CUBE_Q3")
    assert (q3.n, q3.m) == (8, 12) and q3.is_cubic()


def test_gk_small_censuses():
    assert is_k33(gen_gk(1))
    g2 = gen_gk(2)
    assert (g2.n, g2.m, g2.is_cubic()) == (12, 18, True)
    assert g2.find_bridges() == set()
    assert g2.is_connected()


def test_gk_seven_blocks():
    g = gen_gk(7)
    assert g.n == 42 and g.is_cubic() and g.is_connected()


def test_gk_block_boundaries_have_chain_edges():
    # block i's attachment points are p_i = 6i and q_i = 6i + 3
    g = gen_gk(4)
    for i in range(4):
        assert not g.has_edge(6 * i, 6 * i + 3)
        assert g.has_edge(6 * i + 3, 6 * ((i + 1) % 4))


def test_gk_pattern_sizes_up_to_20():
    for k in range(1, 21):
        M = gen_gk_optimal_matching(k)
        want = -(-7 * k // 3)
        assert len(M) == want
        assert is_maximal(gen_gk(k), M)
        # stays below the asymptotic line 7n/18 + 2/3
        assert 3 * want <= 7 * k + 2


def test_gk_pattern_matches_oracle_small():
    for k in (1, 2, 3):
        assert len(gen_gk_optimal_matching(k)) == gamma_exact(gen_gk(k)).gamma


def test_random_cubic_structure():
    g = gen_random_cubic(100, 1)
    assert g.n == 100 and g.m == 150 and g.is_cubic() and g.is_connected()
    g.validate()


def test_random_cubic_determinism():
    a = gen_random_cubic(50, 7)
    b = gen_random_cubic(50, 7)
    assert a == b
    c = gen_random_cubic(50, 8)
    assert a != c


def test_random_cubic_n4_is_k4():
    g = gen_random_cubic(4, 123)
    assert g.n == 4 and g.is_cubic()


def test_random_cubic_bad_parameters():
    with pytest.raises(BadParameter):
        gen_random_cubic(7, 0)
    with pytest.raises(BadParameter):
        gen_random_cubic(2, 0)


def brute_force_count(n: int) -> int:
    """Independent check: loop over all edge subsets (n <= 5)."""
    pairs = list(combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        deg = [0] * n
        ok = True
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
            if deg[u] > 3 or deg[v] > 3:
                ok = False
                break
        if not ok:
            continue
        g = Graph.from_edges(edges, vertices=range(n))
        if g.is_connected():
            count += 1
    return count


def test_enumeration_counts_match_brute_force():
    for n in (1, 2, 3, 4, 5):
        assert sum(1 for _ in enumerate_connected_subcubic(n)) == brute_force_count(n)


def test_enumeration_small_counts():
    assert sum(1 for _ in enumerate_connected_subcubic(2)) == 1
    assert sum(1 for _ in enumerate_connected_subcubic(3)) == 4  # 3 paths + triangle


def test_enumeration_contains_k33():
    # 6! / (2 * 3! * 3!) = 10 labelings of K33
    assert sum(is_k33(g) for g in enumerate_connected_subcubic(6)) == 10


def test_enumeration_every_graph_valid():
    for g in enumerate_connected_subcubic(5):
        g.validate()
        assert g.is_connected()


def test_enumeration_limits():
    with pytest.raises(TooLarge):
        next(enumerate_connected_subcubic(8))
    with pytest.raises(BadParameter):
        next(enumerate_connected_subcubic(0))


def test_gk_bad_parameter():
    with pytest.raises(BadParameter):
        gen_gk(0)
