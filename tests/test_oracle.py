import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_maximal_matchings
from minmatch.errors import BudgetExceeded, Infeasible, TooLarge
from minmatch.generators import (
    enumerate_connected_subcubic,
    gen_gk,
    gen_named,
    gen_random_cubic,
)
from minmatch.graph import Graph
from minmatch.matching import gamma_lower_bound, is_maximal
from minmatch.oracle import gamma_exact, gamma_exact_avoiding


def test_gamma_known_values():
    assert gamma_exact(gen_named("K33")).gamma == 3
    assert gamma_exact(gen_named("K4")).gamma == 2
    assert gamma_exact(gen_named("K2")).gamma == 1
    assert gamma_exact(gen_named("PETERSEN")).gamma == 3


def test_gamma_cycles():
    for n in range(3, 16):
        res = gamma_exact(gen_named("C_n", n))
        assert res.gamma == -(-n // 3), n
        assert is_maximal(gen_named("C_n", n), res.witness)


def test_gamma_chain_family():
    for k, want in ((1, 3), (2, 5), (3, 7)):
        assert gamma_exact(gen_gk(k)).gamma == want


def test_witness_is_maximal_and_minimum(corpus_n6):
    for g in corpus_n6[::5]:
        res = gamma_exact(g)
        assert is_maximal(g, res.witness)
        assert len(res.witness) == res.gamma
        sizes = [len(M) for M in enumerate_maximal_matchings(g)]
        assert res.gamma == min(sizes)


def test_gamma_equals_enumeration_minimum_exhaustive():
    for n in range(1, 6):
        for g in enumerate_connected_subcubic(n):
            if g.m == 0:
                continue
            mats = enumerate_maximal_matchings(g)
            assert gamma_exact(g).gamma == min(len(M) for M in mats)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_gamma_equals_enumeration_minimum_random(seed):
    rng = random.Random(seed)
    g = gen_random_cubic(rng.choice([8, 10, 12]), seed)
    for _ in range(rng.randint(0, 3)):
        g.remove_edge(*rng.choice(g.edges()))
    mats = enumerate_maximal_matchings(g)
    assert gamma_exact(g).gamma == min(len(M) for M in mats)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_avoiding_equals_enumeration_minimum_random(seed):
    rng = random.Random(seed)
    g = gen_random_cubic(rng.choice([8, 10, 12]), seed)
    for _ in range(rng.randint(0, 3)):
        g.remove_edge(*rng.choice(g.edges()))
    forbidden = rng.choice(g.edges())
    pool = [len(M) for M in enumerate_maximal_matchings(g) if forbidden not in M]
    if not pool:
        with pytest.raises(Infeasible):
            gamma_exact_avoiding(g, forbidden)
        return
    res = gamma_exact_avoiding(g, forbidden)
    assert res.gamma == min(pool) == len(res.witness)
    assert forbidden not in res.witness
    assert is_maximal(g, res.witness)


def test_lower_bound_is_admissible(corpus_n6):
    for g in corpus_n6[::9]:
        assert gamma_lower_bound(g) <= gamma_exact(g).gamma


def test_enumerate_examples():
    assert enumerate_maximal_matchings(gen_named("K2")) == [frozenset({(0, 1)})]
    p3 = gen_named("P_n", 3)
    assert [len(M) for M in enumerate_maximal_matchings(p3)] == [1, 1]
    c5 = enumerate_maximal_matchings(gen_named("C_n", 5))
    assert min(len(M) for M in c5) == 2
    # every pair of disjoint edges of a 5-cycle is maximal, and nothing else is
    assert len(c5) == 5
    assert all(len(M) == 2 for M in c5)


def test_enumerate_too_large():
    with pytest.raises(TooLarge):
        enumerate_maximal_matchings(gen_random_cubic(14, 0))


def test_avoiding_p3_and_c4():
    p3 = gen_named("P_n", 3)
    res = gamma_exact_avoiding(p3, (0, 1))
    assert res.gamma == 1 and (0, 1) not in res.witness
    c4 = gen_named("C_n", 4)
    res = gamma_exact_avoiding(c4, (0, 1))
    assert res.gamma == 2 and (0, 1) not in res.witness


def test_avoiding_k33_minus_with_pendant():
    g = gen_named("K33_MINUS")
    g.add_edge(0, 6)  # pendant on a degree-2 attachment vertex
    res = gamma_exact_avoiding(g, (0, 6))
    pool = [
        len(M) for M in enumerate_maximal_matchings(g) if (0, 6) not in M
    ]
    assert res.gamma == min(pool)
    assert (0, 6) not in res.witness
    assert is_maximal(g, res.witness)


def test_avoiding_infeasible_on_k2():
    with pytest.raises(Infeasible):
        gamma_exact_avoiding(gen_named("K2"), (0, 1))


def test_avoiding_requires_existing_edge():
    with pytest.raises(Infeasible):
        gamma_exact_avoiding(gen_named("C_n", 4), (0, 2))


def test_budget_exceeded_carries_incumbent():
    g = gen_gk(3)
    with pytest.raises(BudgetExceeded) as exc:
        gamma_exact(g, budget=5)
    res = exc.value.result
    assert res is not None and not res.exact
    assert res.gamma >= 7  # the greedy incumbent is a valid maximal matching
    assert is_maximal(g, res.witness)


def test_nodes_explored_reproducible():
    g = gen_random_cubic(16, 5)
    a = gamma_exact(g)
    b = gamma_exact(g)
    assert (a.gamma, a.nodes_explored, a.witness) == (b.gamma, b.nodes_explored, b.witness)


def test_isolated_vertices_and_empty():
    g = Graph.from_edges([], vertices=[0, 1, 2])
    res = gamma_exact(g)
    assert res.gamma == 0 and res.witness == frozenset()


def test_gamma_on_disconnected_input():
    g = Graph.from_edges([(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    assert gamma_exact(g).gamma == 3  # 1 for the edge, 2 for the square


# sha256 of (gamma, sorted witness) over the corpus of test_witnesses_pinned,
# computed before the packing bound and the explicit-stack search went in
WITNESS_DIGEST = "b3e7136c4c85ef5156f39d2d32abaa864bd69fb9cf42a74650976717a19f106a"


def test_witnesses_pinned():
    """A stronger bound prunes only subtrees with no strictly better leaf, so
    the search meets the same incumbents in the same order: every witness,
    and with it every BASE_SMALL recipe, stays the same."""
    small = [g for n in range(1, 7) for g in enumerate_connected_subcubic(n)]
    graphs = small[::7] + [gen_random_cubic(n, s) for n in range(10, 31, 2) for s in range(3)]
    h = hashlib.sha256()
    for g in graphs:
        results = [gamma_exact(g)]
        for e in g.edges()[:3]:
            try:
                results.append(gamma_exact_avoiding(g, e))
            except Infeasible:
                results.append(None)
        for res in results:
            row = None if res is None else [res.gamma, sorted(list(e) for e in res.witness)]
            h.update(json.dumps(row, separators=(",", ":")).encode("ascii") + b"\n")
    assert h.hexdigest() == WITNESS_DIGEST


def test_packing_bound_prunes():
    # the count bound alone explores 356,604 nodes here
    assert gamma_exact(gen_random_cubic(40, 0)).nodes_explored < 100_000


# sha256 of (gamma, nodes_explored, sorted witness) over test_search_pinned's
# searches, computed on the list-based kernel that the bitset kernel replaced
SEARCH_DIGEST = "2a55cf7907ec6936c150d68a2b174282f368e2dceb76e65d3a8b9d7a57536ef2"


def _pinned_searches():
    """(graph, forbidden edge, budget) for every search of
    test_witnesses_pinned's corpus, four n = 32 random cubic graphs, and
    searches cut off by their budget."""
    small = [g for n in range(1, 7) for g in enumerate_connected_subcubic(n)]
    graphs = small[::7] + [gen_random_cubic(n, s) for n in range(10, 31, 2) for s in range(3)]
    for g in graphs:
        yield g, None, None
        for e in g.edges()[:3]:
            yield g, e, None
    for s in range(4):
        yield gen_random_cubic(32, s), None, None
    for g in (gen_gk(3), gen_random_cubic(32, 0)):
        for budget in (1, 5, 50):
            yield g, None, budget


def test_search_pinned():
    """The search tree itself is pinned, not only the witnesses it finds: the
    node counts of complete and budget-cut searches must not move."""
    h = hashlib.sha256()
    for g, forbidden, budget in _pinned_searches():
        try:
            if forbidden is None:
                res = gamma_exact(g, budget=budget)
            else:
                res = gamma_exact_avoiding(g, forbidden, budget=budget)
        except BudgetExceeded as exc:
            res = exc.result
        except Infeasible:
            res = None
        row = None if res is None else [
            res.gamma, res.nodes_explored, sorted(list(e) for e in res.witness)
        ]
        h.update(json.dumps(row, separators=(",", ":")).encode("ascii") + b"\n")
    assert h.hexdigest() == SEARCH_DIGEST
