import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmatch.errors import (
    DegreeOverflow,
    DuplicateEdge,
    InternalInvariantViolation,
    MissingEdge,
    PreconditionViolated,
    SelfLoop,
    UnknownVertex,
)
from minmatch.generators import enumerate_connected_subcubic, gen_named, gen_random_cubic
from minmatch.graph import Graph, is_k33


def degree3(g):
    """The vertices of degree 3, counted from adjacency, not from the buckets."""
    return sum(g.degree(v) == 3 for v in g.iter_vertices())


def test_add_edge_builds_k2():
    g = Graph()
    g.add_vertex(0)
    g.add_vertex(1)
    g.add_edge(0, 1)
    assert (g.n, g.m) == (2, 1)


def test_add_edge_closes_cycle():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    g.add_edge(0, 3)
    assert not g.is_cubic()
    assert len(g.degree_bucket(2)) == 4  # C4


def test_add_edge_degree_overflow_on_k33():
    g = gen_named("K33")
    with pytest.raises(DegreeOverflow):
        g.add_edge(0, 1)


def test_add_edge_rejects_self_loop_and_duplicate():
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(SelfLoop):
        g.add_edge(2, 2)
    with pytest.raises(DuplicateEdge):
        g.add_edge(1, 0)


@pytest.mark.parametrize(
    "u, v, error",
    [
        (2, 2, SelfLoop),
        (1, 0, DuplicateEdge),
        (0, 99, DegreeOverflow),  # 99 is new
        (99, 0, DegreeOverflow),
    ],
)
def test_refused_add_edge_changes_nothing(u, v, error):
    g = gen_named("K4")
    before = g.copy()
    with pytest.raises(error):
        g.add_edge(u, v)
    assert g == before
    g.validate()


def test_cut_off_and_smaller_side_reject_unknown_seeds():
    g = gen_named("K4")
    for seeds in ({0, 99}, {99}, {1, 2, 99}):
        with pytest.raises(UnknownVertex):
            g.cut_off(seeds)
    for a, b in (([99], [1]), ([1], [99]), ([1, 99], [2])):
        with pytest.raises(UnknownVertex):
            g.smaller_side(a, b, {0})


def test_refused_restore_changes_nothing():
    g = gen_named("K4")
    saved = g.remove_vertices_with_undo({0})
    g.add_edge(1, 9)  # 1 is back at degree 3, so 0 cannot return
    before = g.copy()
    with pytest.raises(DegreeOverflow):
        g.restore_vertices(saved)
    assert g == before and g.m == before.m
    assert [g.degree_bucket(d) for d in range(3)] == [before.degree_bucket(d) for d in range(3)]
    g.validate()
    g.remove_vertices_with_undo([2])  # a neighbour of 0 is gone
    before = g.copy()
    with pytest.raises(UnknownVertex):
        g.restore_vertices(saved)
    assert g == before
    g.validate()
    with pytest.raises(PreconditionViolated):  # a vertex of saved is in g
        g.restore_vertices({1: frozenset({3})})
    assert g == before
    g.validate()


def test_remove_vertices_k33_minus_one():
    g = gen_named("K33")
    g.remove_vertices_with_undo({0})
    assert (g.n, g.m, len(g.degree_bucket(2))) == (5, 6, 3)
    assert sorted(v for v in g.vertices() if g.degree(v) == 3) == [1, 2]


def test_remove_vertices_c4_minus_one_gives_p3():
    g = gen_named("C_n", 4)
    g.remove_vertices_with_undo({3})
    assert (g.n, g.m) == (3, 2)
    assert g.degree_bucket(1) == {0, 2}


def test_remove_vertices_empty_set_is_identity():
    g = gen_named("PETERSEN")
    h = g.copy()
    g.remove_vertices_with_undo(set())
    assert g == h


def test_remove_vertices_unknown():
    g = gen_named("K2")
    with pytest.raises(UnknownVertex):
        g.remove_vertices_with_undo({5})


def test_vertex_ids_stable_across_deletion():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    g.remove_vertices_with_undo({1})
    assert g.vertices() == [0, 2, 3]


def test_connected_components():
    assert gen_named("K33").connected_components() == [set(range(6))]
    g = Graph.from_edges([(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    assert [len(c) for c in g.connected_components()] == [2, 4]
    iso = Graph.from_edges([], vertices=[3, 1, 2])
    assert iso.connected_components() == [{1}, {2}, {3}]


def test_bridges_path_and_cycle():
    p4 = gen_named("P_n", 4)
    assert p4.find_bridges() == {(0, 1), (1, 2), (2, 3)}
    assert gen_named("C_n", 6).find_bridges() == set()


def naive_bridges(g: Graph) -> set:
    base = len(g.connected_components())
    out = set()
    for e in g.edges():
        h = g.copy()
        h.remove_edge(*e)
        if len(h.connected_components()) > base:
            out.add(e)
    return out


def test_bridges_two_triangles_joined():
    g = Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )
    assert g.find_bridges() == {(2, 3)}
    assert g.find_bridges() == naive_bridges(g)


def test_bridges_match_naive_oracle_exhaustive():
    for n in range(2, 7):
        for g in enumerate_connected_subcubic(n):
            assert g.find_bridges() == naive_bridges(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([8, 10, 14, 20]), st.integers(0, 4))
def test_bridges_match_naive_oracle_random(seed, n, deletions):
    g = gen_random_cubic(n, seed)
    rng = random.Random(seed + 1)
    for _ in range(deletions):
        edges = g.edges()
        g.remove_edge(*rng.choice(edges))
    assert g.find_bridges() == naive_bridges(g)


def test_cubic_components():
    g = gen_named("K4")
    for u, v in gen_named("P_n", 3).edges():
        g.add_edge(u + 10, v + 10)
    assert g.cubic_components() == [{0, 1, 2, 3}]
    assert gen_named("C_n", 5).cubic_components() == []
    assert gen_named("K33").cubic_components() == [set(range(6))]
    # has_cubic_component_touching: true from a seed in the K4, false from
    # seeds only in the path, and vertices not in g are skipped
    assert g.has_cubic_component_touching([10, 11, 3])
    assert g.has_cubic_component_touching([99, 0])
    assert not g.has_cubic_component_touching([12, 10, 11])
    assert not g.has_cubic_component_touching([99, 98])
    assert not g.has_cubic_component_touching([])
    assert not gen_named("C_n", 5).has_cubic_component_touching(range(5))
    assert not gen_named("K33_MINUS").has_cubic_component_touching([1, 4])  # degree 3, not cubic


def test_degree_census_examples():
    g = gen_named("K33")
    assert (g.n, g.m, len(g.degree_bucket(1)), len(g.degree_bucket(2)), degree3(g)) == (6, 9, 0, 0, 6)
    g = gen_named("K2")
    assert (g.n, g.m, len(g.degree_bucket(1))) == (2, 1, 2)


def test_census_sum_identity():
    for n in range(1, 6):
        for g in enumerate_connected_subcubic(n):
            n0, n1, n2 = map(len, map(g.degree_bucket, range(3)))
            n3 = degree3(g)
            assert n0 + n1 + n2 + n3 == g.n
            assert n1 + 2 * n2 + 3 * n3 == 2 * g.m


def test_is_k33():
    assert is_k33(gen_named("K33"))
    relabeled = Graph.from_edges(
        (10 * i, 10 * j + 1) for i in range(3) for j in range(3, 6)
    )
    assert is_k33(relabeled)
    prism = Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    assert prism.is_cubic() and not is_k33(prism)
    assert not is_k33(gen_named("K33_MINUS"))
    assert not is_k33(gen_named("C_n", 6))
    assert not is_k33(gen_named("K4"))


def test_validate_on_generated_graphs():
    for name in ("K2", "K4", "K33", "K33_MINUS", "PETERSEN", "CUBE_Q3"):
        gen_named(name).validate()
    gen_random_cubic(50, 3).validate()


def test_validate_rejects_a_stale_bucket_entry():
    g = Graph.from_edges([(0, 1), (1, 2)])
    g._buckets[2].add(99)  # not a vertex: 4 bucket entries for 3 vertices
    with pytest.raises(InternalInvariantViolation):
        g.validate()


def _over_degree(g):
    # a fourth edge at the centre 0 of a star, with its own end made consistent
    g._adj[0].add(4)
    g._adj[4] = {0}
    g._buckets[1].add(4)
    g._m += 1


def _self_loop(g):
    g._adj[0].add(0)  # 0 goes from degree 2 to 3 and stays in bucket 2


def _one_sided(g):
    g._adj[0].add(3)  # 0 sees 3, but 3 does not see 0


@pytest.mark.parametrize("corrupt, message", [
    (_over_degree, "degree of 0 exceeds 3"),
    (_self_loop, "self-loop at 0"),
    (_one_sided, "asymmetric edge 0-3"),
    (lambda g: g._buckets[1].discard(1), "bucket 1 wrong for 1"),
    (lambda g: setattr(g, "_m", g.m + 1), "edge counter 4 != 3"),
])
def test_validate_names_each_broken_invariant(corrupt, message):
    # each corruption breaks one invariant of a copy of a valid graph: a star
    # for the degree cap, else the path 1-0-2-3
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)] if corrupt is _over_degree else [(1, 0), (0, 2), (2, 3)])
    h = g.copy()
    corrupt(h)
    with pytest.raises(InternalInvariantViolation, match=f"^{message}$"):
        h.validate()
    g.validate()


def test_remove_edge_refuses_a_missing_edge():
    g = gen_named("C_n", 4)
    with pytest.raises(MissingEdge, match=r"edge \(0, 2\) not present"):
        g.remove_edge(2, 0)
    assert g == gen_named("C_n", 4) and g.m == 4


def test_restore_refuses_a_saved_vertex_of_degree_4():
    # the other ends would each take one more edge and stay within degree 3,
    # so only the saved vertex's own degree refuses the restore
    g = Graph.from_edges([(0, 1), (2, 3)])
    before = g.copy()
    with pytest.raises(DegreeOverflow, match="vertex 9 would exceed degree 3"):
        g.restore_vertices({9: frozenset({0, 1, 2, 3})})
    assert g == before and g.m == before.m
    assert [g.degree_bucket(d) for d in range(3)] == [before.degree_bucket(d) for d in range(3)]
    g.validate()


def test_component_of_an_unknown_vertex():
    with pytest.raises(UnknownVertex, match="vertex 9 not in graph"):
        gen_named("K4").component_of(9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_remove_restore_roundtrip(seed):
    rng = random.Random(seed)
    g = gen_random_cubic(rng.choice([8, 12, 16]), seed)
    before = g.copy()
    vs = set(rng.sample(g.vertices(), rng.randint(1, 5)))
    saved = g.remove_vertices_with_undo(vs)
    g.validate()
    assert all(v not in g for v in vs)
    g.restore_vertices(saved)
    g.validate()
    assert g == before


def test_subgraph_induced():
    g = gen_named("K33")
    h = g.subgraph({0, 1, 3, 4})
    assert h.n == 4 and h.m == 4
    h.validate()
    with pytest.raises(UnknownVertex):
        g.subgraph({0, 1, 6})


def reference_build(edges, vertices=()) -> Graph:
    """The graph built the slow way, one add_vertex / add_edge at a time."""
    g = Graph()
    for v in vertices:
        g.add_vertex(v)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def layout(g: Graph):
    """Everything iteration can see: vertex order and each neighbour set's order."""
    return [(v, list(g.neighbors(v))) for v in g.iter_vertices()], g.m


def assert_builds_like_reference(edges, vertices=()):
    g = Graph.from_edges(edges, vertices)
    g.validate()
    ref = reference_build(edges, vertices)
    assert layout(g) == layout(ref)
    assert [g.degree_bucket(d) for d in range(3)] == [ref.degree_bucket(d) for d in range(3)]


def shuffled_edges(g: Graph, rng: random.Random) -> list:
    """g's edges in a random order, each in a random orientation."""
    edges = [e if rng.random() < 0.5 else e[::-1] for e in g.edges()]
    rng.shuffle(edges)
    return edges


def test_from_edges_matches_reference_on_small_graphs():
    rng = random.Random(7)
    for n in range(2, 6):
        for g in enumerate_connected_subcubic(n):
            assert_builds_like_reference(g.edges(), range(n))
            assert_builds_like_reference(shuffled_edges(g, rng))


def test_from_edges_matches_reference_on_random_cubic():
    rng = random.Random(11)
    for n, seed in ((10, 0), (50, 1), (200, 2), (1000, 3)):
        g = gen_random_cubic(n, seed)
        assert_builds_like_reference(shuffled_edges(g, rng), range(n))
        assert_builds_like_reference(shuffled_edges(g, rng))


def test_from_edges_isolated_and_noncontiguous_ids():
    rng = random.Random(13)
    edges = [(7 * u + 3, 7 * v + 3) for u, v in shuffled_edges(gen_random_cubic(30, 4), rng)]
    assert_builds_like_reference(edges, [500, 10, 3, 10, 1000])
    assert_builds_like_reference([], [9, 2, 5])
    g = Graph.from_edges([(4, 8)], [12, 8])
    assert list(g.iter_vertices()) == [12, 8, 4]
    assert g.degree_bucket(0) == {12} and g.degree_bucket(1) == {4, 8}


@pytest.mark.parametrize(
    "edges, error",
    [
        ([(0, 1), (2, 2)], SelfLoop),
        ([(0, 1), (1, 2), (2, 1)], DuplicateEdge),
        ([(0, 1), (1, 2), (0, 1)], DuplicateEdge),
        ([(0, 1), (0, 2), (0, 3), (4, 5), (0, 4)], DegreeOverflow),
        ([(1, 0), (2, 0), (3, 0), (4, 0)], DegreeOverflow),
    ],
)
def test_from_edges_raises_what_add_edge_raises(edges, error):
    with pytest.raises(error) as ref:
        reference_build(edges)
    with pytest.raises(error) as got:
        Graph.from_edges(edges)
    assert str(got.value) == str(ref.value)  # the message names the same edge
