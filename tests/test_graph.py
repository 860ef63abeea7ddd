import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmatch.errors import (
    DegreeOverflow,
    DuplicateEdge,
    InternalInvariantViolation,
    PreconditionViolated,
    SelfLoop,
    UnknownVertex,
)
from minmatch.generators import enumerate_connected_subcubic, gen_named, gen_random_cubic
from minmatch.graph import Graph, is_k33


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
    assert g.degree_census().n2 == 4  # C4


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


def test_joined_and_smaller_side_reject_unknown_seeds():
    g = gen_named("K4")
    for seeds, paths in (({0, 99}, 1), ({99}, 2), ({99}, 1), ({1, 2, 99}, 2)):
        with pytest.raises(UnknownVertex):
            g.joined(seeds, paths)
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
    assert g == before and g.degree_census() == before.degree_census()
    g.validate()
    g.remove_vertices([2])  # a neighbour of 0 is gone
    before = g.copy()
    with pytest.raises(UnknownVertex):
        g.restore_vertices(saved)
    assert g == before
    g.validate()
    with pytest.raises(PreconditionViolated):  # a vertex of saved is in g
        g.restore_vertices({1: frozenset({3})})
    assert g == before
    g.validate()


def ear_store_graph() -> Graph:
    g = gen_random_cubic(50, 3)
    assert g.joined({0, 10, 20, 30}, 2)
    return g


def test_validate_checks_the_ear_store():
    ear_store_graph().validate()
    g = ear_store_graph()
    owner, units = g._ears
    owner[99] = next(iter(units))  # not a vertex of g
    with pytest.raises(InternalInvariantViolation):
        g.validate()
    g = ear_store_graph()
    owner, units = g._ears
    owner[next(v for v in g.iter_vertices() if v not in owner)] = -1  # no such unit
    with pytest.raises(InternalInvariantViolation):
        g.validate()
    g = ear_store_graph()
    owner, units = g._ears
    root = next(k for k, unit in units.items() if not unit[1])
    for v in units.pop(root)[0]:  # the root dies, but not the units on it
        del owner[v]
    with pytest.raises(InternalInvariantViolation):
        g.validate()


def test_remove_vertices_k33_minus_one():
    g = gen_named("K33")
    g.remove_vertices({0})
    c = g.degree_census()
    assert (c.n, c.m, c.n2, c.n3) == (5, 6, 3, 2)


def test_remove_vertices_c4_minus_one_gives_p3():
    g = gen_named("C_n", 4)
    g.remove_vertices({3})
    assert (g.n, g.m) == (3, 2)
    assert g.degree_census().n1 == 2


def test_remove_vertices_empty_set_is_identity():
    g = gen_named("PETERSEN")
    h = g.copy()
    g.remove_vertices(set())
    assert g == h


def test_remove_vertices_unknown():
    g = gen_named("K2")
    with pytest.raises(UnknownVertex):
        g.remove_vertices({5})


def test_vertex_ids_stable_across_deletion():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    g.remove_vertices({1})
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
    c = gen_named("K33").degree_census()
    assert (c.n, c.m, c.n1, c.n2, c.n3) == (6, 9, 0, 0, 6)
    c = gen_named("K2").degree_census()
    assert (c.n, c.m, c.n1) == (2, 1, 2)


def test_census_sum_identity():
    for n in range(1, 6):
        for g in enumerate_connected_subcubic(n):
            c = g.degree_census()
            assert len(g.degree_bucket(0)) + c.n1 + c.n2 + c.n3 == c.n
            assert c.n1 + 2 * c.n2 + 3 * c.n3 == 2 * c.m


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
    g._buckets[2].add(99)  # not a vertex: the census would read n3 = -1
    with pytest.raises(InternalInvariantViolation):
        g.validate()


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
