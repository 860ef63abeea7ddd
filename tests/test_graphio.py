import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmatch.errors import (
    DuplicateEdge,
    MalformedGraph6,
    MalformedLine,
    NotSubcubic,
    SelfLoop,
)
from minmatch.generators import enumerate_connected_subcubic, gen_gk, gen_named, gen_random_cubic
from minmatch.graph import Graph
from minmatch.graphio import certificate_dict, parse_edgelist, parse_graph6, write_graph6
from minmatch.solver import solve


def reference_graph6(g: Graph) -> str:
    """Independent pair-by-pair encoder used as the round-trip oracle."""
    ids = sorted(g.vertices())
    n = len(ids)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(ids[i], ids[j]) else 0)
    bits += [0] * (-len(bits) % 6)
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        out.append(chr(int("".join(map(str, bits[k:k + 6])), 2) + 63))
    return "".join(out)


def reference_parse(line: bytes) -> Graph:
    """Independent pair-by-pair decoder: the spec's checks, in its order."""
    line = line.rstrip(b"\n")
    if line.startswith(b">>graph6<<"):
        line = line[10:]
    if not line:
        raise MalformedGraph6("empty")
    if line[0] == 126:
        header = line[1:4]
        if len(header) < 3 or any(not 63 <= c <= 126 for c in header) or header[0] == 126:
            raise MalformedGraph6("size header")
        n = sum((c - 63) << shift for c, shift in zip(header, (12, 6, 0)))
        body = line[4:]
    else:
        if not 63 <= line[0] <= 125:
            raise MalformedGraph6("size byte")
        n, body = line[0] - 63, line[1:]
    nbits = n * (n - 1) // 2
    if len(body) != -(-nbits // 6) or any(not 63 <= c <= 126 for c in body):
        raise MalformedGraph6("body")
    bits = [(c - 63) >> (5 - b) & 1 for c in body for b in range(6)]
    if any(bits[nbits:]):
        raise MalformedGraph6("padding")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = [pair for pair, bit in zip(pairs, bits) if bit]
    for v in range(n):
        if sum(v in e for e in edges) > 3:
            raise NotSubcubic("degree")
    return Graph.from_edges(edges, vertices=range(n))


def test_k2_is_A_underscore():
    assert write_graph6(gen_named("K2")) == "A_"
    g = parse_graph6("A_")
    assert (g.n, g.m) == (2, 1)


def test_c4_roundtrip_against_reference():
    c4 = gen_named("C_n", 4)
    assert write_graph6(c4) == reference_graph6(c4)
    back = parse_graph6(write_graph6(c4))
    assert back == c4 and len(back.degree_bucket(2)) == 4


def test_k5_rejected():
    k5 = reference_graph6_complete(5)
    with pytest.raises(NotSubcubic):
        parse_graph6(k5)


def reference_graph6_complete(n: int) -> str:
    bits = [1] * (n * (n - 1) // 2)
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        out.append(chr(int("".join(map(str, bits[k:k + 6])), 2) + 63))
    return "".join(out)


def test_roundtrip_named_and_chain():
    for name in ("K2", "K4", "K33", "K33_MINUS", "PETERSEN", "CUBE_Q3"):
        g = gen_named(name)
        assert parse_graph6(write_graph6(g)) == g
        assert write_graph6(g) == reference_graph6(g)
    g2 = gen_gk(2)
    back = parse_graph6(write_graph6(g2))
    assert back == g2
    assert (back.n, back.m) == (12, 18)


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for g in enumerate_connected_subcubic(n):
            line = write_graph6(g)
            assert line == reference_graph6(g)
            assert parse_graph6(line) == g


def test_single_vertex_shortest_encoding():
    g = Graph.from_edges([], vertices=[0])
    assert write_graph6(g) == "@"
    assert parse_graph6("@").n == 1


def test_extended_header_roundtrip():
    g = gen_named("C_n", 70)
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


def test_extended_header_matches_reference_encoder():
    for n in (64, 200, 500):
        g = gen_random_cubic(n, 3)
        line = write_graph6(g)
        assert line == reference_graph6(g)
        assert parse_graph6(line) == g


def test_noncontiguous_ids_match_reference_encoder():
    g = Graph.from_edges([(u * 7 + 3, v * 7 + 3) for u, v in gen_random_cubic(70, 5).edges()])
    line = write_graph6(g)
    assert line == reference_graph6(g)
    back = parse_graph6(line)
    assert (back.n, back.m) == (70, 105)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([b"", b"@", b"B", b"D", b"F", b"~", b"~??"]),
    st.binary(max_size=6) | st.lists(st.integers(60, 130), max_size=6).map(bytes),
)
def test_parse_agrees_with_reference_decoder(head, tail):
    line = head + tail
    try:
        want = reference_parse(line)
    except (MalformedGraph6, NotSubcubic) as exc:
        with pytest.raises(type(exc)):
            parse_graph6(line)
    else:
        assert parse_graph6(line) == want


def test_degree_cap_on_long_lines():
    g = gen_random_cubic(300, 2)
    line = bytearray(write_graph6(g), "ascii")
    i, j = next((i, j) for j in range(1, 300) for i in range(j) if not g.has_edge(i, j))
    p = j * (j - 1) // 2 + i
    line[4 + p // 6] += 32 >> (p % 6)  # one more edge on a cubic graph
    with pytest.raises(NotSubcubic, match="degree"):
        parse_graph6(bytes(line))


def test_roundtrip_memory_stays_linear_in_line_length():
    # the n(n-1)/2 adjacency bits of n = 8000 would need about 256 MB as a
    # list of Python ints; the 5.3 MB line itself is the scale to stay near
    g = gen_random_cubic(8000, 1)
    tracemalloc.start()
    try:
        back = parse_graph6(write_graph6(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == g
    assert peak < 40 * 2**20


def test_malformed_graph6():
    with pytest.raises(MalformedGraph6):
        parse_graph6("")
    with pytest.raises(MalformedGraph6):
        parse_graph6(">>graph6<<")  # header only
    with pytest.raises(MalformedGraph6):
        parse_graph6("A\u00e9")  # non-ASCII str
    with pytest.raises(MalformedGraph6):
        parse_graph6("C")  # truncated body
    with pytest.raises(MalformedGraph6):
        parse_graph6("A_X")  # trailing garbage
    with pytest.raises(MalformedGraph6):
        parse_graph6("A" + chr(62))  # byte below offset
    with pytest.raises(MalformedGraph6):
        parse_graph6("Aw")  # nonzero padding for n=2


def test_optional_header_prefix():
    assert parse_graph6(">>graph6<<A_").m == 1


def test_edgelist_basic():
    g = parse_edgelist("0 1\n1 2")
    assert (g.n, g.m) == (3, 2)


def test_edgelist_header_and_isolated():
    g = parse_edgelist("4 2\n0 1\n1 2")
    assert (g.n, g.m) == (4, 2)
    assert g.degree(3) == 0


def test_edgelist_comments_ignored():
    g = parse_edgelist("# a path\n0 1\n# middle\n1 2\n")
    assert (g.n, g.m) == (3, 2)


def test_edgelist_errors():
    with pytest.raises(DuplicateEdge):
        parse_edgelist("0 1\n0 1")
    with pytest.raises(SelfLoop):
        parse_edgelist("0 0")
    with pytest.raises(MalformedLine):
        parse_edgelist("0 1 2")
    with pytest.raises(MalformedLine):
        parse_edgelist("a b")
    for field in ("1_0", "+3", "-1", "\uff11"):  # int() parses each of these
        with pytest.raises(MalformedLine):
            parse_edgelist(f"0 {field}")
    with pytest.raises(MalformedLine):
        parse_edgelist("")
    with pytest.raises(NotSubcubic):
        parse_edgelist("0 1\n0 2\n0 3\n0 4")


def test_edgelist_and_graph6_agree():
    g = gen_named("CUBE_Q3")
    a = parse_graph6(write_graph6(g))
    b = parse_edgelist(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
    assert a == b


def test_certificate_json_fields_and_order():
    cert = solve(gen_named("K33"))
    payload = certificate_dict(cert)
    assert list(payload) == [
        "schema", "n", "m", "n1", "I", "K", "lambda_times_6", "matching",
        "matching_size", "rule_trace", "k33_special", "valid", "elapsed_ms",
    ]
    assert payload["schema"] == 1
    assert payload["matching_size"] == 3
    assert payload["lambda_times_6"] == 17
    assert payload["k33_special"] is True
    assert payload["valid"] is True


def test_certificate_json_k2_and_chain():
    k2 = certificate_dict(solve(gen_named("K2")))
    assert (k2["matching_size"], k2["lambda_times_6"]) == (1, 6)
    g3 = certificate_dict(solve(gen_gk(3)))
    assert g3["matching_size"] <= 7
    assert g3["valid"] is True


def test_edgelist_ids_are_taken_as_given():
    # without a header the vertices are the ids that appear, not range(max + 1)
    g = parse_edgelist("0 1000000")
    assert (g.n, g.m) == (2, 1)
    assert g.vertices() == [0, 1000000]
    assert parse_edgelist("0 2").is_connected()
    # a header still declares n, isolated vertices included
    assert parse_edgelist("3 1\n0 2").n == 3
