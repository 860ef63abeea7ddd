"""graph6 and edge-list parsing, graph6 writing, and the certificate dict.

The graph6 parser is strict: one graph per line, no whitespace tolerance
beyond a trailing newline, and any decoded degree above 3 is rejected so
nothing non-subcubic can enter through this door.

Both graph6 codecs leave the n(n-1)/2 adjacency bits to C-level byte
operations (binascii's base64 codec and bytes.translate): their cost is
linear in the line length plus O(m) Python work, one step per edge.
"""

from __future__ import annotations

import binascii
import re
from math import isqrt

from .errors import DegreeOverflow, MalformedGraph6, MalformedLine, NotSubcubic
from .graph import Graph

_OFFSET = 63
_HEADER = b">>graph6<<"
# graph6 packs six bits per byte, big-endian, as chr(63 + value); base64 packs
# them the same way over another alphabet, so its C codec does the bit work
_G6_ALPHABET = bytes(range(_OFFSET, _OFFSET + 64))
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64 = bytes.maketrans(_G6_ALPHABET, _B64_ALPHABET)
_TO_G6 = bytes.maketrans(_B64_ALPHABET, _G6_ALPHABET)
_NONZERO = re.compile(rb"[^\x00]")
# int() alone would also take "+3", "1_0" and non-ASCII digits such as "１"
_VERTEX_ID = re.compile(r"[0-9]+")
# up to about this many decoded bytes (n near 250) a Python loop over every
# byte costs less than one regex match object per nonzero byte
_SHORT = 4096


def parse_graph6(line: str | bytes) -> Graph:
    """Decode one graph6 line into a Graph, enforcing the degree cap."""
    if isinstance(line, str):
        try:
            line = line.encode("ascii")
        except UnicodeEncodeError:
            raise MalformedGraph6("non-ASCII character in graph6 line") from None
    line = line.rstrip(b"\n")
    if line.startswith(_HEADER):
        line = line[len(_HEADER):]
    if not line:
        raise MalformedGraph6("empty line")
    if line[0] == 126:  # '~' extended size header
        if len(line) >= 2 and line[1] == 126:
            raise MalformedGraph6("8-byte size header not supported (n too large)")
        if len(line) < 4:
            raise MalformedGraph6("truncated extended size header")
        n = 0
        for byte in line[1:4]:
            val = byte - _OFFSET
            if val < 0 or val > 63:
                raise MalformedGraph6("bad byte in size header")
            n = (n << 6) | val
        body = line[4:]
    else:
        n = line[0] - _OFFSET
        if n < 0 or n > 62:
            raise MalformedGraph6("bad size byte")
        body = line[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise MalformedGraph6(f"body has {len(body)} bytes, expected {expected}")
    bad = body.translate(None, _G6_ALPHABET)
    if bad:
        raise MalformedGraph6(f"byte {bad[0]} outside graph6 range")
    # the padding bits are the low bits of the last body byte
    if body and (body[-1] - _OFFSET) & ((1 << (6 * expected - nbits)) - 1):
        raise MalformedGraph6("nonzero padding bits")
    b64 = body.translate(_TO_B64)
    data = binascii.a2b_base64(b64 + b"A" * (-len(b64) % 4))
    if len(data) <= _SHORT:
        nonzero = enumerate(data)
    else:
        nonzero = [(m.start(), data[m.start()]) for m in _NONZERO.finditer(data)]
    # bit p = j(j-1)/2 + i is the pair i < j; ascending p lists the edges in
    # column order, j first, as a pair-by-pair decoder would
    pairs = []
    for k, byte in nonzero:
        while byte:
            top = byte.bit_length() - 1
            byte ^= 1 << top
            p = 8 * k + 7 - top
            j = (1 + isqrt(1 + 8 * p)) // 2
            pairs.append((p - j * (j - 1) // 2, j))
    try:
        return Graph.from_edges(pairs, range(n))
    except DegreeOverflow:
        raise NotSubcubic("decoded graph has a vertex of degree > 3") from None


def write_graph6(g: Graph) -> str:
    """Encode a labeled graph; vertices are relabeled 0..n-1 in sorted order.

    When the vertex ids already are 0..n-1 (every generator and the whole
    corpus), parse(write(g)) reproduces the graph exactly.
    """
    ids = g.vertices()
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    if n > 258047:
        raise MalformedGraph6("n too large for 4-byte graph6 header")
    if n <= 62:
        head = bytes([n + _OFFSET])
    else:
        head = bytes([126, (n >> 12) + _OFFSET, ((n >> 6) & 63) + _OFFSET, (n & 63) + _OFFSET])
    nbits = n * (n - 1) // 2
    bits = bytearray((nbits + 23) // 24 * 3)  # whole base64 groups: no '=' padding
    for u, v in g.edges():
        i, j = index[u], index[v]  # u < v, and the relabeling keeps the order
        p = j * (j - 1) // 2 + i
        bits[p >> 3] |= 128 >> (p & 7)
    body = binascii.b2a_base64(bits, newline=False).translate(_TO_G6)
    return (head + body[:(nbits + 5) // 6]).decode("ascii")


def parse_edgelist(text: str) -> Graph:
    """Parse "u v" lines; '#' comments ignored; optional leading "n m" header.

    Every field is a run of ASCII digits 0-9.  Ids are taken as given: the
    vertices are the ids that appear, in sorted order, or range(n) under a
    header.

    A first data line (a, b) is read as a header exactly when b data lines
    follow, b >= 1, all with endpoints below a; otherwise every line is an
    edge, so the lone line "3 0" is the edge 0-3.  A header reading whose
    rest fails to build does not fall back to the all-edges reading: that
    reading holds the same self-loop, duplicate or degree overflow.
    """
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise MalformedLine(f"line {lineno}: expected two fields, got {stripped!r}")
        if not (_VERTEX_ID.fullmatch(parts[0]) and _VERTEX_ID.fullmatch(parts[1])):
            raise MalformedLine(f"line {lineno}: vertex id not in [0-9]+ in {stripped!r}")
        data_lines.append((int(parts[0]), int(parts[1])))
    if not data_lines:
        raise MalformedLine("no edges in input")

    first_n, first_m = data_lines[0]
    rest = data_lines[1:]
    if len(rest) == first_m and rest and all(u < first_n and v < first_n for u, v in rest):
        pairs, vertices = rest, range(first_n)
    else:
        pairs, vertices = data_lines, sorted({v for p in data_lines for v in p})
    try:
        return Graph.from_edges(pairs, vertices)
    except DegreeOverflow as exc:
        raise NotSubcubic(f"vertex degree above 3: {exc}") from None


def certificate_dict(cert) -> dict:
    """Stable-order dict form of a SolveCertificate, or of the list that
    solve_all returns: summed over the components, plus their count."""
    certs = cert if isinstance(cert, list) else [cert]
    matching = sorted([u, v] for c in certs for u, v in c.matching)
    out = {
        "schema": 1,
        "n": sum(c.bound.n for c in certs),
        "m": sum(c.bound.m for c in certs),
        "n1": sum(c.bound.n1 for c in certs),
        "I": sum(c.bound.cubic for c in certs),
        "K": sum(c.bound.k2 for c in certs),
        "lambda_times_6": sum(c.bound.lambda_times_6 for c in certs),
        "matching": matching,
        "matching_size": len(matching),
        "rule_trace": [
            {
                "rule": step.rule,
                "case": step.case,
                "deleted": sorted(step.deleted),
                "added": sorted([u, v] for u, v in step.added_edges),
            }
            for c in certs
            for step in c.trace
        ],
    }
    if cert is certs:
        out["components"] = len(certs)
    out["k33_special"] = any(c.k33_special for c in certs)
    out["valid"] = all(c.valid for c in certs)
    out["elapsed_ms"] = sum(c.elapsed_ms for c in certs)
    return out
