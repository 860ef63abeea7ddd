"""Pinned digest of the reduction traces on a seeded corpus.

The digest covers (rule, case, sorted deleted, sorted added) of every step of
every certificate, in order.  A change that only restructures the solver must
leave it unchanged; a change that alters rule choice, case analysis or trace
order shows up here first.
"""

import hashlib
import json

from conftest import bridge_chain, bridged_pair, random_connected_subcubic
from minmatch.generators import enumerate_connected_subcubic, gen_random_cubic
from minmatch.solver import solve

EXPECTED = "ac027717a55439cc83e62e559a795d7852eb396ab685aa0237a98b9906fe2792"


def corpus():
    small = [g for n in range(1, 7) for g in enumerate_connected_subcubic(n)]
    return small[::11] + [gen_random_cubic(100, seed) for seed in (1, 2, 3)] + [
        bridged_pair(10, 0),
        random_connected_subcubic(40, 14),  # bridged, solved by linear steps alone
        random_connected_subcubic(40, 25, 6),
        random_connected_subcubic(40, 28, 2),
        bridge_chain(5, 0),
        random_connected_subcubic(16, 971, 1),  # every candidate leaves a cubic part: gamma1
        random_connected_subcubic(12, 52, 2),  # case 2.3.1's stem: gamma0
    ]


def trace_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        for s in solve(g).trace:
            row = [s.rule, s.case, sorted(s.deleted), sorted(list(e) for e in s.added_edges)]
            h.update(json.dumps(row, separators=(",", ":")).encode("ascii"))
            h.update(b"\n")
        h.update(b"--\n")
    return h.hexdigest()


def test_trace_digest_pinned():
    assert trace_digest(corpus()) == EXPECTED
