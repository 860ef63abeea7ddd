"""Matchings, maximality, and the certified size bound in integer sixths.

The bound for a connected subcubic graph is

    lambda(G) = (4n - m)/6 + (2I + K - n1)/6

with I = 1 iff G is cubic and K = 1 iff G is K2.  All comparisons are done
on lambda_times_6 = 4n - m + 2I + K - n1, so there is no floating point and
no rounding anywhere.  K33 is the single exception: its minimum maximal
matching has size 3, which exceeds floor(lambda), and certificates check it
against 5n/12 + 1/2 instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Disconnected, EdgeNotInGraph, EmptyGraph, NotAMatching
from .graph import Edge, Graph, edge, is_k33

Matching = frozenset[Edge]


def as_matching(edges) -> Matching:
    return frozenset(edge(u, v) for u, v in edges)


def is_matching(g: Graph, M) -> bool:
    """True iff the edges are pairwise vertex-disjoint; an edge that is not
    in g raises EdgeNotInGraph."""
    status = maximality_status(g, M)
    if status == 1:
        _reject_foreign_edges(g, M)
    return status != 1


def maximality_status(g: Graph, M, region=None) -> int:
    """One-pass check: 0 = maximal matching, 1 = not a matching in g,
    2 = matching but extensible.  The solver's per-step validation; the
    public predicates wrap it.

    With `region`, only the vertices of region in g and their edges are
    examined, in time linear in the region: the caller vouches that M is a
    maximal matching of g everywhere else, and that every edge of M at a
    vertex of region is an edge of g.
    """
    adj = g._adj
    if region is not None:
        region = [v for v in region if v in adj]
        hits = {}  # vertex -> edges of M at it (outside region: 0 or 1)
        for v in region:
            k = 0
            for w in adj[v]:
                if ((v, w) if v < w else (w, v)) in M:
                    k += 1
            if k > 1:
                return 1
            hits[v] = k
        for v in region:
            if hits[v]:
                continue
            for w in adj[v]:
                k = hits.get(w)
                if k is None:
                    k = hits[w] = any(((w, x) if w < x else (x, w)) in M for x in adj[w])
                if not k:
                    return 2
        return 0
    covered: set[int] = set()
    for u, v in M:
        if u in covered or v in covered:
            return 1
        nbrs = adj.get(u)
        if nbrs is None or v not in nbrs:
            return 1
        covered.add(u)
        covered.add(v)
    for v, nbrs in adj.items():
        if v not in covered and not nbrs <= covered:
            return 2
    return 0


def is_maximal(g: Graph, M) -> bool:
    """True iff M is a matching and every edge of g has a covered endpoint."""
    status = maximality_status(g, M)
    if status == 1:
        _reject_foreign_edges(g, M)
        raise NotAMatching("edge set is not a matching")
    return status == 0


def _reject_foreign_edges(g: Graph, M) -> None:
    for u, v in M:
        if not g.has_edge(u, v):
            raise EdgeNotInGraph(f"edge {edge(u, v)} not in graph")


@dataclass(frozen=True)
class BoundReport:
    """A connected graph's counts, and its bound held exactly as lambda_times_6 / 6."""

    n: int
    m: int
    n1: int  # vertices of degree 1
    cubic: int  # the indicator I
    k2: int     # the indicator K
    lambda_times_6: int


def lambda6(g: Graph) -> int:
    """lambda_times_6 = 4n - m + 2I + K - n1 of a graph the caller knows to be
    connected and non-empty."""
    return lambda6_of(g.n, g.m, len(g.degree_bucket(1)), g.is_cubic())


def lambda6_of(n: int, m: int, n1: int, cubic: bool = False) -> int:
    """The one formula of the bound, from a connected graph's counts: n
    vertices, m edges, n1 of degree 1, and whether it is cubic."""
    return 4 * n - m + 2 * cubic + (n == 2 and m == 1) - n1


def bound_report(g: Graph, connected: bool = False) -> BoundReport:
    """Bound quantities for a connected graph; rejects disconnected input
    unless the caller already knows g is connected (`connected=True` skips
    the scan, as solver._solve does; the per-step checks call lambda6).

    The solver dispatches per component explicitly, so I and K always refer
    to one connected graph here.
    """
    if g.n == 0:
        raise EmptyGraph("bound undefined for the empty graph")
    if not connected and not g.is_connected():
        raise Disconnected("bound defined per connected graph")
    n, m, n1, cubic = g.n, g.m, len(g.degree_bucket(1)), g.is_cubic()
    return BoundReport(n, m, n1, int(cubic), int(n == 2 and m == 1), lambda6_of(n, m, n1, cubic))


def gamma_lower_bound(g: Graph) -> int:
    """ceil(m / 5): one matching edge dominates at most 5 edges at degree 3.

    For cubic graphs m = 3n/2, so this is exactly ceil(3n/10).
    """
    return -(-g.m // 5)


def matching_within_bound(g: Graph, M, report: BoundReport | None = None) -> bool:
    """Size check a certificate uses: special-cased for K33."""
    if is_k33(g):
        # 6|M| <= 6*(5n/12 + 1/2) = 18, and no maximal matching of K33 is
        # smaller than 3, so this pins |M| = 3.
        return len(M) == 3
    if report is None:
        report = bound_report(g)
    return 6 * len(M) <= report.lambda_times_6
