"""Exact minimum maximal matching by branch and bound.

Ground truth for the tests and the base-case solver for small graphs.
Edges are numbered in sorted order and sets of edges are int bitsets.  The
search is exponential; README gives measured times on random cubic graphs
up to n = 46.

Set-up reads the adjacency once.  The map from the sorted vertex ids to
0..n-1 keeps order, so the sorted index pairs (a, b), a < b, are the
sorted edge list, and edge i is bit i.  Most of the solver's base cases end
within a few nodes, so set-up is much of their cost: it copies nothing of
the graph but its edges, and maps the witness back through the sorted ids,
each edge in (min, max) form as it comes.

A search node holds its undominated edges (neither endpoint covered) as
one bitset, `free`; taking edge wy clears the edges at w and at y.  The
lowest set bit of `free` is the branch edge uv: u is the lowest vertex
with an undominated edge and v its lowest undominated neighbour.  An edge
at u or v whose endpoints are both uncovered is itself undominated, so the
node branches on the set bits of `free` at u or v, lowest first, which
is u's edges before v's: no undominated edge has an end below u.  Any
maximal matching must dominate uv, so one of those edges is in it; the
branching is therefore complete.

Two lower bounds on the edges still needed prune the search:
- the count bound: one matching edge dominates at most 5 edges in a
  subcubic graph, so a node needs at least ceil(undominated / 5) more;
- the packing bound: undominated edges whose endpoints are pairwise neither
  equal nor adjacent share no dominating edge, so each needs its own.  Only
  when the count bound does not prune, the node packs such edges greedily:
  it takes the lowest set bit and clears every edge that shares a
  dominating edge with it, one step per packed edge, and stops once the
  packing reaches the room under the incumbent.
A node is pruned iff its size plus the larger bound reaches the incumbent.
Both bounds are valid, so a pruned subtree never holds a strictly better
leaf: the search meets the same incumbents, in the same order, as with the
count bound alone, and returns the same witness in fewer nodes.  Bit order
is sorted edge order, so the branch edge, the order of the children and the
packing are those of a pass over the sorted edges, and the tree is the one
that such a pass would build.

The search runs on an explicit stack, so its depth is not bounded by
Python's recursion limit.  Set-up, seed and search are one function,
_branch_and_bound; gamma_exact and gamma_exact_avoiding each check their own
input and call it once, never each other, so a search is one call of either.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, Infeasible
from .graph import Edge, Graph, edge
from .matching import Matching


@dataclass(frozen=True, slots=True)
class OracleResult:
    gamma: int
    witness: Matching
    nodes_explored: int
    exact: bool = True


def _branch_and_bound(g: Graph, forbidden: Edge | None, budget: int | None) -> OracleResult | None:
    """A minimum maximal matching of g that avoids the edge `forbidden`
    (None: any edge may be taken), or None if no maximal matching avoids it."""
    adj = g._adj
    ids = sorted(adj)
    index = {v: i for i, v in enumerate(ids)}
    # g.edges() as index pairs, in the same order: edge i is bit i
    pairs = sorted([(index[v], index[w]) for v, nbrs in adj.items() for w in nbrs if v < w])
    inc = [0] * len(ids)  # the edges at a vertex
    bit = 1
    for a, b in pairs:
        inc[a] |= bit
        inc[b] |= bit
        bit <<= 1
    # the one edge at both ends of the forbidden edge
    forbit = 0 if forbidden is None else inc[index[forbidden[0]]] & inc[index[forbidden[1]]]
    # the edges at a neighbour of a vertex
    near = [0] * len(ids)
    for a, b in pairs:
        near[a] |= inc[b]
        near[b] |= inc[a]
    # per edge ab: the edges that taking it dominates, to clear; the edges at
    # a or b that may be taken, the branch set of a node whose branch edge is
    # ab; the edges that share a dominating edge with ab
    ndom, kids, nblock = [], [], []
    for a, b in pairs:
        at = inc[a] | inc[b]
        ndom.append(~at)
        kids.append(at & ~forbit)
        nblock.append(~(near[a] | near[b]))

    def result(exact: bool) -> OracleResult | None:
        if best_size is None:
            return None
        # a < b in every pair and ids increases, so each edge is in (min, max) form
        witness = frozenset([(ids[pairs[e][0]], ids[pairs[e][1]]) for e in best])
        return OracleResult(best_size, witness, nodes, exact)

    # the initial incumbent: the lexicographic greedy maximal matching, the
    # lowest undominated edge that is not forbidden until none is; with a
    # forbidden edge it may fail maximality
    full = (1 << len(pairs)) - 1
    free, best = full, []
    while rest := free & ~forbit:
        e = (rest & -rest).bit_length() - 1
        best.append(e)
        free &= ndom[e]
    best_size = None if free else len(best)
    # depth-first search on an explicit stack of (free, size, edge taken);
    # children are pushed highest first, so they pop lowest first
    nodes = 0
    path: list[int] = []
    stack: list[tuple[int, int, int | None]] = [(full, 0, None)]
    while stack:
        free, size, taken = stack.pop()
        if taken is not None:
            del path[size - 1:]
            path.append(taken)
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded("oracle node budget exhausted", result(exact=False))
        if not free:
            if best_size is None or size < best_size:
                best_size = size
                best = list(path)
            continue
        if best_size is not None:
            room = best_size - size
            if -(-free.bit_count() // 5) >= room:
                continue
            rest, packed = free, 0
            while rest:
                packed += 1
                if packed == room:
                    break
                rest &= nblock[(rest & -rest).bit_length() - 1]
            if packed == room:
                continue
        children = free & kids[(free & -free).bit_length() - 1]
        while children:
            e = children.bit_length() - 1
            children ^= 1 << e
            stack.append((free & ndom[e], size + 1, e))
    return result(exact=True)


def gamma_exact(g: Graph, budget: int | None = None) -> OracleResult:
    """Exact edge domination number with a witness matching."""
    if g.m == 0:
        return OracleResult(gamma=0, witness=frozenset(), nodes_explored=0)
    res = _branch_and_bound(g, None, budget)
    assert res is not None  # the greedy seed guarantees an incumbent
    return res


def gamma_exact_avoiding(g: Graph, forbidden: Edge, budget: int | None = None) -> OracleResult:
    """Minimum maximal matching among those excluding one designated edge."""
    forbidden = edge(*forbidden)
    if not g.has_edge(*forbidden):
        raise Infeasible(f"forbidden edge {forbidden} not in graph")
    res = _branch_and_bound(g, forbidden, budget)
    if res is None:
        raise Infeasible(f"no maximal matching avoids {forbidden}")
    return res
