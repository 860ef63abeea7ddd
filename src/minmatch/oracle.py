"""Exact minimum maximal matching by branch and bound.

Ground truth for the tests and the base-case solver for small graphs.
Edges are numbered in sorted order and sets of edges are int bitsets.  The
search is exponential; README gives measured times on random cubic graphs
up to n = 46.

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
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, Infeasible
from .graph import Edge, Graph, edge
from .matching import Matching, as_matching


@dataclass(frozen=True)
class OracleResult:
    gamma: int
    witness: Matching
    nodes_explored: int
    exact: bool = True


class _Search:
    def __init__(self, g: Graph, forbidden: Edge | None, budget: int | None):
        self.ids = g.vertices()
        index = {v: i for i, v in enumerate(self.ids)}
        # g.edges() is sorted and the id -> index map is monotone, so the
        # pairs are (a, b) with a < b, in lexicographic order; edge i is bit i
        self.edge_pairs = pairs = [(index[u], index[v]) for u, v in g.edges()]
        inc = [0] * len(self.ids)  # the edges at a vertex
        for i, (a, b) in enumerate(pairs):
            inc[a] |= 1 << i
            inc[b] |= 1 << i
        near = [0] * len(self.ids)  # the edges at a neighbour of a vertex
        for a, b in pairs:
            near[a] |= inc[b]
            near[b] |= inc[a]
        self.forbit = 0
        if forbidden is not None:
            self.forbit = 1 << pairs.index((index[forbidden[0]], index[forbidden[1]]))
        # per edge ab: the edges that taking it dominates, to clear; the
        # edges at a or b that may be taken, the branch set of a node whose
        # branch edge is ab; the edges that share a dominating edge with ab
        self.ndom = [~(inc[a] | inc[b]) for a, b in pairs]
        self.kids = [(inc[a] | inc[b]) & ~self.forbit for a, b in pairs]
        self.nblock = [~(near[a] | near[b]) for a, b in pairs]
        self.budget = budget
        self.nodes = 0
        self.best_size: int | None = None
        self.best: list[int] | None = None

    def seed_greedy(self) -> None:
        """Lexicographic greedy maximal matching as the initial incumbent:
        the lowest undominated edge that is not forbidden, until none is."""
        free = (1 << len(self.edge_pairs)) - 1
        chosen = []
        while rest := free & ~self.forbit:
            e = (rest & -rest).bit_length() - 1
            chosen.append(e)
            free &= self.ndom[e]
        # with a forbidden edge the greedy result may fail maximality
        if not free:
            self.best_size = len(chosen)
            self.best = chosen

    def run(self) -> None:
        """Depth-first search on an explicit stack of (free, size, edge
        taken); children are pushed highest first, so they pop lowest first."""
        self.seed_greedy()
        ndom, kids, nblock, budget = self.ndom, self.kids, self.nblock, self.budget
        path: list[int] = []
        stack: list[tuple[int, int, int | None]] = [((1 << len(ndom)) - 1, 0, None)]
        while stack:
            free, size, taken = stack.pop()
            if taken is not None:
                del path[size - 1:]
                path.append(taken)
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                raise BudgetExceeded("oracle node budget exhausted", self.result(exact=False))
            if not free:
                if self.best_size is None or size < self.best_size:
                    self.best_size = size
                    self.best = list(path)
                continue
            if self.best_size is not None:
                room = self.best_size - size
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

    def result(self, exact: bool = True) -> OracleResult | None:
        if self.best_size is None:
            return None
        pairs = (self.edge_pairs[e] for e in self.best)
        witness = as_matching((self.ids[a], self.ids[b]) for a, b in pairs)
        return OracleResult(
            gamma=self.best_size,
            witness=witness,
            nodes_explored=self.nodes,
            exact=exact,
        )


def gamma_exact(g: Graph, budget: int | None = None) -> OracleResult:
    """Exact edge domination number with a witness matching."""
    if g.m == 0:
        return OracleResult(gamma=0, witness=frozenset(), nodes_explored=0)
    search = _Search(g, forbidden=None, budget=budget)
    search.run()
    res = search.result()
    assert res is not None  # the greedy seed guarantees an incumbent
    return res


def gamma_exact_avoiding(g: Graph, forbidden: Edge, budget: int | None = None) -> OracleResult:
    """Minimum maximal matching among those excluding one designated edge."""
    forbidden = edge(*forbidden)
    if not g.has_edge(*forbidden):
        raise Infeasible(f"forbidden edge {forbidden} not in graph")
    search = _Search(g, forbidden=forbidden, budget=budget)
    search.run()
    res = search.result()
    if res is None:
        raise Infeasible(f"no maximal matching avoids {forbidden}")
    return res
