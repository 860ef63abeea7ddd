"""Exact minimum maximal matching by branch and bound.

Ground truth for the tests and the base-case solver for small graphs.
Vertices are packed into bitmasks.  The search is exponential; README
gives measured times on random cubic graphs up to n = 46.

Each search node makes one pass over the edge masks, which are in sorted
order.  The pass counts the undominated edges (neither endpoint covered),
and its first undominated edge uv gives the branch: u is the lowest vertex
with an undominated edge and v its lowest undominated neighbour.  The node
branches on every edge at u or v whose endpoints are both uncovered.  Any
maximal matching must dominate uv, so one of those edges is in it; the
branching is therefore complete.

Two lower bounds on the edges still needed prune the search:
- the count bound: one matching edge dominates at most 5 edges in a
  subcubic graph, so a node needs at least ceil(undominated / 5) more;
- the packing bound: undominated edges whose endpoints are pairwise neither
  equal nor adjacent share no dominating edge, so each needs its own.  Only
  when the count bound does not prune, a second pass packs such edges
  greedily, and stops once the packing reaches the room under the incumbent.
A node is pruned iff its size plus the larger bound reaches the incumbent.
Both bounds are valid, so a pruned subtree never holds a strictly better
leaf: the search meets the same incumbents, in the same order, as with the
count bound alone, and returns the same witness in fewer nodes.

The search runs on an explicit stack, so its depth is not bounded by
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, Infeasible, TooLarge
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
        # pairs are (a, b) with a < b, in lexicographic order
        self.edge_pairs = [(index[u], index[v]) for u, v in g.edges()]
        self.adj = [0] * len(self.ids)
        self.edge_masks = []
        for a, b in self.edge_pairs:
            self.adj[a] |= 1 << b
            self.adj[b] |= 1 << a
            self.edge_masks.append((1 << a) | (1 << b))
        # an edge's endpoints and their neighbours: an edge that misses this
        # mask shares no dominating edge with it
        self.blocks = {
            mask: mask | self.adj[a] | self.adj[b]
            for mask, (a, b) in zip(self.edge_masks, self.edge_pairs)
        }
        self.forbidden = None if forbidden is None else (index[forbidden[0]], index[forbidden[1]])
        self.budget = budget
        self.nodes = 0
        self.best_size: int | None = None
        self.best: list[tuple[int, int]] | None = None

    def seed_greedy(self) -> None:
        """Lexicographic greedy maximal matching as the initial incumbent."""
        covered = 0
        chosen = []
        for a, b in self.edge_pairs:
            if (a, b) != self.forbidden and not (covered >> a) & 1 and not (covered >> b) & 1:
                chosen.append((a, b))
                covered |= (1 << a) | (1 << b)
        # with a forbidden edge the greedy result may fail maximality
        for mask in self.edge_masks:
            if not mask & covered:
                return
        self.best_size = len(chosen)
        self.best = chosen

    def run(self) -> None:
        """Depth-first search on an explicit stack of (covered, size, edge
        taken); children are pushed in reverse, so they pop in sorted order."""
        self.seed_greedy()
        adj, masks, blocks = self.adj, self.edge_masks, self.blocks
        forbidden, budget = self.forbidden, self.budget
        path: list[tuple[int, int]] = []
        stack: list[tuple[int, int, tuple[int, int] | None]] = [(0, 0, None)]
        while stack:
            covered, size, taken = stack.pop()
            if taken is not None:
                del path[size - 1:]
                path.append(taken)
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                raise BudgetExceeded("oracle node budget exhausted", self.result(exact=False))
            free = [mask for mask in masks if not mask & covered]
            if not free:
                if self.best_size is None or size < self.best_size:
                    self.best_size = size
                    self.best = list(path)
                continue
            if self.best_size is not None:
                room = self.best_size - size
                if -(-len(free) // 5) >= room:
                    continue
                blocked, packed = covered, 0
                for mask in free:
                    if not mask & blocked:
                        packed += 1
                        if packed == room:
                            break
                        blocked |= blocks[mask]
                if packed == room:
                    continue
            # the first undominated edge uv: u is the lowest vertex with an
            # undominated edge and v its lowest undominated neighbour, so
            # every edge at u sorts before every edge at v
            first = free[0]
            ubit = first & -first
            u, v = ubit.bit_length() - 1, first.bit_length() - 1
            children = []
            for w, rest in ((u, adj[u] & ~covered), (v, adj[v] & ~covered & ~ubit)):
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    y = bit.bit_length() - 1
                    pair = (y, w) if y < w else (w, y)
                    if pair != forbidden:
                        children.append((covered | (1 << w) | bit, size + 1, pair))
            stack.extend(reversed(children))

    def result(self, exact: bool = True) -> OracleResult | None:
        if self.best_size is None:
            return None
        witness = as_matching((self.ids[a], self.ids[b]) for a, b in self.best)
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


_ENUM_LIMIT = 12


def enumerate_maximal_matchings(g: Graph) -> list[Matching]:
    """All maximal matchings, for cross-checking gamma_exact on tiny graphs.

    A plain include/exclude search over the edges with its own maximality
    test, so that it shares no code with the search it checks.
    """
    if g.n > _ENUM_LIMIT:
        raise TooLarge(f"enumeration capped at n <= {_ENUM_LIMIT}")
    edges = g.edges()
    out: list[Matching] = []

    def search(i: int, chosen: list[Edge], covered: set[int]) -> None:
        if i == len(edges):
            if all(u in covered or v in covered for u, v in edges):
                out.append(frozenset(chosen))
            return
        u, v = edges[i]
        if u not in covered and v not in covered:
            search(i + 1, chosen + [(u, v)], covered | {u, v})
        search(i + 1, chosen, covered)

    search(0, [], set())
    return sorted(out, key=lambda M: (len(M), sorted(M)))
