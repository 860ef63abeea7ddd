"""Exact minimum maximal matching by branch and bound.

Ground truth for the tests and the base-case solver for small graphs.
Vertices are packed into bitmasks, so the practical range is n <= ~40.

Branching: take the lowest-id vertex u that still has an undominated
incident edge, let v be its lowest undominated neighbour, and branch on
every edge at u or v whose endpoints are both uncovered.  Any maximal
matching must dominate uv, so one of those edges is in it; the branching
is therefore complete.  Pruning uses the domination count: one matching
edge dominates at most 5 edges in a subcubic graph, so a state needs at
least ceil(undominated / 5) further edges.
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
        self.nv = len(self.ids)
        self.adj = [0] * self.nv
        self.edge_masks: list[int] = []
        self.edge_pairs: list[tuple[int, int]] = []
        for u, v in g.edges():
            iu, iv = index[u], index[v]
            self.adj[iu] |= 1 << iv
            self.adj[iv] |= 1 << iu
            if forbidden is not None and edge(u, v) == forbidden:
                continue
            self.edge_pairs.append((iu, iv) if iu < iv else (iv, iu))
        self.edge_pairs.sort()
        self.edge_pair_set = set(self.edge_pairs)
        self.all_edge_masks = []
        for u, v in g.edges():
            self.all_edge_masks.append((1 << index[u]) | (1 << index[v]))
        self.budget = budget
        self.nodes = 0
        self.best_size: int | None = None
        self.best: list[tuple[int, int]] | None = None
        self.stack: list[tuple[int, int]] = []

    def seed_greedy(self) -> None:
        """Lexicographic greedy maximal matching as the initial incumbent."""
        covered = 0
        chosen = []
        for iu, iv in self.edge_pairs:
            if not (covered >> iu) & 1 and not (covered >> iv) & 1:
                chosen.append((iu, iv))
                covered |= (1 << iu) | (1 << iv)
        # with a forbidden edge the greedy result may fail maximality
        for mask in self.all_edge_masks:
            if not mask & covered:
                return
        self.best_size = len(chosen)
        self.best = chosen

    def undominated(self, covered: int) -> int:
        count = 0
        for mask in self.all_edge_masks:
            if not mask & covered:
                count += 1
        return count

    def run(self) -> None:
        self.seed_greedy()
        self._explore(0, 0)

    def _explore(self, covered: int, size: int) -> None:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceeded("oracle node budget exhausted", self.result(exact=False))
        u = -1
        for i in range(self.nv):
            if not (covered >> i) & 1 and self.adj[i] & ~covered:
                u = i
                break
        if u == -1:
            if self.best_size is None or size < self.best_size:
                self.best_size = size
                self.best = list(self.stack)
            return
        if self.best_size is not None:
            need = -(-self.undominated(covered) // 5)
            if size + need >= self.best_size:
                return
        free_u = self.adj[u] & ~covered
        v = (free_u & -free_u).bit_length() - 1
        candidates = set()
        rest = free_u
        while rest:
            bit = rest & -rest
            x = bit.bit_length() - 1
            rest ^= bit
            candidates.add((u, x) if u < x else (x, u))
        rest = self.adj[v] & ~covered
        while rest:
            bit = rest & -rest
            y = bit.bit_length() - 1
            rest ^= bit
            candidates.add((v, y) if v < y else (y, v))
        for a, b in sorted(candidates):
            if (a, b) not in self.edge_pair_set:
                continue  # only the forbidden edge is ever filtered here
            self.stack.append((a, b))
            self._explore(covered | (1 << a) | (1 << b), size + 1)
            self.stack.pop()

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
