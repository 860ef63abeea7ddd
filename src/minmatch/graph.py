"""Simple undirected graphs with maximum degree 3.

Vertex identities are plain ints and stay stable across deletions, so a
reduction trace can always name vertices of the original input.  The degree
cap is enforced wherever an edge enters a graph (add_edge and the one-pass
builder from_edges); every graph reachable through this API is simple and
subcubic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    DegreeOverflow,
    DuplicateEdge,
    InternalInvariantViolation,
    MissingEdge,
    SelfLoop,
    UnknownVertex,
)

MAX_DEGREE = 3

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalised (min, max) form used everywhere an edge is stored."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class DegreeCensus:
    n: int
    m: int
    n1: int
    n2: int
    n3: int

    @property
    def n0(self) -> int:
        return self.n - self.n1 - self.n2 - self.n3


class Graph:
    """Mutable subcubic graph: adjacency sets plus degree-indexed buckets.

    The buckets (vertices of degree 0, 1 and 2; degree 3 is implicit) keep
    rule dispatch to one pass over the degree-2 bucket at most.
    """

    __slots__ = ("_adj", "_m", "_buckets")

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._m = 0
        self._buckets: tuple[set[int], set[int], set[int]] = (set(), set(), set())

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], vertices: Iterable[int] = ()) -> "Graph":
        """The graph on `vertices` and the edges' endpoints, built in one pass.

        Vertices enter in the order given, then each edge's endpoints as
        add_edge inserts them, so adjacency iterates as if the graph were
        built edge by edge; a self-loop, duplicate or degree overflow raises
        add_edge's error at the same edge.  The buckets are filled at the end.
        """
        adj: dict[int, set[int]] = {v: set() for v in vertices}
        m = 0
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"self-loop at {u}")
            nu = adj.get(u)
            if nu is None:
                nu = adj[u] = set()
            nv = adj.get(v)
            if nv is None:
                nv = adj[v] = set()
            if v in nu:
                raise DuplicateEdge(f"edge {edge(u, v)} already present")
            if len(nu) >= MAX_DEGREE or len(nv) >= MAX_DEGREE:
                raise DegreeOverflow(f"edge {edge(u, v)} would exceed degree {MAX_DEGREE}")
            nu.add(v)
            nv.add(u)
            m += 1
        g = cls()
        g._adj = adj
        g._m = m
        buckets = g._buckets
        for v, nbrs in adj.items():
            d = len(nbrs)
            if d < MAX_DEGREE:
                buckets[d].add(v)
        return g

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._m = self._m
        g._buckets = tuple(set(b) for b in self._buckets)  # type: ignore[assignment]
        return g

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertex set (copied)."""
        keep = set(vertices)
        missing = keep.difference(self._adj)  # O(|keep|); `- keys()` walks all of g
        if missing:
            raise UnknownVertex(f"vertices not in graph: {sorted(missing)}")
        adj = self._adj
        return Graph.from_edges(
            ((v, w) for v in keep for w in adj[v] if v < w and w in keep), keep
        )

    # -- basic accessors ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def iter_vertices(self) -> Iterator[int]:
        """Unordered iteration; use vertices() when order matters."""
        return iter(self._adj)

    def edges(self) -> list[Edge]:
        out = []
        for v, nbrs in self._adj.items():
            for w in nbrs:
                if v < w:
                    out.append((v, w))
        out.sort()
        return out

    def neighbors(self, v: int) -> set[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def degree_bucket(self, d: int) -> set[int]:
        """Vertices of degree d, for d in {0, 1, 2} (live view, do not mutate)."""
        return self._buckets[d]

    def is_cubic(self) -> bool:
        return bool(self._adj) and not (
            self._buckets[0] or self._buckets[1] or self._buckets[2]
        )

    # -- mutation -------------------------------------------------------------

    def _bucket_move(self, v: int, old: int, new: int) -> None:
        if old < MAX_DEGREE:
            self._buckets[old].discard(v)
        if new < MAX_DEGREE:
            self._buckets[new].add(v)

    def add_vertex(self, v: int) -> None:
        if v not in self._adj:
            self._adj[v] = set()
            self._buckets[0].add(v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            raise DuplicateEdge(f"edge {edge(u, v)} already present")
        du, dv = len(self._adj[u]), len(self._adj[v])
        if du >= MAX_DEGREE or dv >= MAX_DEGREE:
            raise DegreeOverflow(f"edge {edge(u, v)} would exceed degree {MAX_DEGREE}")
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._bucket_move(u, du, du + 1)
        self._bucket_move(v, dv, dv + 1)
        self._m += 1

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise MissingEdge(f"edge {edge(u, v)} not present")
        du, dv = len(self._adj[u]), len(self._adj[v])
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._bucket_move(u, du, du - 1)
        self._bucket_move(v, dv, dv - 1)
        self._m -= 1

    def remove_vertices(self, vs: Iterable[int]) -> None:
        """Delete the vertices and all incident edges (in place)."""
        self.remove_vertices_with_undo(vs)

    def remove_vertices_with_undo(self, vs: Iterable[int]) -> dict[int, frozenset[int]]:
        """As remove_vertices, returning the data restore_vertices needs."""
        vset = set(vs)
        missing = vset.difference(self._adj)  # O(|vset|), as above
        if missing:
            raise UnknownVertex(f"vertices not in graph: {sorted(missing)}")
        saved = {}
        for v in vset:
            nbrs = self._adj.pop(v)
            saved[v] = frozenset(nbrs)
            for w in nbrs:
                if w not in vset:
                    dw = len(self._adj[w])
                    self._adj[w].discard(v)
                    self._bucket_move(w, dw, dw - 1)
                    self._m -= 1
                elif v < w:
                    self._m -= 1
            if len(nbrs) < MAX_DEGREE:
                self._buckets[len(nbrs)].discard(v)
        return saved

    def restore_vertices(self, saved: dict[int, frozenset[int]]) -> None:
        """Inverse of remove_vertices_with_undo (edges added back verbatim).

        Writes the adjacency directly and moves each touched vertex between
        buckets once, with the degree cap checked at the end."""
        adj, before = self._adj, {}
        for v in saved:
            self.add_vertex(v)
        for v, nbrs in saved.items():
            av = adj[v]
            for w in nbrs:
                if w not in av:
                    aw = self.neighbors(w)
                    before.setdefault(v, len(av))
                    before.setdefault(w, len(aw))
                    av.add(w)
                    aw.add(v)
                    self._m += 1
        for v, d in before.items():
            new = len(adj[v])
            if new > MAX_DEGREE:
                raise DegreeOverflow(f"vertex {v} would exceed degree {MAX_DEGREE}")
            self._bucket_move(v, d, new)

    # -- analysis -------------------------------------------------------------

    def _reachable(self, start: int) -> set[int]:
        # frontier BFS with bulk set ops; much faster than per-edge loops
        adj = self._adj
        seen = {start}
        frontier = adj[start] - seen
        while frontier:
            seen |= frontier
            step = set().union(*(adj[v] for v in frontier))
            frontier = step - seen
        return seen

    def connected_components(self) -> list[set[int]]:
        """Maximal connected vertex sets, ordered by smallest contained id."""
        seen: set[int] = set()
        comps = []
        for start in self._adj:
            if start in seen:
                continue
            comp = self._reachable(start)
            seen |= comp
            comps.append(comp)
        comps.sort(key=min)
        return comps

    def is_connected(self) -> bool:
        if not self._adj:
            return False
        return len(self._reachable(next(iter(self._adj)))) == len(self._adj)

    def component_of(self, v: int) -> set[int]:
        if v not in self._adj:
            raise UnknownVertex(f"vertex {v} not in graph")
        return self._reachable(v)

    def find_bridges(self) -> set[Edge]:
        """All edges whose removal disconnects their component.

        Two-pass iterative lowlink DFS, O(n + m); no recursion so arbitrarily
        deep graphs are fine.
        """
        adj = self._adj
        preorder: dict[int, int] = {}
        bridges: set[Edge] = set()
        for root in adj:
            if root not in preorder:
                parent, cut = _lowlink_tree(adj, root, preorder)
                bridges.update(edge(parent[v], v) for v in cut)
        return bridges

    def joined(self, seeds: Iterable[int], paths: int = 1) -> bool:
        """True iff any two seeds are joined by `paths` (1 or 2) edge-disjoint
        paths: with one, iff the seeds lie in one component of g; with two,
        iff they lie in one 2-edge-connected component (Menger).

        Both relations are equivalences, so each seed in turn needs `paths`
        edge-disjoint paths to the seeds already proved, found one at a time
        as augmenting paths of a unit flow (_augmenting_path).  A negative
        answer stops as soon as either side of a search is used up, so it
        costs about the smaller side of the cut that separates the seeds,
        not the whole graph.
        """
        seeds = list(set(seeds))
        proved = set(seeds[:1])
        adj = self._adj
        for s in seeds[1:]:
            if s in proved:  # joined already: proved lies in one class
                continue
            # the flow is the first path's arcs: with at most two paths, no
            # search after the second needs what the second one cancelled
            flow: set[Edge] = set()
            passed = []
            for _ in range(paths):
                path = _augmenting_path(adj, s, proved, flow)
                if path is None:
                    return False
                passed += path
                flow.update(zip(path, path[1:]))
            # a simple path between two vertices of one class stays inside it
            # (it would cross a separating bridge twice), so s and every
            # vertex its paths pass join the target
            proved.update(passed)
        return True

    def smaller_side(
        self, a: Iterable[int], b: Iterable[int], cut: set[int]
    ) -> tuple[int, set[int]] | None:
        """Two searches in g - cut, from the vertex sets a and b: None if
        they meet (a path outside cut joins a vertex of a to one of b), else
        (0, what the search from a found) or (1, the same from b) for the
        search used up first, whose side is then no larger than the other.

        The searches take turns one vertex at a time, the one that has found
        fewer vertices going next, so an answer that is not None costs about
        twice the smaller side, however large the other.
        """
        adj = self._adj
        found = (set(a), set(b))
        if not found[0].isdisjoint(found[1]):
            return None
        todo = (list(found[0]), list(found[1]))
        while True:
            i = int(len(found[0]) > len(found[1]))
            if not todo[i]:
                return i, found[i]
            mine, other = found[i], found[1 - i]
            for w in adj[todo[i].pop()]:
                if w not in mine and w not in cut:
                    if w in other:
                        return None
                    mine.add(w)
                    todo[i].append(w)

    def cubic_components(self) -> list[set[int]]:
        """Components in which every vertex has degree exactly 3."""
        return [
            comp
            for comp in self.connected_components()
            if all(len(self._adj[v]) == MAX_DEGREE for v in comp)
        ]

    def has_cubic_component_touching(self, vertices: Iterable[int]) -> bool:
        """True iff some component containing one of `vertices` is cubic.

        One traversal per seed component; vertices not in g are skipped.
        No code in the package calls it: the solver reads cubic components
        off its tasks' degree buckets.  It stays only because the benchmark's
        trace groups name it, and goes with their next revision (ROADMAP
        item 5).
        """
        seen: set[int] = set()
        for s in vertices:
            if s in seen or s not in self._adj:
                continue
            comp = self._reachable(s)
            if all(len(self._adj[v]) == MAX_DEGREE for v in comp):
                return True
            seen |= comp  # a seed in a component searched already needs no search
        return False

    def degree_census(self) -> DegreeCensus:
        return DegreeCensus(
            n=self.n,
            m=self._m,
            n1=len(self._buckets[1]),
            n2=len(self._buckets[2]),
            n3=self.n - sum(len(b) for b in self._buckets),
        )

    def validate(self) -> None:
        """Debug check: symmetry, degree cap, counter and bucket consistency."""
        m2 = 0
        for v, nbrs in self._adj.items():
            if len(nbrs) > MAX_DEGREE:
                raise InternalInvariantViolation(f"degree of {v} exceeds {MAX_DEGREE}")
            if v in nbrs:
                raise InternalInvariantViolation(f"self-loop at {v}")
            for w in nbrs:
                if w not in self._adj or v not in self._adj[w]:
                    raise InternalInvariantViolation(f"asymmetric edge {v}-{w}")
            m2 += len(nbrs)
            d = len(nbrs)
            for b in range(MAX_DEGREE):
                if (v in self._buckets[b]) != (d == b):
                    raise InternalInvariantViolation(f"bucket {b} wrong for {v}")
        if m2 != 2 * self._m:
            raise InternalInvariantViolation(f"edge counter {self._m} != {m2 // 2}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _lowlink_tree(adj: dict[int, set[int]], root: int, preorder: dict[int, int]):
    """One lowlink DFS (Tarjan) over root's component, numbering its
    vertices on from len(preorder) into `preorder`: returns their tree
    parents (the root's is None) and the vertices whose tree edge to their
    parent is a bridge.

    Two passes, no recursion: a stack traversal in which the last vertex to
    push w becomes its parent gives a DFS tree; then, in reverse preorder,
    each vertex's low (the smallest preorder its subtree reaches by one
    non-tree edge) is its children's folded with its own neighbours', the
    parent skipped once, which is sound in a simple graph.
    """
    parent: dict[int, int | None] = {root: None}
    counter = len(preorder)
    stack = [root]
    order = []
    while stack:
        v = stack.pop()
        if v in preorder:
            continue
        preorder[v] = counter
        counter += 1
        order.append(v)
        for w in adj[v]:
            if w not in preorder:
                parent[w] = v  # the final writer becomes the tree parent
                stack.append(w)
    low: dict[int, int] = {}
    cut = []
    for v in reversed(order):
        p = parent[v]
        best = low.get(v, preorder[v])
        for w in adj[v]:
            if w != p and preorder[w] < best:
                best = preorder[w]
        if p is None:
            continue
        if best > preorder[p]:
            cut.append(v)
        elif best < low.get(p, best + 1):
            low[p] = best
    return parent, cut


def _augmenting_path(adj: dict[int, set[int]], s: int, target: set[int], flow: set[Edge]):
    """A shortest path from s to the set `target` (s outside it) in the
    residual graph of the unit flow `flow`, or None if there is none.

    Every edge is a pair of arcs of capacity one; the arc u -> w is free
    unless (u, w) carries flow, and taking it when (w, u) carries flow
    cancels that flow.  The search is bidirectional, breadth-first from s
    forward and from the whole target backward, one layer at a time on the
    side whose frontier is smaller; it ends when the sides meet, or with
    None as soon as either frontier is empty.
    """
    before = {s: None}  # forward: vertex -> its predecessor on the path from s
    after = dict.fromkeys(target)  # backward: vertex -> its successor towards the target
    ahead, behind = [s], list(target)
    meet = None
    while meet is None:
        if not ahead or not behind:
            return None
        layer = []
        if len(ahead) <= len(behind):
            for u in ahead:
                for w in adj[u]:
                    if w not in before and (u, w) not in flow:
                        before[w] = u
                        if w in after:
                            meet = w
                            break
                        layer.append(w)
                if meet is not None:
                    break
            ahead = layer
        else:
            for w in behind:
                for u in adj[w]:
                    if u not in after and (u, w) not in flow:
                        after[u] = w
                        if u in before:
                            meet = u
                            break
                        layer.append(u)
                if meet is not None:
                    break
            behind = layer
    path = [meet]
    v = before[meet]
    while v is not None:
        path.append(v)
        v = before[v]
    path.reverse()
    v = after[meet]
    while v is not None:
        path.append(v)
        v = after[v]
    return path


def is_k33(g: Graph) -> bool:
    """K33 is the only triangle-free cubic graph on 6 vertices."""
    return g.n == 6 and g.is_cubic() and not any(g._adj[u] & g._adj[v] for u, v in g.edges())
