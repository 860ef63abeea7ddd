"""Simple undirected graphs with maximum degree 3.

Vertex identities are plain ints and stay stable across deletions, so a
reduction trace can always name vertices of the original input.  The degree
cap is enforced wherever an edge enters a graph (add_edge and the one-pass
builder from_edges); every graph reachable through this API is simple and
subcubic by construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    DegreeOverflow,
    DuplicateEdge,
    InternalInvariantViolation,
    MissingEdge,
    PreconditionViolated,
    SelfLoop,
    UnknownVertex,
)

MAX_DEGREE = 3

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalised (min, max) form used everywhere an edge is stored."""
    return (u, v) if u < v else (v, u)


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
        return cls._of(adj, m)

    @classmethod
    def _of(cls, adj: dict[int, set[int]], m: int) -> "Graph":
        """The graph with adjacency `adj` and m edges, its buckets filled."""
        g = cls()
        g._adj, g._m = adj, m
        for v, nbrs in adj.items():
            if len(nbrs) < MAX_DEGREE:
                g._buckets[len(nbrs)].add(v)
        return g

    def copy(self) -> "Graph":
        return Graph._of({v: set(nbrs) for v, nbrs in self._adj.items()}, self._m)

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertex set (copied)."""
        keep = self._known_set(vertices)
        adj, new, m = self._adj, {v: set() for v in keep}, 0  # filled as from_edges would
        for v in keep:
            for w in adj[v]:
                if v < w and w in keep:
                    new[v].add(w)
                    new[w].add(v)
                    m += 1
        return Graph._of(new, m)

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

    def _known_set(self, vs: Iterable[int]) -> set[int]:
        """set(vs), raising UnknownVertex if a vertex of vs is not in g."""
        vs = set(vs)
        missing = vs.difference(self._adj)  # O(|vs|); `- keys()` walks all of g
        if missing:
            raise UnknownVertex(f"vertices not in graph: {sorted(missing)}")
        return vs

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
        """Add the edge uv, and u or v if new; a refused edge changes nothing."""
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        nu = self._adj.get(u, ())
        if v in nu:
            raise DuplicateEdge(f"edge {edge(u, v)} already present")
        du, dv = len(nu), len(self._adj.get(v, ()))
        if du >= MAX_DEGREE or dv >= MAX_DEGREE:
            raise DegreeOverflow(f"edge {edge(u, v)} would exceed degree {MAX_DEGREE}")
        self.add_vertex(u)
        self.add_vertex(v)
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

    def remove_vertices_with_undo(self, vs: Iterable[int]) -> dict[int, frozenset[int]]:
        """Delete the vertices and their edges in place; return the undo data."""
        vset = self._known_set(vs)
        adj, saved, cut = self._adj, {}, 0
        for v in vset:
            nbrs = adj.pop(v)
            saved[v] = frozenset(nbrs)
            for w in nbrs:
                if w not in vset:
                    adj[w].discard(v)
                    self._bucket_move(w, len(adj[w]) + 1, len(adj[w]))
                    cut += 1
            if len(nbrs) < MAX_DEGREE:
                self._buckets[len(nbrs)].discard(v)
        self._m -= (sum(map(len, saved.values())) + cut) // 2  # an edge inside vset counts twice
        return saved

    def restore_vertices(self, saved: dict[int, frozenset[int]]) -> None:
        """Inverse of remove_vertices_with_undo (its vertices must not be in
        g).  Every degree cap is checked before anything is written, so a
        refused restore changes nothing."""
        if not saved:  # most steps carve nothing
            return
        adj, outside = self._adj, {}
        for v, nbrs in saved.items():
            if v in adj:
                raise PreconditionViolated(f"vertex {v} is in the graph already")
            if len(nbrs) > MAX_DEGREE:
                raise DegreeOverflow(f"vertex {v} would exceed degree {MAX_DEGREE}")
            for w in nbrs:
                if w not in saved:
                    outside.setdefault(w, []).append(v)
        for w, vs in outside.items():
            if len(self.neighbors(w)) + len(vs) > MAX_DEGREE:  # UnknownVertex if w is not in g
                raise DegreeOverflow(f"vertex {w} would exceed degree {MAX_DEGREE}")
        for v, nbrs in saved.items():
            adj[v] = set(nbrs)
            if len(nbrs) < MAX_DEGREE:
                self._buckets[len(nbrs)].add(v)
        for w, vs in outside.items():
            adj[w].update(vs)
            self._bucket_move(w, len(adj[w]) - len(vs), len(adj[w]))
        self._m += (sum(map(len, saved.values())) + sum(map(len, outside.values()))) // 2

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
        """The vertex set of v's component.  No code in the package calls it;
        it stays because perfbench/tracing.targets() names it, until ROADMAP
        item 2's benchmark revision."""
        if v not in self._adj:
            raise UnknownVertex(f"vertex {v} not in graph")
        return self._reachable(v)

    def find_bridges(self) -> set[Edge]:
        """All edges whose removal disconnects their component.

        Two-pass iterative lowlink DFS, O(n + m); no recursion so arbitrarily
        deep graphs are fine.  No code in the package calls it: the solver
        proves each bridge it splits at with smaller_side.  It stays as the
        tests' Tarjan reference, and because perfbench/tracing.targets()
        names it, until ROADMAP item 2's benchmark revision.
        """
        adj = self._adj
        preorder: dict[int, int] = {}
        bridges: set[Edge] = set()
        for root in adj:
            if root not in preorder:
                parent, cut = _lowlink_tree(adj, root, preorder)
                bridges.update(edge(parent[v], v) for v in cut)
        return bridges

    def cut_off(self, boundary: Iterable[int]) -> list[set[int]]:
        """Every component of g that holds a vertex of `boundary` but one,
        which is at least as large as each (a vertex not in g raises
        UnknownVertex).  The boundary vertices are taken in increasing
        order; each one outside the components found so far and outside
        `joined`, the vertices proved to lie in one component, is searched
        for from all of them (_search, which grows `joined` in place).  A
        refuted search used up one side, a whole component, which is cut
        off; if that was the joined side, the searched vertex alone is joined
        from then on.  The side used up is the searched vertex's component
        exactly when that is no larger than the joined one's, so what is cut
        off depends on g alone, not on how far `joined` has grown nor on the
        order adjacency sets iterate in.  A refuted search reads the
        adjacency of at most twice what it cuts off.
        """
        sides: list[set[int]] = []
        joined: set[int] = set()
        for s in sorted(self._known_set(boundary)):
            if s in joined or any(s in side for side in sides):
                continue
            found = _search(self._adj, (s,), joined) if joined else None
            if found is None:
                joined.add(s)  # there already, unless s is the first
            else:
                sides.append(found[1])
                if found[0] == 1:
                    joined = {s}
        return sides

    def smaller_side(
        self, a: Iterable[int], b: Iterable[int], cut: set[int]
    ) -> tuple[int, set[int]] | None:
        """_search in g - cut from the vertex sets a and b (a seed not in g
        raises UnknownVertex): None if the sides meet, else (0, the side of
        a) or (1, the side of b) for the side used up.  That side holds
        every vertex that g - cut joins to its seeds, and no more vertices
        than the other side, and the search reads the adjacency of at most
        twice as many vertices as it holds.
        """
        a, b = self._known_set(a), self._known_set(b)
        found = _search(self._adj, a, b, cut)
        return None if found is None else (found[0], found[1] - cut)

    def cubic_components(self) -> list[set[int]]:
        """Components in which every vertex has degree exactly 3.  No code in
        the package calls it: the solver reads cubic components off its
        tasks' degree buckets.  It stays because perfbench/tracing.targets()
        names it, until ROADMAP item 2's benchmark revision."""
        return [
            comp
            for comp in self.connected_components()
            if all(len(self._adj[v]) == MAX_DEGREE for v in comp)
        ]

    def has_cubic_component_touching(self, vertices: Iterable[int]) -> bool:
        """True iff some component containing one of `vertices` is cubic.

        One traversal per seed component; vertices not in g are skipped.
        No code in the package calls it: the solver reads cubic components
        off its tasks' degree buckets.  It stays because
        perfbench/tracing.targets() names it, until ROADMAP item 2's
        benchmark revision.
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

    def validate(self) -> None:
        """Debug check: symmetry, degree cap, counter and bucket consistency."""
        adj, buckets = self._adj, self._buckets
        m2 = low = 0
        for v, nbrs in adj.items():
            d = len(nbrs)
            if d > MAX_DEGREE:
                raise InternalInvariantViolation(f"degree of {v} exceeds {MAX_DEGREE}")
            if v in nbrs:
                raise InternalInvariantViolation(f"self-loop at {v}")
            for w in nbrs:
                if w not in adj or v not in adj[w]:
                    raise InternalInvariantViolation(f"asymmetric edge {v}-{w}")
            m2 += d
            low += d < MAX_DEGREE
            if d < MAX_DEGREE and v not in buckets[d]:
                raise InternalInvariantViolation(f"bucket {d} wrong for {v}")
        # each vertex of degree < 3 is in its bucket, so equal sizes leave no
        # room for a stale entry or a vertex in a second bucket
        if sum(map(len, buckets)) != low:
            raise InternalInvariantViolation("a bucket holds a vertex of no such degree")
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


def _search(adj: dict[int, set[int]], sources, targets: set[int], cut=()):
    """The one two-sided search, from the vertex set `sources` to the set
    `targets` in g - cut (none of them in cut): None if a path joins them,
    else (i, found) for the side i (0 for the sources, 1 for the targets)
    that was used up, found holding every vertex it reached and the cut.

    The search is breadth-first, forward from the sources and backward from
    the targets, one layer at a time on the side that has found fewer
    vertices (the sources' on a tie); the cut counts as found on both sides,
    so neither enters it.  The targets' side grows in `targets` itself, and
    the sources' side joins it when the sides meet: with one source and no
    cut, `targets` ends holding only vertices joined to what it held.  The
    search stops when the sides meet, or when the side to grow has nothing
    left: that side has found no more vertices than the other, which grew
    only while it had found no more than this one.  So a refuted search uses
    up the sources' side exactly when what g - cut joins to them is no
    larger than what it joins to the targets, whatever `targets` held at
    the start.  A layer of a subcubic graph adds at most three vertices for
    each one found before it, so the other side has found at most four times
    as many (or only its seeds), and the search has read the adjacency of at
    most twice as many vertices as the used-up side.
    """
    before = set()
    for v in sources:
        if v in targets:
            return None
        before.add(v)
    ahead = list(before)
    before.update(cut)
    behind, extra = None, len(cut)  # behind: the targets' frontier, once their side must grow
    while True:
        if len(before) <= len(targets) + extra:
            if not ahead:
                return 0, before
            layer = []
            for u in ahead:
                for w in adj[u]:
                    if w not in before:
                        if w in targets:
                            targets |= before
                            return None
                        before.add(w)
                        layer.append(w)
            ahead = layer
        else:
            if behind is None:
                behind, extra = list(targets), 0
                targets.update(cut)
            if not behind:
                return 1, targets
            layer = []
            for w in behind:
                for u in adj[w]:
                    if u not in targets:
                        if u in before:
                            targets |= before
                            return None
                        targets.add(u)
                        layer.append(u)
            behind = layer


def is_k33(g: Graph) -> bool:
    """K33 is the only triangle-free cubic graph on 6 vertices."""
    return g.n == 6 and g.is_cubic() and not any(g._adj[u] & g._adj[v] for u, v in g.edges())
