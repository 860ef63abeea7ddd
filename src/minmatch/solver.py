"""Constructive solver: maximal matchings within the certified size bound.

Each call on a connected subcubic graph returns a SolveCertificate whose
matching satisfies 6|M| <= lambda_times_6 (the 6-vertex exceptional graph
gets |M| = 3 instead).  The solver repeatedly picks the first applicable
rule and reduces, then extends the reduced graph's matching back through
each step's recipe, validating maximality, growth budget, and the bound
after every extension.  Rule priority: small-graph base case, then pendants,
bridges, adjacent degree-2 pairs, degree-2 vertices with degree-3
neighbours, and finally the cubic case.  At a bridge only one candidate split
is solved, chosen by bound arithmetic before any solving, so the matching
may be larger than the best candidate's, though always within the bound.
A split costs about its smaller side, not the graph: a search from both ends
of the bridge stops once one side is used up, every candidate's bound is
counted from that side alone (_census), and only the winner is carved out of
the working graph, like the components a reduction leaves: the part holding
the larger side stays in the graph, only the others are copied, so each
vertex has one live copy however deep bridges nest.

Connectivity and bridges are not rescanned after every step.  A task carries
the set K of its non-pendant bridges when it is known; K = {} says the graph
is clean, every bridge in it a pendant edge.  Lemma: let G be connected, and
let a linear step delete D != {} and add the edges A, giving G'.  The step's
boundary is B = (N(D) - D) | V(A); B* is B with each vertex of degree 1 in
G' replaced by its neighbour (one of degree 0 gives no certificate).  If B*
lies in one 2-edge-connected component of G', then G' is connected, and its
non-pendant bridges are the edges e = xy of K with x, y outside D, neither
of degree 1 in G', and a side in G - e that holds no vertex of B.
  - A component of G' with no boundary vertex would already have been a
    component of G, which is connected and holds D.
  - A non-pendant bridge e of G' has B* on one side of G' - e, so B too (a
    vertex of degree 1 stays with its neighbour, as e is not its edge).  On
    the other side Y no vertex meets D or A, so each keeps its edges from G,
    and e was already Y's only way out: a bridge of G, not a pendant one,
    since the side of G - e opposite Y holds D as well as x.
  - Conversely, if a side Y of G - e holds no vertex of B, it holds none of
    D either (a path in Y from D to y would meet B first); its vertices keep
    their edges in G', and e stays Y's only way out.
So no bridge is new, and none of K is lost but by the condition.  If D is
connected and A joins vertices of N(D), every e of K with both ends outside
D has D, and so all of B, on one side, and K' is K less the edges at D and
those left pendant, found at D and B.  A step whose D is not connected, or
whose added edges leave N(D), can lose a bridge of K that D straddles, found
only by a search; the engine then carries nothing, and the next bridge
search runs again (no rule makes such a step).  With K = {} no condition is
needed.  The solver tests B* on G' itself: two edge-disjoint paths join each
vertex of it to the ears earlier tests proved and the step left whole
(Graph.joined(B*, 2)); a refuted search costs about the smaller side of the
bridge that refutes it.  A bridge split hands each gamma part the edges of K
inside it (no cycle uses the bridge, so cutting it changes no other edge),
less one left pendant; forest parts, which lose both ends of the bridge, may
gain bridges and start unknown.  The sets are exact, so the bridge search
runs again only on forest parts and after a refuted test, and the bridge a
split takes, and with it every trace, is the one the full scans give.
Clean or not, G is connected, so by the first point one path joining each
vertex of B to the others proves G' connected; only when that fails are the
components listed in full.
Likewise each extension is checked for maximality only where it can differ
from the sub-matching (_checked); the `valid` verdict (_solve) scans it
whole once.  The matching is one set per solve, built in place (_run).
Each step reduces g once: where a rule must insert edges that leave no cubic
component, it offers its candidates in order, and the engine's test for a
cubic task, read off the parts it builds anyway, keeps the first that passes
(_run); no rule reduces g on trial.

One engine does both solve and replay; only the source of each step
differs, so a replayed trace passes every check a solve does.

Validation failures raise InternalInvariantViolation: the construction
guarantees they cannot happen, so one firing is always an implementation
bug (or, in replay, a trace that was not produced for this graph), never an
input problem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator

from . import reductions as R
from .errors import (
    Disconnected,
    EmptyGraph,
    GraphError,
    InternalInvariantViolation,
    InvalidConstraint,
)
from .graph import Edge, Graph, edge, is_k33
from .matching import (
    BoundReport,
    Matching,
    bound_report,
    lambda6,
    lambda6_of,
    matching_within_bound,
    maximality_status,
)
from .oracle import gamma_exact, gamma_exact_avoiding
from .reductions import ExtensionBranch, ExtensionRecipe, ReductionStep

__all__ = [
    "PendantConstraint",
    "SolveCertificate",
    "solve",
    "solve_avoiding",
    "solve_all",
    "select_rule",
    "replay",
]

BASE_SIZE = 9


@dataclass(frozen=True)
class PendantConstraint:
    vertex: int
    forbidden_edge: Edge


@dataclass
class SolveCertificate:
    matching: Matching
    trace: list[ReductionStep]
    bound: BoundReport
    valid: bool
    k33_special: bool
    elapsed_ms: float


def _check_constraint(g: Graph, c: PendantConstraint) -> None:
    if c.vertex not in g:
        raise InvalidConstraint(f"vertex {c.vertex} not in graph")
    if g.degree(c.vertex) != 1:
        raise InvalidConstraint(f"vertex {c.vertex} has degree {g.degree(c.vertex)}, not 1")
    (nbr,) = g.neighbors(c.vertex)
    if edge(*c.forbidden_edge) != edge(c.vertex, nbr):
        raise InvalidConstraint("forbidden edge is not the pendant edge")
    if g.n == 2:
        raise InvalidConstraint("a single-edge graph has no avoiding maximal matching")


def select_rule(
    g: Graph, constraint: PendantConstraint | None = None, bridges: set[Edge] | None = None
) -> ReductionStep:
    """First applicable reduction in priority order (callers handle n <= 9).

    `bridges`, when the caller knows them, are g's non-pendant bridges; they
    are read only when g has no pendant, where they are all of its bridges,
    and None makes select_rule search g for them.  Past that, dispatch reads
    only the degree buckets; its largest cost is adjacent_deg2_step's one
    pass over the degree-2 bucket.
    A rule that inserts edges returns the step for its first candidate
    insertion, which may leave a cubic component; the steps for the others
    are in its `later`, for the engine to try in turn.
    """
    if constraint is not None:
        _check_constraint(g, constraint)
        return R.degree1_step(g, constraint.vertex, anchored=True)
    pendants = g.degree_bucket(1)
    if pendants:
        return R.degree1_step(g, min(pendants))
    if bridges is None:
        bridges = g.find_bridges()
    if bridges:
        bridge = min(bridges)
        return ReductionStep(R.RULE_BRIDGE, None, frozenset(), frozenset(), None, None, bridge)
    if g.degree_bucket(2):
        return R.adjacent_deg2_step(g) or R.deg2_step(g)
    return R.cubic_step(g)


# -- the engine ------------------------------------------------------------------
#
# A task is a connected graph to solve.  A step pushes a frame holding its
# undo data, then one task per subproblem, popped in preorder (the trace
# order): the components left by a linear step's in-place reduction, or the
# parts of a bridge split's candidate.  Either way _carve keeps one
# subproblem in the working graph itself (the largest component, or the part
# holding the bridge's larger side) and copies only the others.
# Unwinding a frame puts back what the carving and the reduction removed, and
# extends the matching through the step's recipe.  The stack is the engine's
# own, so the Python stack grows neither with n nor with the nesting depth of
# bridges.
#
# One matching M, a mutable set, serves the whole solve.  A frame holds
# len(M) from when its task began, so g's matching is the len(M) - start
# edges added since.  Edges of finished parts touch no vertex of the current
# g: parts share no vertex, save the bridge endpoint that a gamma candidate's
# two parts share, and the constrained part, solved first, never covers it,
# as its only edge there is the forbidden one, which is checked.  _reduce
# checks that every edge a recipe reads lies in G'.  So the recipe, the region
# check and the forbidden-edge test in _checked read M as if it held only g's
# matching, and an added edge that a finished part holds lies outside g.
#
# A task also carries its non-pendant bridges, or None when they are unknown
# (see the module docstring).  In solve, a task without a pendant whose set is
# unknown is searched for them (Graph.find_bridges) before select_rule, which
# takes the least; a step hands the set on to the task it leaves when the
# lemma allows, and a split shares it among its gamma parts, each set owned by
# one task at a time, so it is updated in place.  Replay carries none; a split
# there is told apart by the candidate its recorded step names (step.case), so
# None means only "unknown".  After every linear step, connectivity is tested
# by paths from the step's boundary, and only a disconnected graph is scanned
# whole for its components.  No task left by a step that adds edges may be
# cubic, an O(1) test on its buckets, and exact: each component of G' holds a
# boundary vertex, so one that no added edge touches lost a degree there.
#
# The same test picks the edges a rule inserts.  A rule that must add edges
# avoiding a cubic component offers candidates that all delete the same set
# (the step's `later`): the engine reduces with the first, builds the tasks, and
# if one is cubic puts g back as a frame's unwinding does (_undo) and tries
# the next, leaving the bridge set as it was.  By the argument above, "some
# task is cubic" holds iff some component of G' that touches the added edges
# is cubic, however the tasks were built (one certified graph, or carved
# components).  So the kept step is the first candidate, in the rule's order,
# after which no component touching its added edges is cubic: a function of
# g alone, and with it every trace.  In replay the recorded step is the only
# candidate.  The kept step is recorded without `later`, so a trace holds data
# only.

def _run(
    g: Graph,
    constraint: PendantConstraint | None,
    steps: list[ReductionStep],
    recorded: Iterator[ReductionStep] | None,
) -> set[Edge]:
    """Maximal matching of connected g, built in one set, appending its
    steps to `steps`.  Steps come from the rules (solve) or, when `recorded`
    is given, from a recorded trace (replay)."""
    M: set[Edge] = set()
    stack: list[tuple] = [("task", g, constraint, None)]
    while stack:
        item = stack.pop()
        if item[0] == "frame":
            _, start, g, step, carved, saved, added, constraint = item
            _undo(g, carved, saved, added)
            before = len(M)
            step.extension.apply(M)
            _checked(g, step, M, len(M) - start, len(M) - before, constraint)
            continue
        _, g, constraint, bridges = item
        if recorded is None and bridges is None and g.n > BASE_SIZE and not g.degree_bucket(1):
            bridges = g.find_bridges()  # with no pendant, every bridge is a non-pendant one
        step = _next_step(g, constraint, recorded, bridges)
        if step.rule in (R.RULE_BASE_SMALL, R.RULE_K33):
            M |= _leaf(g, step, constraint, steps)
            steps.append(step)
            continue
        if step.rule == R.RULE_BRIDGE:
            step, carved, tasks = _split(g, step, bridges)
            saved, added = {}, []
        else:
            # the rule's later candidates; in replay the recorded step is the only one
            later = iter(())
            if recorded is None and step.later is not None:
                later, step = step.later, replace(step, later=None)
            while True:
                saved, added = _reduce(g, step)
                carved, tasks, dropped = _reduced(g, saved, added, bridges)
                if not (added and any(t[1].is_cubic() for t in tasks)):
                    break
                _undo(g, carved, saved, added)
                rejected, step = step, next(later, None)
                if step is None:
                    raise InternalInvariantViolation(
                        f"{rejected.rule}/{rejected.case} produced a cubic component"
                    )
            if dropped:
                bridges -= dropped  # the set of the one task left, as _reduced says
        steps.append(step)
        stack.append(("frame", len(M), g, step, carved, saved, added, constraint))
        stack.extend(reversed(tasks))
    return M


def _undo(g: Graph, carved: dict, saved: dict, added: list[Edge]) -> None:
    """Put g back as it was before a step: the carving, then the reduction."""
    g.restore_vertices(carved)
    for e in reversed(added):
        g.remove_edge(*e)
    g.restore_vertices(saved)


def _carve(g: Graph, removed, parts) -> tuple[dict, list[tuple]]:
    """Tasks for connected parts of g, given in preorder as (vertex set,
    constraint, bridges), and the undo data of the carving.  The part given
    as None is what is left of g once the vertices `removed` are taken out,
    and stays in g itself; every other is copied first.  Only the listed
    vertices are read, never all of g."""
    tasks = [("task", g if vs is None else g.subgraph(vs), c, b) for vs, c, b in parts]
    return g.remove_vertices_with_undo(removed), tasks


def _reduced(g: Graph, saved: dict, added: list[Edge], bridges) -> tuple[dict, list, set | None]:
    """The tasks g leaves, just reduced in place from a connected graph with
    the non-pendant bridges `bridges` (None: unknown) by deleting the
    vertices in `saved` (their undo data) and adding `added`; the undo data
    of carving them; and, when there is one task and it takes over
    `bridges`, the edges to drop from that set, else None."""
    if not bridges and _contraction(saved, added):
        # G' is G with the path v1-u1-u2-v2 turned back into the edge v1v2:
        # a path joins two vertices of G' iff one joined them in G, with v1v2
        # for the subpath through u1 and u2, and the path's three edges are
        # bridges of G iff v1v2 is one of G'.  So G' is connected, and clean
        # if G was; an unknown set stays unknown.
        return {}, [("task", g, None, bridges)], set()
    if bridges is not None and g.n > BASE_SIZE:
        dropped = _dropped(g, saved, added, bridges)
        if dropped is not None:
            return {}, [("task", g, None, bridges)], dropped
    # every component of g holds a boundary vertex, so g is connected iff one
    # path joins each boundary vertex to the others (Graph.joined)
    boundary = _boundary(saved, added)
    if boundary and g.joined(boundary, 1):
        return {}, [("task", g, None, None)], None
    comps = g.connected_components()
    keep = max(comps, key=len, default=None)  # a step may delete all of g
    removed = [v for c in comps if c is not keep for v in c]
    carved, tasks = _carve(g, removed, [(None if c is keep else c, None, None) for c in comps])
    return carved, tasks, None


def _contraction(saved: dict, added: list[Edge]) -> bool:
    """True iff a step deleted two adjacent vertices of degree 2 (their undo
    data is `saved`) and added the one edge that joins their other
    neighbours: an ADJ_DEG2 contraction, read off the step itself."""
    if len(saved) != 2 or len(added) != 1:
        return False
    (u1, n1), (u2, n2) = saved.items()
    return len(n1) == len(n2) == 2 and u2 in n1 and set(added[0]) == (n1 | n2) - {u1, u2}


def _boundary(saved: dict, added: list[Edge]) -> set[int]:
    """The boundary of a step that deleted the vertices in `saved` (their
    undo data) and added the edges `added`: (N(D) - D) | V(A)."""
    boundary = set().union(*saved.values()).difference(saved)
    boundary.update(v for e in added for v in e)
    return boundary


def _stays_clean(g: Graph, saved: dict, added: list[Edge]) -> bool:
    """The boundary certificate: True iff g, just reduced in place from a
    clean graph by deleting the vertices in `saved` (their undo data) and
    adding `added`, is connected and clean (for g of three or more vertices,
    where an isolated boundary vertex or a pendant edge's degree-1 neighbour
    makes g disconnected)."""
    return _joined_boundary(g, _boundary(saved, added))


def _joined_boundary(g: Graph, boundary: set[int]) -> bool:
    """True iff B*, the boundary with each vertex of degree 1 replaced by its
    neighbour, lies in one 2-edge-connected component of g (False if a
    boundary vertex is isolated)."""
    seeds = set()
    for b in boundary:
        nbrs = g.neighbors(b)
        if len(nbrs) == 1:
            seeds |= nbrs  # a pendant edge may be a bridge: certify its other end
        elif nbrs:
            seeds.add(b)
        else:
            return False
    return g.joined(seeds, 2)


def _dropped(g: Graph, saved: dict, added: list[Edge], bridges: set[Edge]) -> set[Edge] | None:
    """The edges of `bridges`, the non-pendant bridges of g before a linear
    step (as in _reduced), that are not among them after it, by the lemma in
    the module docstring; None if the lemma does not give g's bridges: the
    boundary test fails, or `bridges` is not empty and the step's deleted set
    is not connected or its added edges leave N(D)."""
    if not bridges:
        return set() if _stays_clean(g, saved, added) else None
    outside = set().union(*saved.values()).difference(saved)
    if any(v not in outside for e in added for v in e):
        return None
    inner = [(d, w) for d in saved for w in saved[d] if d < w and w in saved]
    if not Graph.from_edges(inner, saved).is_connected() or not _joined_boundary(g, outside):
        return None
    dropped = {edge(d, w) for d, nbrs in saved.items() for w in nbrs}
    dropped.update(edge(b, *g.neighbors(b)) for b in outside if g.degree(b) == 1)
    return dropped & bridges


def _next_step(g: Graph, constraint, recorded, bridges) -> ReductionStep:
    """The step source: the recorded trace in replay; in solve, the oracle
    on small graphs and the first applicable rule otherwise."""
    if recorded is not None:
        step = next(recorded, None)
        if step is None:
            raise InternalInvariantViolation("trace ended before the graph was consumed")
        return step
    if g.n > BASE_SIZE:
        return select_rule(g, constraint, bridges)
    if constraint is not None:
        rule, res = R.RULE_BASE_SMALL, gamma_exact_avoiding(g, constraint.forbidden_edge)
    else:
        rule, res = R.RULE_K33 if is_k33(g) else R.RULE_BASE_SMALL, gamma_exact(g)
    # the witness's edges are in (min, max) form already
    recipe = ExtensionRecipe((ExtensionBranch((), (), tuple(sorted(res.witness))),))
    return ReductionStep(rule, None, frozenset(g.iter_vertices()), frozenset(), recipe, None)


def _reduce(g: Graph, step: ReductionStep) -> tuple[dict, list[Edge]]:
    """A linear step's reduction, in place; returns the undo data.  Every
    edge the step adds, or its recipe reads, must lie in the reduced graph."""
    where = f"{step.rule}/{step.case}"
    if step.extension is None:
        raise InternalInvariantViolation(f"{where} carries no extension recipe")
    added = sorted(step.added_edges)
    read = [e for br in step.extension.branches for e in br.requires + br.remove]
    if any(v not in g or v in step.deleted for e in added + read for v in e):
        raise InternalInvariantViolation(f"an edge added or read by {where} leaves the graph")
    try:
        saved = g.remove_vertices_with_undo(step.deleted)
        for e in added:
            g.add_edge(*e)
    except GraphError as exc:
        raise InternalInvariantViolation(f"{where} does not fit the graph: {exc}") from None
    return saved, added


def _leaf(g: Graph, step: ReductionStep, constraint, trace: list[ReductionStep]) -> set[Edge]:
    """A base step: its recipe, applied to a fresh set, is g's matching;
    `trace` holds the steps before it."""
    if step.extension is None or step.deleted != frozenset(g.iter_vertices()):
        raise InternalInvariantViolation("base step does not cover the graph")
    special = constraint is None and is_k33(g)
    if (step.rule == R.RULE_K33) != special:
        raise InternalInvariantViolation(f"{step.rule} step on the wrong kind of graph")
    if special and trace:  # only the input, the first task, may be K33
        raise InternalInvariantViolation("a reduction produced the exceptional 6-vertex component")
    L = step.extension.apply(set())
    return _checked(g, step, L, len(L), len(L), constraint, special)


def _checked(g: Graph, step, M, size: int, grown: int, constraint, special=False) -> set[Edge]:
    """M after every check a node passes: g's `size` edges in it are a
    maximal matching of g, within the step's growth budget (the recipe added
    `grown` edges to M), within the bound (the exceptional graph: exactly 3
    edges), and free of the forbidden edge.

    M is the step's recipe applied to the maximal matchings of the step's
    subproblems (to a fresh set at a base step, whose recipe covers g), plus
    the edges of finished parts, which touch no vertex of g (see _run).  So
    an edge of M at a vertex of g but outside g is one the step names: an
    added edge, a recipe edge or a split's bridge; and a vertex covered
    twice, or an edge left undominated, has an endpoint that was deleted,
    that a named edge touches, or that a removed recipe edge uncovered.  Only
    those vertices are examined; at a base step they are all of g, scanned
    whole.
    """
    where = f"{step.rule}/{step.case}"
    named = list(step.added_edges)
    for br in step.extension.branches:
        named += br.requires + br.remove + br.add
    if step.bridge is not None:
        named.append(step.bridge)
    if any(e in M and (e[0] >= e[1] or not g.has_edge(*e)) for e in named):
        status = 1
    elif step.rule in (R.RULE_BASE_SMALL, R.RULE_K33):
        status = maximality_status(g, M)
    else:
        status = maximality_status(g, M, step.deleted.union(*named))
    if status != 0:
        raise InternalInvariantViolation(f"extension of {where} is not a maximal matching")
    if step.budget is not None and grown > step.budget:
        raise InternalInvariantViolation(f"{where} grew by {grown} > {step.budget}")
    if special:
        if size != 3:
            raise InternalInvariantViolation("exceptional case must give 3 edges")
    else:
        lam6 = lambda6(g)
        if 6 * size > lam6:
            raise InternalInvariantViolation(f"{where}: 6*{size} exceeds bound {lam6}")
    if constraint is not None and edge(*constraint.forbidden_edge) in M:
        raise InternalInvariantViolation("avoidance constraint violated by extension")
    return M


CANDIDATES = ("gamma0", "gamma1", "forest")  # the order that breaks ties


def _split(g: Graph, step: ReductionStep, bridges) -> tuple[ReductionStep, dict, list[tuple]]:
    """The bridge step to record, and g carved into its candidate's parts:
    the candidate a recorded step names in its case (replay), else, for
    select_rule's step, whose case is None, the smallest a-priori bound (ties
    in the order gamma0, gamma1, forest).  Each subproblem's matching is
    checked against its own lambda, so the sum of their floor(lambda/6), plus
    1 for forest's bridge edge, bounds the candidate before anything is
    solved; the construction guarantees that it meets floor(lambda(g)/6).

    `bridges`, g's non-pendant bridges, are None when unknown, as in replay,
    which carries none.  A gamma part takes the edges of a known set inside
    it, less one left pendant; the other parts start unknown.
    """
    bridge = step.bridge
    s, small, candidates = _candidates(g, bridge, bridges)
    best = None
    for name, removed, parts in candidates:
        if step.case is not None and name != step.case:
            continue
        bound = sum(lambda6_of(*_census(g, vs, removed)) // 6 for vs, _ in parts)
        bound += name == "forest"
        if best is None or bound < best[0]:  # ties go to the earlier candidate
            best = bound, name, removed, parts
    if best is None:
        raise InternalInvariantViolation(f"no {step.case} candidate at bridge {bridge}")
    bound, name, removed, parts = best
    if bound > lambda6(g) // 6:
        raise InternalInvariantViolation(f"bridge candidate {name} misses the bound a priori")
    shares = [None] * len(parts)
    if bridges is not None and name != "forest":
        # gamma i: side i plus the other end as a pendant, then side 1 - i,
        # whose end lost the bridge and may have left a pendant edge
        i = CANDIDATES.index(name)
        inner = {(v, w) for v in small for w in g.neighbors(v) if v < w and w in small} & bridges
        bridges -= inner
        bridges.discard(bridge)
        shares = [inner, bridges] if i == s else [bridges, inner]
        end = bridge[1 - i]
        if g.degree(end) == 2:
            shares[1].discard(edge(end, *(g.neighbors(end) - {bridge[i]})))
    recipe = ExtensionRecipe((ExtensionBranch((), (), (bridge,) if name == "forest" else ()),))
    step = ReductionStep(R.RULE_BRIDGE, name, frozenset(), frozenset(), recipe, None, bridge)
    carved, tasks = _carve(g, removed, [(vs, c, b) for (vs, c), b in zip(parts, shares)])
    return step, carved, tasks


def _candidates(g: Graph, bridge: Edge, bridges) -> tuple[int, set[int], list[tuple]]:
    """The bridge's smaller side, as (s, side s) with side s holding
    bridge[s], and the candidate splits, each (name, removed, parts).

    For each side i, a pendant-avoiding matching of that side plus the bridge
    endpoint of the other side, united with a plain matching of the other
    side; and, when both sides have 4n_i - m_i divisible by 6, plain
    matchings of the components of g minus both endpoints (side 0's first,
    each side's by least vertex) plus the bridge edge.  The parts, in
    preorder, are (vertex set, constraint), the part None being what is left
    of g once the vertices `removed` are taken out.  Only the smaller side is
    listed: the search for it stops once it is used up, and a component of
    the larger side less its end is split off only when the end's other
    edges are bridges (read off `bridges` when known, else searched the same
    way).  Then, and only then, ordering the two walks g.
    """
    if bridge is None or not g.has_edge(*bridge):
        raise InternalInvariantViolation(f"{bridge} is not an edge")
    u0, u1 = bridge
    cut = {u0, u1}
    found = g.smaller_side(g.neighbors(u0) - cut, g.neighbors(u1) - cut, cut)
    if found is None:
        raise InternalInvariantViolation(f"{bridge} is not a bridge")
    s, small = found
    us, ur = bridge[s], bridge[1 - s]
    small.add(us)
    pendant = (PendantConstraint(u1, bridge), PendantConstraint(u0, bridge))
    gamma = {  # side i plus the other end, then the other side
        s: (small, [(small | {ur}, pendant[s]), (None, None)]),
        1 - s: (small - {us}, [(None, pendant[1 - s]), (small, None)]),
    }
    candidates = [(CANDIDATES[i], *gamma[i]) for i in (0, 1)]
    n_s, m_s = len(small), (sum(g.degree(v) for v in small) - 1) // 2
    if (4 * n_s - m_s) % 6 or (4 * (g.n - n_s) - (g.m - 1 - m_s)) % 6:
        return s, small, candidates
    removed = cut | small
    parts = []
    for i, u in enumerate(bridge):
        a = sorted(g.neighbors(u) - cut)
        if not a:
            continue  # the side is its end alone
        rest = small - {u} if i == s else None  # the side less its end
        # a[0] and a[1] are apart iff the edges from u to them are bridges,
        # which on the larger side is read off `bridges` when they are known
        known = i != s and bridges is not None
        joined = known and g.degree(a[0]) > 1 and edge(u, a[0]) not in bridges
        apart = g.smaller_side(a[:1], a[1:], cut) if len(a) == 2 and not joined else None
        if apart is None:
            parts.append((rest, None))
            continue
        comp = apart[1]
        if rest is None:
            removed |= comp
            first = min(comp) < min(v for v in g.iter_vertices() if v not in removed)
        else:
            rest = rest - comp
            first = min(comp) < min(rest)
        parts += [(comp, None), (rest, None)] if first else [(rest, None), (comp, None)]
    candidates.append(("forest", removed, parts))
    return s, small, candidates


def _census(g: Graph, vs, removed) -> tuple[int, int, int]:
    """(n, m, n1) of the part of g induced by the vertex set vs, or, for vs
    None, of what is left of g once the vertices `removed` are taken out; in
    time linear in vs or in removed.  A part of a split is never cubic: it
    holds a vertex that lost an edge, or the pendant end of the bridge."""
    if vs is not None:
        n1 = m2 = 0
        for v in vs:
            k = len(g.neighbors(v) & vs)
            m2 += k
            n1 += k == 1
        return len(vs), m2 // 2, n1
    m, n1 = g.m, len(g.degree_bucket(1))
    lost: dict[int, int] = {}
    for v in removed:
        nbrs = g.neighbors(v)
        n1 -= len(nbrs) == 1
        for w in nbrs:
            if w not in removed:
                lost[w] = lost.get(w, 0) + 1
                m -= 1
            elif v < w:
                m -= 1
    for w, k in lost.items():
        d = g.degree(w)
        n1 += (d - k == 1) - (d == 1)
    return g.n - len(removed), m, n1


# -- public API ------------------------------------------------------------------

def _prepare(g: Graph) -> Graph:
    if g.n == 0:
        raise EmptyGraph("cannot solve the empty graph")
    if not g.is_connected():
        raise Disconnected("solve requires a connected graph; see solve_all")
    g.validate()
    return g.copy()


def solve(g: Graph) -> SolveCertificate:
    """Maximal matching of a connected subcubic graph within the bound."""
    return _solve(g, None)


def solve_avoiding(g: Graph, constraint: PendantConstraint) -> SolveCertificate:
    """As solve, but the returned matching excludes the designated pendant edge."""
    return _solve(g, constraint)


def _solve(g: Graph, constraint: PendantConstraint | None) -> SolveCertificate:
    """The one body of solve and solve_avoiding; `valid` scans M whole once."""
    t0 = time.perf_counter()
    work = _prepare(g)
    if constraint is not None:
        _check_constraint(work, constraint)
    steps: list[ReductionStep] = []
    M = frozenset(_run(work, constraint, steps, None))
    report = bound_report(g, connected=True)  # _prepare checked it
    valid = maximality_status(g, M) == 0 and matching_within_bound(g, M, report)
    return SolveCertificate(
        matching=M,
        trace=steps,
        bound=report,
        valid=valid,
        k33_special=is_k33(g),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def solve_all(g: Graph) -> list[SolveCertificate]:
    """Per-component certificates for a possibly disconnected graph."""
    if g.n == 0:
        raise EmptyGraph("cannot solve the empty graph")
    return [solve(g.subgraph(comp)) for comp in g.connected_components()]


def replay(g: Graph, cert: SolveCertificate) -> Matching:
    """Re-derive the certified matching from the recorded trace alone.

    The engine takes each step from the trace instead of the rules, so every
    check of a solve runs again; a trace that does not fit g, ends early or
    has steps left over raises InternalInvariantViolation.
    """
    recorded = iter(cert.trace)
    M = _run(_prepare(g), None, [], recorded)
    if next(recorded, None) is not None:
        raise InternalInvariantViolation("trace has unconsumed steps")
    return frozenset(M)
