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
Its parts are carved out of the working graph in place, like the components
a reduction leaves: the largest stays in the graph, only the others are
copied, so each vertex has one live copy however deep bridges nest.

Connectivity and bridges are not rescanned after every step.  Call a
connected graph clean if every bridge in it is a pendant edge.  Lemma: let G
be clean, and let a linear step delete D != {} and add the edges A, giving
G'.  The step's boundary is B = (N(D) - D) | V(A); B* is B with each vertex
of degree 1 in G' replaced by its neighbour (one of degree 0 gives no
certificate).  If B* lies in one 2-edge-connected component of G', then G'
is connected and clean.  A component of G' with no boundary vertex would
already have been a component of G, which is connected and holds D; a
non-pendant bridge of G' with no B* vertex on one side would already have
been a non-pendant bridge of G.  The solver tests this on G' itself by
joining each vertex of B* to the others with two edge-disjoint paths
(Graph.joined(B*, 2)), a search that stops as soon as it is refuted, at a
cost of about the smaller side of the bridge that refutes it.
The test is exact, so the bridge search runs again only when G' has a
non-pendant bridge, and the bridge it splits at, and with it every trace, is
the one the full scans give.  Clean or not, G is connected, so by the first
half of the argument one path joining each vertex of B to the others proves
G' connected; only when that fails are the components listed in full.
Likewise each extension is checked for maximality only where it can differ
from the sub-matching (_checked); the `valid` verdict (_certify) scans it
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
from dataclasses import dataclass
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
    g: Graph, constraint: PendantConstraint | None = None, clean: bool = False
) -> ReductionStep:
    """First applicable reduction in priority order (callers handle n <= 9).

    `clean` says the caller knows every bridge of g to be a pendant edge, so
    a graph without pendants has none and the search for one is skipped.
    A rule that inserts edges returns the step for its first candidate
    insertion, which may leave a cubic component; the steps for the others
    are under meta[reductions.LATER], for the engine to try in turn.
    """
    if constraint is not None:
        _check_constraint(g, constraint)
        return R.degree1_step(g, constraint.vertex, anchored=True)
    pendants = g.degree_bucket(1)
    if pendants:
        return R.degree1_step(g, min(pendants))
    bridges = () if clean else g.find_bridges()
    if bridges:
        return ReductionStep(
            rule=R.RULE_BRIDGE,
            case=None,
            deleted=frozenset(),
            added_edges=frozenset(),
            extension=None,
            budget=None,
            meta={"bridge": min(bridges)},
        )
    deg2 = g.degree_bucket(2)
    if deg2:
        if any(g.degree(w) == 2 for v in deg2 for w in g.neighbors(v)):
            return R.adjacent_deg2_step(g)
        return R.deg2_step(g)
    return R.cubic_step(g)


# -- the engine ------------------------------------------------------------------
#
# A task is a connected graph to solve.  A step pushes a frame holding its
# undo data, then one task per subproblem, popped in preorder (the trace
# order): the components left by a linear step's in-place reduction, or the
# parts of a bridge split's candidate.  Either way _carve keeps the largest
# subproblem in the working graph itself and copies only the others.
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
# A task also carries whether it is known to be clean (see the module
# docstring): in solve, a task is clean once select_rule has searched it for
# a bridge and found none, and stays clean across linear steps for as long as
# the boundary certificate holds.  Only then is the bridge search before the
# next step skipped; every other task runs it, so the bridge chosen, and with
# it the trace, is the same.  After every linear step, connectivity is tested
# by paths from the step's boundary, and only a disconnected graph is scanned
# whole for its components.  No task left by a step that adds edges may be
# cubic, an O(1) test on its buckets, and exact: each component of G' holds a
# boundary vertex, so one that no added edge touches lost a degree there.
#
# The same test picks the edges a rule inserts.  A rule that must add edges
# avoiding a cubic component offers candidates that all delete the same set
# (reductions.LATER): the engine reduces with the first, builds the tasks, and
# if one is cubic puts g back as a frame's unwinding does (_undo) and tries
# the next, leaving `clean` as it was.  By the argument above, "some task is
# cubic" holds iff some component of G' that touches the added edges is
# cubic, however the tasks were built (one certified graph, or carved
# components).  So the kept step is the first candidate, in the rule's order,
# after which no component touching its added edges is cubic: a function of
# g alone, and with it every trace.  In replay the recorded step is the only
# candidate.

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
    stack: list[tuple] = [("task", g, constraint, False, False)]
    while stack:
        item = stack.pop()
        if item[0] == "frame":
            _, start, g, step, carved, saved, added, constraint = item
            _undo(g, carved, saved, added)
            before = len(M)
            step.extension.apply(M)
            _checked(g, step, M, len(M) - start, len(M) - before, constraint)
            continue
        _, g, constraint, internal, clean = item  # internal: no exceptional graph allowed
        step = _next_step(g, constraint, recorded, clean)
        if step.rule in (R.RULE_BASE_SMALL, R.RULE_K33):
            steps.append(step)
            M |= _leaf(g, step, constraint, internal)
            continue
        if step.rule == R.RULE_BRIDGE:
            step, carved, tasks = _split(g, step, recorded is None)
            saved, added = {}, []
        else:
            # with no constraint and no pendant, select_rule found no bridge
            clean = clean or (recorded is None and constraint is None and not g.degree_bucket(1))
            # the rule's later candidates; in replay the recorded step is the only one
            later = step.meta.pop(R.LATER, iter(())) if recorded is None else iter(())
            while True:
                saved, added = _reduce(g, step)
                if clean and g.n > BASE_SIZE and _stays_clean(g, saved, added):
                    carved, tasks = {}, [("task", g, None, True, True)]
                elif _stays_connected(g, saved, added):
                    carved, tasks = {}, [("task", g, None, True, False)]
                else:
                    carved, tasks = _carve(g, [(comp, None) for comp in g.connected_components()])
                if not (added and any(t[1].is_cubic() for t in tasks)):
                    break
                _undo(g, carved, saved, added)
                rejected, step = step, next(later, None)
                if step is None:
                    raise InternalInvariantViolation(
                        f"{rejected.rule}/{rejected.case} produced a cubic component"
                    )
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


def _carve(g: Graph, parts) -> tuple[dict, list[tuple]]:
    """Tasks for connected parts of g, given in preorder as (vertex set,
    constraint), and the undo data of the carving: the largest part (the
    first of equal size) stays in g itself, every other is copied, and every
    vertex outside the largest part is removed from g."""
    keep = max(parts, key=lambda p: len(p[0]), default=((), None))
    tasks = [("task", g if p is keep else g.subgraph(p[0]), p[1], True, False) for p in parts]
    return g.remove_vertices_with_undo([v for v in g.iter_vertices() if v not in keep[0]]), tasks


def _boundary(saved: dict, added: list[Edge]) -> set[int]:
    """The boundary of a step that deleted the vertices in `saved` (their
    undo data) and added the edges `added`: (N(D) - D) | V(A)."""
    boundary = set().union(*saved.values()).difference(saved)
    boundary.update(v for e in added for v in e)
    return boundary


def _stays_connected(g: Graph, saved: dict, added: list[Edge]) -> bool:
    """True iff g, just reduced in place from a connected graph by deleting
    the vertices in `saved` and adding `added`, is connected: every
    component of g holds a boundary vertex, so it is enough that one path
    joins each boundary vertex to the others (Graph.joined)."""
    boundary = _boundary(saved, added)
    return bool(boundary) and g.joined(boundary, 1)


def _stays_clean(g: Graph, saved: dict, added: list[Edge]) -> bool:
    """The boundary certificate: True iff g, just reduced in place from a
    clean graph by deleting the vertices in `saved` (their undo data) and
    adding `added`, is connected and clean (for g of three or more vertices,
    where an isolated boundary vertex or a pendant edge's degree-1 neighbour
    makes g disconnected)."""
    seeds = set()
    for b in _boundary(saved, added):
        nbrs = g.neighbors(b)
        if len(nbrs) == 1:
            seeds |= nbrs  # a pendant edge may be a bridge: certify its other end
        elif nbrs:
            seeds.add(b)
        else:
            return False
    return g.joined(seeds, 2)


def _next_step(g: Graph, constraint, recorded, clean: bool) -> ReductionStep:
    """The step source: the recorded trace in replay; in solve, the oracle
    on small graphs and the first applicable rule otherwise."""
    if recorded is not None:
        step = next(recorded, None)
        if step is None:
            raise InternalInvariantViolation("trace ended before the graph was consumed")
        return step
    if g.n > BASE_SIZE:
        return select_rule(g, constraint, clean=clean)
    if constraint is not None:
        res = gamma_exact_avoiding(g, constraint.forbidden_edge)
        rule = R.RULE_BASE_SMALL
        meta = {"oracle_nodes": res.nodes_explored, "avoided": edge(*constraint.forbidden_edge)}
    else:
        rule = R.RULE_K33 if is_k33(g) else R.RULE_BASE_SMALL
        res = gamma_exact(g)
        meta = {"oracle_nodes": res.nodes_explored}
    return ReductionStep(
        rule=rule,
        case=None,
        deleted=frozenset(g.iter_vertices()),
        added_edges=frozenset(),
        extension=ExtensionRecipe((ExtensionBranch((), (), tuple(sorted(res.witness))),)),
        budget=None,
        meta=meta,
    )


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


def _leaf(g: Graph, step: ReductionStep, constraint, internal: bool) -> set[Edge]:
    """A base step: its recipe, applied to a fresh set, is g's matching."""
    if step.extension is None or step.deleted != frozenset(g.iter_vertices()):
        raise InternalInvariantViolation("base step does not cover the graph")
    special = constraint is None and is_k33(g)
    if (step.rule == R.RULE_K33) != special:
        raise InternalInvariantViolation(f"{step.rule} step on the wrong kind of graph")
    if special and internal:
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
    if "bridge" in step.meta:
        named.append(step.meta["bridge"])
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


def _split(g: Graph, step: ReductionStep, solving: bool) -> tuple[ReductionStep, dict, list[tuple]]:
    """The bridge step to record, and g carved into its candidate's parts:
    in solve the smallest a-priori bound (ties in the order gamma0, gamma1,
    forest), in replay the recorded candidate.  Each subproblem's matching is
    checked against its own lambda, so the sum of their floor(lambda/6), plus
    1 for forest's bridge edge, bounds the candidate before anything is
    solved; the construction guarantees that it meets floor(lambda(g)/6)."""
    bridge = step.meta["bridge"]
    target = lambda6(g) // 6
    candidates = [c for c in _bridge_candidates(g, bridge) if solving or c[0] == step.case]
    # Evaluated last to first, so that gamma0, which wins most splits, is
    # carved last: when the last one evaluated wins, its carving stays.
    best = kept = None
    for i, (name, parts) in reversed(list(enumerate(candidates))):
        carved, tasks = _carve(g, parts)
        bound = sum(lambda6(t[1]) // 6 for t in tasks) + (name == "forest")
        if best is None or bound <= best[0]:  # ties go to the earlier candidate
            best = (bound, name, parts)
            if i == 0:
                kept = carved, tasks
                continue
        g.restore_vertices(carved)
    if best is None:
        raise InternalInvariantViolation(f"no {step.case} candidate at bridge {bridge}")
    bound, name, parts = best
    if bound > target:
        raise InternalInvariantViolation(f"bridge candidate {name} misses the bound a priori")
    add = (bridge,) if name == "forest" else ()
    step = ReductionStep(
        rule=R.RULE_BRIDGE,
        case=name,
        deleted=frozenset(),
        added_edges=frozenset(),
        extension=ExtensionRecipe((ExtensionBranch((), (), add),)),
        budget=None,
        meta={"bridge": bridge, "candidate": name},
    )
    carved, tasks = kept or _carve(g, parts)
    return step, carved, tasks


def _bridge_candidates(g: Graph, bridge: Edge) -> list[tuple[str, tuple]]:
    """Candidate splits at a bridge of connected g: (name, connected parts in
    preorder), each part (vertex set, constraint).

    For each side i, a pendant-avoiding matching of that side plus the bridge
    endpoint of the other side, united with a plain matching of the other
    side; and, when both sides have 4n_i - m_i divisible by 6, plain
    matchings of the components of g minus both endpoints (side 0's first)
    plus the bridge edge.
    """
    u0, u1 = bridge
    if not g.has_edge(u0, u1):
        raise InternalInvariantViolation(f"{bridge} is not an edge")
    g.remove_edge(u0, u1)
    side0 = frozenset(g.component_of(u0))
    g.add_edge(u0, u1)
    if u1 in side0:
        raise InternalInvariantViolation(f"{bridge} is not a bridge")
    side1 = frozenset(g.iter_vertices()) - side0
    candidates = [
        ("gamma0", ((side0 | {u1}, PendantConstraint(u1, bridge)), (side1, None))),
        ("gamma1", ((side1 | {u0}, PendantConstraint(u0, bridge)), (side0, None))),
    ]
    m0 = (sum(g.degree(v) for v in side0) - 1) // 2
    m1 = g.m - 1 - m0
    if (4 * len(side0) - m0) % 6 == 0 and (4 * len(side1) - m1) % 6 == 0:
        saved = g.remove_vertices_with_undo(bridge)
        comps = g.connected_components()
        g.restore_vertices(saved)
        comps.sort(key=lambda c: next(iter(c)) not in side0)  # stable: preorder per side
        candidates.append(("forest", tuple((comp, None) for comp in comps)))
    return candidates


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
    t0 = time.perf_counter()
    steps: list[ReductionStep] = []
    M = frozenset(_run(_prepare(g), None, steps, None))
    return _certify(g, M, steps, t0)


def solve_avoiding(g: Graph, constraint: PendantConstraint) -> SolveCertificate:
    """As solve, but the returned matching excludes the designated pendant edge."""
    t0 = time.perf_counter()
    work = _prepare(g)
    _check_constraint(work, constraint)
    steps: list[ReductionStep] = []
    M = frozenset(_run(work, constraint, steps, None))
    return _certify(g, M, steps, t0)


def solve_all(g: Graph) -> list[SolveCertificate]:
    """Per-component certificates for a possibly disconnected graph."""
    if g.n == 0:
        raise EmptyGraph("cannot solve the empty graph")
    return [solve(g.subgraph(comp)) for comp in g.connected_components()]


def _certify(g: Graph, M: Matching, steps, t0) -> SolveCertificate:
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
