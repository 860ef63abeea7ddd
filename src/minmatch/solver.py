"""Constructive solver: maximal matchings within the certified size bound.

Each call on a connected subcubic graph returns a SolveCertificate whose
matching satisfies 6|M| <= lambda_times_6 (the 6-vertex exceptional graph
gets |M| = 3 instead).  The solver repeatedly picks the first applicable
rule and reduces, then extends the reduced graph's matching back through
each step's recipe, validating maximality, growth budget, and the bound
after every extension.  Rule priority: small-graph base case, then pendants,
adjacent degree-2 pairs, degree-2 vertices with degree-3 neighbours, and
finally the cubic case.

The linear rules run before any bridge is split, and no bridge is looked
for before a step.  _checked bounds every step from g's own counts (n, m,
n1, and whether g is cubic) and the step's budget, so a rule needs only
that its configuration exists and that no component of G' is cubic, which
the engine tests; both are local to the deleted set D and its boundary, and
hold on any connected G, bridged or not.  A rule relies on a
2-edge-connected neighbourhood only where a configuration must exist, and
where it does not, the failure names a bridge, at which the engine splits:
  - case 2.3.1's stem: w11 and w12 see v1, x1 and x2, and x1, x2 adjacent or
    both of degree 2 close {v1, w11, w12, x1, x2} off but for the edge
    u v1; the rule returns the BRIDGE step there;
  - an insertion whose candidates are all edges of g already, or all leave
    a cubic component: the split is at the least edge at D that
    Graph.smaller_side proves a bridge (reductions.bridge_at), which the
    rule returns, or solve's step source offers after the last candidate
    (_next_step).
At a bridge only one candidate split is solved, chosen by bound arithmetic
before any solving, so the matching may be larger than the best candidate's,
though always within the bound.  A split costs about its smaller side, not
the graph: a search from both ends of the bridge stops once one side is used
up, every candidate's bound is counted from that side alone (_census), and
only the winner is carved out of the working graph, like the components a
reduction leaves: the part holding the larger side stays in the graph, only
the others are copied, so each vertex has one live copy however deep bridges
nest.

After a linear step, searches from its boundary cut off the components G'
falls into (Graph.cut_off): each boundary vertex is searched for from all
that the step has proved joined, and each refuted search costs about the
side it cuts off, so connectivity is never rescanned whole.  Likewise each extension is
checked for maximality only where it can differ from the sub-matching
(_checked); the `valid` verdict (_solve) scans it whole once.  The matching
is one set per solve, built in place (_run).  Each step reduces g once:
where a rule must insert edges that leave no cubic component, it offers its
candidates in order, and the engine's test for a cubic task, read off the
parts it builds anyway, keeps the first that passes (_run); no rule reduces
g on trial.

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


def select_rule(g: Graph, constraint: PendantConstraint | None = None) -> ReductionStep:
    """First applicable reduction in priority order (callers handle n <= 9).

    Dispatch reads only the degree buckets; its largest cost is
    adjacent_deg2_step's one pass over the degree-2 bucket.  A rule that
    inserts edges returns the step for its first candidate insertion, which
    may leave a cubic component; the steps for the others are in its
    `later`, for the engine to try in turn.  Case 2.3.1's stem, and an
    insertion with no trial left, return a BRIDGE step at the bridge their
    configuration closes off at.
    """
    if constraint is not None:
        _check_constraint(g, constraint)
        return R.degree1_step(g, constraint.vertex, anchored=True)
    pendants = g.degree_bucket(1)
    if pendants:
        return R.degree1_step(g, min(pendants))
    if g.degree_bucket(2):
        return R.adjacent_deg2_step(g) or R.deg2_step(g)
    return R.cubic_step(g)


# -- the engine ------------------------------------------------------------------
#
# A task is a connected graph to solve.  One loop takes every step but a
# base step: _reduced (a linear step) and _split (a BRIDGE step) each return
# (step, undo, tasks), undo being (carved, saved, added), empty but for the
# carving at a split.  The step pushes a frame holding its undo, then one
# task per subproblem, popped in preorder (the trace order): the components
# left by a linear step's in-place reduction, or the parts of a bridge
# split's candidate.  Either way _carve keeps one subproblem in the working
# graph itself (the component no search of Graph.cut_off used up, or the
# part holding the bridge's larger side) and copies only the others.
# Unwinding a frame puts back what the carving and the reduction removed
# (_undo), and extends the matching through the step's recipe.  The stack is
# the engine's own, so the Python stack grows neither with n nor with the
# nesting depth of bridges.  A base step stays a leaf (_leaf), with no frame:
# it leaves no task and nothing to undo, so a frame would only add a push and
# a pop to every solve of a small graph, where it is the only step.
#
# One matching M, a mutable set, serves the whole solve.  A frame holds
# len(M) from when its task began, so g's matching is the len(M) - start
# edges added since.  Edges of finished parts touch no vertex of the current
# g: parts share no vertex, save the bridge endpoint that a gamma candidate's
# two parts share, and the constrained part, solved first, never covers it,
# as its only edge there is the forbidden one, which is checked.  _reduced
# checks that every edge a recipe reads lies in G'.  So the recipe, the region
# check and the forbidden-edge test in _checked read M as if it held only g's
# matching, and an added edge that a finished part holds lies outside g.
#
# No task left by a step that adds edges may be cubic, an O(1) test on its
# buckets, and exact: each component of G' holds a boundary vertex, so one
# that no added edge touches lost a degree there.  The same test picks the
# edges a rule inserts.  A rule that must add edges avoiding a cubic
# component offers candidates that all delete the same set (the step's
# `later`): the engine reduces with the first, builds the tasks, and if one
# is cubic puts g back as a frame's unwinding does (_undo) and tries the
# next.  By the argument above, "some task is cubic" holds iff some
# component of G' that touches the added edges is cubic, however the tasks
# were built (one certified graph, or carved components).  So the kept step
# is the first candidate, in the rule's order, after which no component
# touching its added edges is cubic: a function of g alone, and with it
# every trace.  After the last candidate, solve's source offers a split at a
# bridge (_next_step).  Each step is built once and recorded as it is: solve's
# source takes `later` off the rule's step before handing it over, so a trace
# holds data only, and replay's source offers nothing after a recorded step
# and leaves any `later` it comes with unread: the recorded step is its only
# candidate, and one that leaves a cubic task is refused.

def _run(g: Graph, constraint, steps: list[ReductionStep], source) -> set[Edge]:
    """Maximal matching of connected g, built in one set, appending its
    steps to `steps`.  Each step, with the steps to try in turn if it leaves
    a cubic task, is source(g, constraint): the rules' (_next_step, solve)
    or a recorded trace's (_replayed, replay)."""
    M: set[Edge] = set()
    stack: list[tuple] = [("task", g, constraint)]
    while stack:
        item = stack.pop()
        if item[0] == "frame":
            _, start, g, step, undo, constraint = item
            _undo(g, *undo)
            before = len(M)
            step.extension.apply(M)
            _checked(g, step, M, len(M) - start, len(M) - before, constraint)
            continue
        _, g, constraint = item
        step, later = source(g, constraint)
        if step.rule in (R.RULE_BASE_SMALL, R.RULE_K33):
            M |= _leaf(g, step, constraint, steps)
            steps.append(step)
            continue
        while True:
            step, undo, tasks = (_split if step.rule == R.RULE_BRIDGE else _reduced)(g, step)
            if not (step.added_edges and any(t[1].is_cubic() for t in tasks)):
                break
            _undo(g, *undo)
            rejected, step = step, next(later, None)
            if step is None:
                raise InternalInvariantViolation(
                    f"{rejected.rule}/{rejected.case} produced a cubic component"
                )
        steps.append(step)
        stack.append(("frame", len(M), g, step, undo, constraint))
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
    constraint), and the undo data of the carving.  The part given as None
    is what is left of g once the vertices `removed` are taken out, and
    stays in g itself; every other is copied first.  Only the listed
    vertices are read, never all of g."""
    tasks = [("task", g if vs is None else g.subgraph(vs), c) for vs, c in parts]
    return g.remove_vertices_with_undo(removed), tasks


def _reduced(g: Graph, step: ReductionStep) -> tuple[ReductionStep, tuple, list[tuple]]:
    """A linear step's reduction of connected g, in place: the step, the undo
    data (carved, saved, added) and the tasks g leaves.  Every edge the step
    adds, or its recipe reads, must lie in the reduced graph.  The component
    that Graph.cut_off leaves from the step's boundary stays in g and comes
    first, then the components it cut off, by least vertex."""
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
    if not g.n:  # the step deleted all of g
        return step, ({}, saved, added), []
    sides = sorted(g.cut_off(_boundary(saved, added)), key=min)
    carved, tasks = _carve(g, set().union(*sides), [(None, None)] + [(side, None) for side in sides])
    return step, (carved, saved, added), tasks


def _boundary(saved: dict, added: list[Edge]) -> set[int]:
    """The boundary of a step that deleted the vertices in `saved` (their
    undo data) and added the edges `added`: (N(D) - D) | V(A).  Every
    component of the reduced graph holds one of its vertices."""
    boundary = set().union(*saved.values()).difference(saved)
    boundary.update(v for e in added for v in e)
    return boundary


def _next_step(g: Graph, constraint) -> tuple[ReductionStep, Iterator]:
    """Solve's step source: the oracle on small graphs, the first
    applicable rule otherwise, recorded as built: its `later` is taken
    off (ReductionStep.take_later) and offered after it (_offers)."""
    if g.n > BASE_SIZE:
        step = select_rule(g, constraint)
        return step, _offers(g, step, step.take_later())
    if constraint is not None:
        rule, res = R.RULE_BASE_SMALL, gamma_exact_avoiding(g, constraint.forbidden_edge)
    else:
        rule, res = R.RULE_K33 if is_k33(g) else R.RULE_BASE_SMALL, gamma_exact(g)
    # the witness's edges are in (min, max) form already
    recipe = ExtensionRecipe((ExtensionBranch((), (), tuple(sorted(res.witness))),))
    return ReductionStep(rule, None, frozenset(g.iter_vertices()), frozenset(), recipe, None), iter(())


def _offers(g: Graph, step: ReductionStep, later: Iterator) -> Iterator:
    """What solve tries in turn if `step` leaves a cubic task: the rule's
    `later` steps, then a split at the least bridge at its deleted set
    (reductions.bridge_at; None if there is none), sought only if asked for."""
    yield from later
    yield R.bridge_at(g, step.deleted)


def _replayed(recorded: Iterator[ReductionStep]):
    """Replay's step source: the trace's next step, with nothing to try
    after it, so that it is the only candidate; a `later` it comes with is
    not read."""

    def source(g, constraint) -> tuple[ReductionStep, Iterator]:
        step = next(recorded, None)
        if step is None:
            raise InternalInvariantViolation("trace ended before the graph was consumed")
        return step, iter(())

    return source


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


def _split(g: Graph, step: ReductionStep) -> tuple[ReductionStep, tuple, list[tuple]]:
    """As _reduced, for a bridge step: the step to record, the undo data of
    carving g into its candidate's parts (nothing is deleted or added), and
    their tasks.  The candidate is the one a recorded step names in its case
    (replay), else, for select_rule's step, whose case is None, the one of
    smallest a-priori bound (ties in the order gamma0, gamma1, forest).
    Each subproblem's matching is checked against its own lambda, so the
    sum of their floor(lambda/6), plus 1 for forest's bridge edge, bounds the
    candidate before anything is solved; the construction guarantees that
    it meets floor(lambda(g)/6).
    """
    bridge = step.bridge
    best = None
    for name, removed, parts in _candidates(g, bridge):
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
    recipe = ExtensionRecipe((ExtensionBranch((), (), (bridge,) if name == "forest" else ()),))
    step = ReductionStep(R.RULE_BRIDGE, name, frozenset(), frozenset(), recipe, None, bridge)
    carved, tasks = _carve(g, removed, parts)
    return step, (carved, {}, []), tasks


def _candidates(g: Graph, bridge: Edge) -> list[tuple]:
    """The candidate splits at the bridge, each (name, removed, parts).

    For each side i, a pendant-avoiding matching of that side plus the bridge
    endpoint of the other side, united with a plain matching of the other
    side; and, when both sides have 4n_i - m_i divisible by 6, plain
    matchings of the components of g minus both endpoints (side 0's first,
    each side's by least vertex) plus the bridge edge.  The parts, in
    preorder, are (vertex set, constraint), the part None being what is left
    of g once the vertices `removed` are taken out.  Only the smaller side is
    listed: the search for it stops once it is used up, and a component of
    the larger side less its end is split off only when the end's other
    edges are bridges, searched the same way.  Then, and only then, ordering
    the two walks g.
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
        return candidates
    removed = cut | small
    parts = []
    for i, u in enumerate(bridge):
        a = sorted(g.neighbors(u) - cut)
        if not a:
            continue  # the side is its end alone
        rest = small - {u} if i == s else None  # the side less its end
        # a[0] and a[1] are apart iff the edges from u to them are bridges
        apart = g.smaller_side(a[:1], a[1:], cut) if len(a) == 2 else None
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
    return candidates


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
    M = frozenset(_run(work, constraint, steps, _next_step))
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
    has steps left over raises InternalInvariantViolation.  A solve_avoiding
    certificate replays without the avoided-edge check: SolveCertificate
    does not record the constraint.
    """
    recorded = iter(cert.trace)
    M = _run(_prepare(g), None, [], _replayed(recorded))
    if next(recorded, None) is not None:
        raise InternalInvariantViolation("trace has unconsumed steps")
    return frozenset(M)
