"""Reduction steps: the local rewrites the solver applies, one per step.

A step deletes a small vertex set, possibly adds one or two edges, and
carries a data-driven recipe that turns any maximal matching of the reduced
graph back into one of the original graph.  Recipes are branch lists tested
against the sub-matching in order, so a recorded trace is replayable without
re-running the case analysis.  Rules read g and never change it; a rule that
inserts edges returns its first candidate that the solver has not refused,
and the solver asks again after each refusal (see _insertion), so no rule
tests for a cubic component itself.

Nearly every recipe takes one of two shapes: _plain adds no edge and
matches a fixed edge set, and _relink adds one edge e, which a sub-matching
that holds it trades for one fixed set while any other gains another.  Only
the hexagon and case 2.3.2's main step write their branches by hand.  A
configuration that comes in mirror images is oriented first, so that each
builds its step in one place.

Rule tags: DEGREE1 (pendant), BRIDGE (marker where a configuration closes
off at a bridge; the solver assembles the split itself), ADJ_DEG2 (two
adjacent degree-2 vertices), DEG2_TWO_DEG3 (a degree-2 vertex whose
neighbours both have degree 3), CUBIC_FINISH (the remaining 3-regular
case), plus BASE_SMALL / K33_SPECIAL leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalInvariantViolation, PreconditionViolated
from .graph import Edge, Graph, edge

RULE_BASE_SMALL = "BASE_SMALL"
RULE_K33 = "K33_SPECIAL"
RULE_DEGREE1 = "DEGREE1"
RULE_BRIDGE = "BRIDGE"
RULE_ADJ_DEG2 = "ADJ_DEG2"
RULE_DEG2 = "DEG2_TWO_DEG3"
RULE_CUBIC = "CUBIC_FINISH"


@dataclass(frozen=True, slots=True)
class ExtensionBranch:
    requires: tuple[Edge, ...]  # every edge must be in the sub-matching
    remove: tuple[Edge, ...]
    add: tuple[Edge, ...]


@dataclass(frozen=True, slots=True)
class ExtensionRecipe:
    """First branch whose `requires` edges all lie in M' wins."""

    branches: tuple[ExtensionBranch, ...]

    def apply(self, M: set[Edge]) -> set[Edge]:
        """Extend the sub-matching M in place, and return it."""
        for br in self.branches:
            if all(e in M for e in br.requires):
                for e in br.remove:
                    if e not in M:
                        raise InternalInvariantViolation(
                            f"extension removes {e} not present in sub-matching"
                        )
                    M.remove(e)
                M.update(br.add)
                return M
        raise InternalInvariantViolation("no extension branch matched")


def _edges(es) -> tuple[Edge, ...]:
    # (min, max) form inline, as edge() per edge costs more; a list, as tuple() of one is cheaper
    return tuple([(u, v) if u < v else (v, u) for u, v in es])


def _recipe(*branches: tuple) -> ExtensionRecipe:
    return ExtensionRecipe(tuple([ExtensionBranch(_edges(q), _edges(r), _edges(a)) for q, r, a in branches]))


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One recorded step: the compared fields are what a certificate
    writes, every edge in (min, max) form.  `variant` labels the rule's
    sub-case for coverage and is not compared."""

    rule: str
    case: str | None
    deleted: frozenset[int]
    added_edges: frozenset[Edge]
    extension: ExtensionRecipe | None
    budget: int | None  # max allowed |M| - |M'| for this step
    bridge: Edge | None = None  # a BRIDGE step's bridge
    variant: str | None = field(default=None, compare=False)


def _step(rule, case, deleted, added, recipe, budget, variant=None) -> ReductionStep:
    """A rule's step, its added edges normalised inline."""
    added = frozenset([(u, v) if u < v else (v, u) for u, v in added])
    return ReductionStep(rule, case, frozenset(deleted), added, recipe, budget, None, variant)


def _plain(rule, case, deleted, matched, budget, variant=None) -> ReductionStep:
    """A step that adds no edge and whose recipe matches `matched`."""
    return _step(rule, case, deleted, (), _recipe(((), (), matched)), budget, variant)


def _relink(rule, case, deleted, e, swap, rest, budget, variant=None) -> ReductionStep:
    """A step that adds e: a sub-matching that holds e trades it for
    `swap`, and any other gains `rest`."""
    recipe = _recipe(((e,), (e,), swap), ((), (), rest))
    return _step(rule, case, deleted, (e,), recipe, budget, variant)


def bridge_step(bridge: Edge) -> ReductionStep:
    """The marker for a split at `bridge`, in (min, max) form: the solver
    picks the candidate and builds the recipe (solver._split)."""
    return ReductionStep(RULE_BRIDGE, None, frozenset(), frozenset(), None, None, bridge)


def bridge_at(g: Graph, vs) -> ReductionStep | None:
    """The marker for a split at the least edge at the vertex set vs that
    Graph.smaller_side proves a bridge of g; None if no such edge is one."""
    for e in sorted({edge(v, w) for v in vs for w in g.neighbors(v)}):
        cut = set(e)
        if g.smaller_side(g.neighbors(e[0]) - cut, g.neighbors(e[1]) - cut, cut) is not None:
            return bridge_step(e)
    return None


def _incident_edges(g: Graph, vs: set[int]) -> int:
    total = sum(g.degree(v) for v in vs)
    internal = sum(1 for v in vs for w in g.neighbors(v) if w in vs and v < w)
    return total - internal


def _crossing(g: Graph, w11, w12, w21, w22) -> tuple[int, int, int, int] | None:
    """The outer pairs (w11, w12) and (w21, w22), each relabelled within
    itself so that w12-w21 is the least edge between the pairs; None if
    there is none."""
    cross = min(((a, b) for a in (w11, w12) for b in (w21, w22) if g.has_edge(a, b)), default=None)
    if cross is None:
        return None
    a, b = cross
    return (w11 if a == w12 else w12), a, b, (w22 if b == w21 else w21)


# -- insertions that must avoid a cubic component -------------------------------
#
# A rule that adds edges must add ones that leave G' without a cubic
# component; the proof only needs one of a few candidates, all deleting the
# same set, to do so.  The rule returns the step for its first candidate; the
# solver builds G' with it and, only if a part is cubic, undoes it and asks
# the rules again with its added edges among those `refused` (solver._run).


def _insertion(g: Graph, v0: set[int], refused, trials: list[tuple[Edge, ...]], build) -> ReductionStep:
    """build(*trial) for the first of `trials`, each a tuple of edges
    between neighbours of v0 to add once v0 is deleted, whose edge set is
    not in `refused`.  Trials holding an edge of g are dropped; g is not
    changed.  Where g is bridgeless around v0, some trial is left, and one
    leaves no cubic component (the candidate graph on the neighbours is
    connected enough); so with no trial left, the step is a split at a
    bridge at v0 (bridge_at).  If every trial left is refused, the step is
    the last one's, refused, which select_rule turns into such a split.
    """
    outside = set().union(*(g.neighbors(v) for v in v0)) - v0
    for trial in trials:
        if any(v not in outside for e in trial for v in e):
            raise PreconditionViolated(
                f"candidate endpoint not a neighbour of the deleted set: {trial}"
            )
    trials = [t for t in trials if not any(g.has_edge(*e) for e in t)]
    if not trials:  # every trial is an edge of g: v0 is closed off at a bridge
        step = bridge_at(g, v0)
        if step is None:
            raise PreconditionViolated("no candidate that is not already an edge")
        return step
    trial = next((t for t in trials if frozenset(_edges(t)) not in refused), trials[-1])
    return build(*trial)


def _edge_insertion(g: Graph, v0: set[int], refused, pairs: list[Edge], build) -> ReductionStep:
    """_insertion with one edge per trial, from `pairs` (no edge twice) in the
    order of their (min, max) form; build gets each pair as given."""
    return _insertion(g, v0, refused, [(p,) for p in sorted(pairs, key=lambda p: edge(*p))], build)


# -- pendant rule ---------------------------------------------------------------

def degree1_step(g: Graph, pendant: int, anchored: bool = False) -> ReductionStep:
    """Delete the pendant u, its neighbour v, and a support w of v; extend
    with vw.  The result never contains uv, which is what the avoidance
    contract needs."""
    if g.degree(pendant) != 1:
        raise PreconditionViolated(f"{pendant} is not a degree-1 vertex")
    (v,) = g.neighbors(pendant)
    support = [w for w in sorted(g.neighbors(v)) if w != pendant and g.degree(w) >= 2]
    if not support:
        raise InternalInvariantViolation(
            "pendant reduction needs a support neighbour; star components "
            "must be handled by the small-graph base case"
        )
    w = support[0]
    return _plain(
        RULE_DEGREE1, None, {pendant, v, w}, ((v, w),), budget=1,
        variant="anchored" if anchored else None,
    )


# -- two adjacent degree-2 vertices ---------------------------------------------

def adjacent_deg2_step(g: Graph, refused=frozenset()) -> ReductionStep | None:
    """The step for u1, the least degree-2 vertex with a degree-2 neighbour,
    and u2, its least such neighbour; None if there is none.  One pass over
    the degree-2 bucket finds them: the dispatch's per-step cost.  `refused`
    holds the added-edge sets the solver has refused (_insertion); an outer
    case is the step only once the contraction is refused."""
    deg2 = g.degree_bucket(2)
    u1 = None
    for v in deg2:
        if (u1 is None or v < u1) and not deg2.isdisjoint(g.neighbors(v)):
            u1 = v
    if u1 is None:
        return None
    u2 = min(deg2 & g.neighbors(u1))
    (v1,) = (x for x in g.neighbors(u1) if x != u2)
    (v2,) = (x for x in g.neighbors(u2) if x != u1)

    if v1 == v2:
        return _plain(RULE_ADJ_DEG2, "triangle", {u1, u2, v1}, ((u1, v1),), budget=1)

    if g.has_edge(v1, v2):
        # orient the chord so that v1 has a third neighbour w
        if g.neighbors(v1) <= {u1, v2}:
            u1, u2, v1, v2 = u2, u1, v2, v1
        side = g.neighbors(v1) - {u1, v2}
        if not side:
            raise InternalInvariantViolation("4-vertex component reached the rule engine")
        w = min(side)
        return _plain(RULE_ADJ_DEG2, "chord", {u1, u2, v1, v2, w}, ((u2, v2), (v1, w)), budget=2)

    # v1v2 joins what u1u2 joined and keeps every other degree, so the solver
    # refuses the contraction just when every other vertex has degree 3
    if frozenset({edge(v1, v2)}) not in refused:
        return _relink(
            RULE_ADJ_DEG2, "contract", {u1, u2}, (v1, v2),
            ((u1, v1), (u2, v2)), ((u1, u2),), budget=1,
        )

    w11, w12 = sorted(g.neighbors(v1) - {u1})
    w21, w22 = sorted(g.neighbors(v2) - {u2})

    shared = sorted((g.neighbors(v1) & g.neighbors(v2)) - {u1, u2})
    if shared:
        w = shared[0]
        return _plain(RULE_ADJ_DEG2, "shared-outer", {u1, u2, v1, v2, w}, ((u1, v1), (w, v2)), budget=2)

    if len({w11, w12, w21, w22}) != 4:
        raise InternalInvariantViolation("outer neighbours not distinct without a shared one")

    intra1, intra2 = g.has_edge(w11, w12), g.has_edge(w21, w22)
    if intra1 or intra2:
        if not intra1:
            u1, u2, v1, v2 = u2, u1, v2, v1
            (w11, w12), (w21, w22) = (w21, w22), (w11, w12)
        return _plain(
            RULE_ADJ_DEG2, "outer-pair-edge", {u1, u2, v1, w11, w12},
            ((u1, u2), (w11, w12)), budget=2,
        )

    if crossed := _crossing(g, w11, w12, w21, w22):
        w11, w12, w21, w22 = crossed
        xs = [
            x for x in sorted(g.neighbors(w11) - {v1})
            if x != w21 and not g.has_edge(x, w21)
        ]
        if not xs:
            raise InternalInvariantViolation("no relink target beside the crossing edge")
        x = xs[0]
        return _relink(
            RULE_ADJ_DEG2, "outer-cross-edge", {u1, u2, v1, v2, w11}, (x, w21),
            ((x, w11), (w21, v2), (u1, v1)), ((v1, w11), (u2, v2)), budget=2,
        )

    # independent outer set: anchor on the smallest outer vertex and relink
    # one of its neighbours to the opposite side
    if min(w21, w22) < min(w11, w12):
        u1, u2, v1, v2 = u2, u1, v2, v1
        (w11, w12), (w21, w22) = (w21, w22), (w11, w12)
    xs = sorted(g.neighbors(w11) - {v1})
    v0 = {u1, u2, v1, v2, w11}

    def build(e):
        x, wt = e
        return _relink(
            RULE_ADJ_DEG2, "outer-independent", v0, e,
            ((x, w11), (wt, v2), (u1, v1)), ((v1, w11), (u2, v2)), budget=2,
        )

    return _edge_insertion(g, v0, refused, [(x, wt) for x in xs for wt in (w21, w22)], build)


# -- degree-2 vertex with two degree-3 neighbours --------------------------------

def deg2_step(g: Graph, refused=frozenset()) -> ReductionStep:
    u = min(g.degree_bucket(2))
    v1, v2 = sorted(g.neighbors(u))
    if g.degree(v1) != 3 or g.degree(v2) != 3:
        raise PreconditionViolated(
            "rule needs both neighbours of the degree-2 vertex at degree 3"
        )

    if g.has_edge(v1, v2):
        return _plain(RULE_DEG2, "0", {u, v1, v2}, ((v1, v2),), budget=1)

    common = sorted((g.neighbors(v1) & g.neighbors(v2)) - {u})
    if common:
        return _deg2_case1(g, u, v1, v2, common)

    w11, w12 = sorted(g.neighbors(v1) - {u})
    w21, w22 = sorted(g.neighbors(v2) - {u})
    intra1, intra2 = g.has_edge(w11, w12), g.has_edge(w21, w22)
    if intra1 or intra2:
        if not intra1:
            v1, v2 = v2, v1
            (w11, w12), (w21, w22) = (w21, w22), (w11, w12)
        return _deg2_case21(g, refused, u, v1, v2, w11, w12, w21, w22)

    if crossed := _crossing(g, w11, w12, w21, w22):
        return _deg2_case22(g, refused, u, v1, v2, *crossed)

    return _deg2_case23(g, refused, u, v1, v2, w11, w12, w21, w22)


def _deg2_case1(g, u, v1, v2, common):
    """The two degree-3 neighbours share an outer neighbour w."""
    w = common[0]
    for a1, a2 in ((v1, v2), (v2, v1)):
        (wa,) = sorted(g.neighbors(a1) - {u, w})
        short = {u, a1, a2, wa, w}
        if _incident_edges(g, short) <= 8:
            return _plain(RULE_DEG2, "1", short, ((a1, wa), (a2, w)), budget=2, variant="short")
    (w11,) = sorted(g.neighbors(v1) - {u, w})
    (w22,) = sorted(g.neighbors(v2) - {u, w})
    # dense surroundings: w, w11, w22 are distinct degree-3 vertices and w is
    # adjacent to neither of the others
    x12 = min(g.neighbors(w) - {v1, v2})
    adj11, adj22 = g.has_edge(x12, w11), g.has_edge(x12, w22)
    if adj11 and adj22:
        if g.has_edge(w11, w22):
            raise InternalInvariantViolation("closed 7-vertex configuration above base size")
        (x111,) = sorted(g.neighbors(w11) - {v1, x12})
        return _plain(
            RULE_DEG2, "1", {u, v1, v2, w11, w, w22, x12, x111},
            ((w11, x111), (v1, w), (v2, w22)), budget=3, variant="deep",
        )
    if adj22:  # orient so that x12 is not adjacent to w22
        v1, w11, v2, w22 = v2, w22, v1, w11
    return _relink(
        RULE_DEG2, "1", {u, v1, v2, w11, w}, (x12, w22),
        ((x12, w), (v2, w22), (v1, w11)), ((v2, w), (v1, w11)), budget=2, variant="relink",
    )


def _deg2_case21(g, refused, u, v1, v2, w11, w12, w21, w22):
    """An edge inside the v1-side outer pair."""
    if crossed := _crossing(g, w11, w12, w21, w22):
        w11, w12, w21, w22 = crossed
        return _plain(
            RULE_DEG2, "2.1", {u, v1, v2, w11, w12, w21}, ((v1, w11), (v2, w21)),
            budget=2, variant="cross",
        )
    short = {u, v1, v2, w11, w12}
    if _incident_edges(g, short) <= 8:
        return _plain(RULE_DEG2, "2.1", short, ((w11, w12), (u, v2)), budget=2, variant="short")
    (x11,) = sorted(g.neighbors(w11) - {v1, w12})
    (x12,) = sorted(g.neighbors(w12) - {v1, w11})

    def build(e):
        xa, wb = e
        w_own, w_other = (w11, w12) if xa == x11 else (w12, w11)
        return _relink(
            RULE_DEG2, "2.1", short, e, ((xa, w_own), (v2, wb), (v1, w_other)),
            ((w11, w12), (u, v2)), budget=2, variant="rewire",
        )

    # x11 and x12 may be one vertex, which must give its two edges once
    return _edge_insertion(g, short, refused, [(x, wt) for x in {x11, x12} for wt in (w21, w22)], build)


def _deg2_case22(g, refused, u, v1, v2, w11, w12, w21, w22):
    """A crossing edge between the two outer pairs, w12-w21 the least
    (_crossing), and no intra-pair edges."""
    short = {u, v1, v2, w12, w21}
    if _incident_edges(g, short) <= 8:
        return _plain(RULE_DEG2, "2.2", short, ((v1, w12), (v2, w21)), budget=2, variant="short")
    (x12,) = sorted(g.neighbors(w12) - {v1, w21})
    (x21,) = sorted(g.neighbors(w21) - {v2, w12})
    if g.has_edge(w11, w22) and g.has_edge(w11, x12) and g.has_edge(w22, x21):
        if x12 == x21 or g.has_edge(x12, x21) or (g.degree(x12) == 2 and g.degree(x21) == 2):
            raise InternalInvariantViolation("closed 9-vertex configuration above base size")
        if g.degree(x21) != 3:  # orient so that x21 has degree 3
            v1, v2, w11, w22, w12, w21, x12, x21 = v2, v1, w22, w11, w21, w12, x21, x12
        (y,) = sorted(g.neighbors(x21) - {w21, w22})
        return _plain(
            RULE_DEG2, "2.2", {u, v1, v2, w11, w12, w21, w22, x12, x21, y},
            ((w11, w22), (u, v2), (w12, x12), (x21, y)), budget=4, variant="ten",
        )
    # the edge to add, and what the recipe adds when the sub-matching holds
    # it (the first entry wins if two edges coincide)
    relinks = [
        (edge(w11, w22), ((v1, w11), (v2, w22), (w12, w21))),
        (edge(w11, x12), ((v1, w11), (x12, w12), (v2, w21))),
        (edge(w22, x21), ((v2, w22), (x21, w21), (v1, w12))),
    ]

    def build(e):
        add = next(a for p, a in relinks if p == e)
        return _relink(
            RULE_DEG2, "2.2", short, e, add, ((v1, w12), (v2, w21)), budget=2, variant="rewire",
        )

    return _edge_insertion(g, short, refused, list(dict.fromkeys(p for p, _ in relinks)), build)


def _deg2_case23(g, refused, u, v1, v2, w11, w12, w21, w22):
    """Outer neighbours form an independent set: the tree configuration."""
    for a, b, wa1, wa2, wb1, wb2 in ((v1, v2, w11, w12, w21, w22), (v2, v1, w21, w22, w11, w12)):
        # three common neighbours force both outer vertices to degree 3
        common3 = g.neighbors(wa1) & g.neighbors(wa2)
        if len(common3) == 3:
            return _deg2_case231(g, u, a, b, wa1, wa2, wb1, wb2, common3)
    return _deg2_case232(g, refused, u, v1, v2, w11, w12, w21, w22)


def _deg2_case231(g, u, v1, v2, w11, w12, w21, w22, common3):
    """w11 and w12 see the same three vertices: v1 plus x1, x2.  If x1 and
    x2 are adjacent or both of degree 2, {v1, w11, w12, x1, x2} meets the
    rest of g only at the stem u v1, a bridge: split there."""
    x1, x2 = sorted(common3 - {v1})
    if g.has_edge(x1, x2) or (g.degree(x1) == 2 and g.degree(x2) == 2):
        return bridge_step(edge(u, v1))
    if g.degree(x1) == 2 or g.degree(x2) == 2:
        if g.degree(x1) == 2:
            x1, x2 = x2, x1
        w2d = min(w21, w22)
        return _plain(
            RULE_DEG2, "2.3.1", {u, v1, v2, w11, w12, w2d, x1, x2},
            ((w11, x1), (v1, w12), (v2, w2d)), budget=3, variant="deg2-twin",
        )
    (y1,) = sorted(g.neighbors(x1) - {w11, w12})
    (y2,) = sorted(g.neighbors(x2) - {w11, w12})
    if y1 != y2:
        return _plain(
            RULE_DEG2, "2.3.1", {u, v1, w11, w12, x1, x2, y1, y2},
            ((u, v1), (x1, y1), (x2, y2)), budget=3, variant="split",
        )
    y = y1
    e = edge(u, y)
    return _step(
        RULE_DEG2, "2.3.1", {v1, w11, w12, x1, x2}, (e,),
        _recipe(
            ((e,), (e,), ((u, v1), (x1, y), (w12, x2))),
            ((edge(u, v2),), (), ((w11, x1), (w12, x2))),
            ((), (), ((v1, w11), (w12, x2))),
        ),
        budget=2, variant="hexagon",
    )


def _deg2_case232(g, refused, u, v1, v2, w11, w12, w21, w22):
    """No triple common neighbourhood on either side."""
    deg1s = (g.degree(w11), g.degree(w12))
    deg2s = (g.degree(w21), g.degree(w22))
    if max(deg1s) == 2 or max(deg2s) == 2:
        if max(deg1s) != 2:
            v1, v2 = v2, v1
            (w11, w12), (w21, w22) = (w21, w22), (w11, w12)
        (x11,) = sorted(g.neighbors(w11) - {v1})
        (x12,) = sorted(g.neighbors(w12) - {v1})
        if x11 == x12:
            return _plain(
                RULE_DEG2, "2.3.2", {u, v1, w11, w12, x11}, ((u, v1), (w12, x12)),
                budget=2, variant="pinch",
            )
        w2d = min(w21, w22)
        return _relink(
            RULE_DEG2, "2.3.2", {u, v1, v2, w12, w2d}, (w11, x12),
            ((v1, w11), (w12, x12), (v2, w2d)), ((v1, w12), (v2, w2d)), budget=2, variant="relink",
        )
    # each side has a degree-3 outer vertex acting as the relink hub
    if g.degree(w12) != 3:
        w11, w12 = w12, w11
    if g.degree(w21) != 3:
        w21, w22 = w22, w21
    x12s = sorted(g.neighbors(w12) - {v1})
    x21s = sorted(g.neighbors(w21) - {v2})
    q1_cands = [x for x in x12s if not g.has_edge(w11, x)]
    q2_cands = [x for x in x21s if not g.has_edge(w22, x)]
    if not q1_cands or not q2_cands:
        raise InternalInvariantViolation("triple common neighbourhood missed earlier")
    v0 = {u, v1, v2, w12, w21}

    def build(e1, e2):
        (_, q1), (_, q2) = e1, e2
        side1_in = ((e1,), ((v1, w11), (w12, q1)))
        side1_out = ((), ((v1, w12),))
        side2_in = ((e2,), ((v2, w22), (w21, q2)))
        side2_out = ((), ((v2, w21),))
        branches = []
        for (req1, add1) in (side1_in, side1_out):
            for (req2, add2) in (side2_in, side2_out):
                branches.append((req1 + req2, req1 + req2, add1 + add2))
        return _step(RULE_DEG2, "2.3.2", v0, (e1, e2), _recipe(*branches), budget=2, variant="main")

    trials = [((w11, q1), (w22, q2)) for q1 in q1_cands for q2 in q2_cands]
    return _insertion(g, v0, refused, trials, build)


# -- the cubic case --------------------------------------------------------------

def cubic_step(g: Graph, refused=frozenset()) -> ReductionStep:
    u1 = min(g.iter_vertices())
    u2 = min(g.neighbors(u1))
    common = g.neighbors(u1) & g.neighbors(u2)
    if common:
        return _plain(RULE_CUBIC, "shared-neighbour", {u1, u2}, ((u1, u2),), budget=1)
    v11, v12 = sorted(g.neighbors(u1) - {u2})
    v21, v22 = sorted(g.neighbors(u2) - {u1})

    def build(e):
        a, b = e
        return _relink(RULE_CUBIC, "crossing", {u1, u2}, e, ((u1, a), (u2, b)), ((u1, u2),), budget=1)

    return _edge_insertion(g, {u1, u2}, refused, [(a, b) for a in (v11, v12) for b in (v21, v22)], build)
