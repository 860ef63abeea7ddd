"""Reduction steps: the local rewrites the solver applies, one per step.

A step deletes a small vertex set, possibly adds one or two edges, and
carries a data-driven recipe that turns any maximal matching of the reduced
graph back into one of the original graph.  Recipes are branch lists tested
against the sub-matching in order, so a recorded trace is replayable without
re-running the case analysis.  Rules read g and never change it; a rule that
inserts edges returns its first candidate and leaves the choice among the
rest to the solver (see _insertion).

Rule tags: DEGREE1 (pendant), BRIDGE (marker; the solver assembles the split
itself), ADJ_DEG2 (two adjacent degree-2 vertices), DEG2_TWO_DEG3 (a
degree-2 vertex whose neighbours both have degree 3), CUBIC_FINISH (the
remaining 3-regular case), plus BASE_SMALL / K33_SPECIAL leaves.
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


@dataclass(frozen=True)
class ExtensionBranch:
    requires: tuple[Edge, ...]  # every edge must be in the sub-matching
    remove: tuple[Edge, ...]
    add: tuple[Edge, ...]


@dataclass(frozen=True)
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


def _recipe(*branches: tuple) -> ExtensionRecipe:
    return ExtensionRecipe(
        branches=tuple([  # lists, not generators: tuple() of one costs more
            ExtensionBranch(
                requires=tuple([edge(*e) for e in req]),
                remove=tuple([edge(*e) for e in rem]),
                add=tuple([edge(*e) for e in add]),
            )
            for req, rem, add in branches
        ])
    )


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    case: str | None
    deleted: frozenset[int]
    added_edges: frozenset[Edge]
    extension: ExtensionRecipe | None
    budget: int | None  # max allowed |M| - |M'| for this step
    meta: dict = field(default_factory=dict, compare=False)


def _step(rule, case, deleted, added, recipe, budget, **meta) -> ReductionStep:
    return ReductionStep(
        rule=rule,
        case=case,
        deleted=frozenset(deleted),
        added_edges=frozenset([edge(*e) for e in added]),
        extension=recipe,
        budget=budget,
        meta=meta,
    )


def _incident_edges(g: Graph, vs: set[int]) -> int:
    total = sum(g.degree(v) for v in vs)
    internal = sum(1 for v in vs for w in g.neighbors(v) if w in vs and v < w)
    return total - internal


# -- insertions that must avoid a cubic component -------------------------------
#
# A rule that adds edges must add ones that leave G' without a cubic
# component; the proof only needs one of a few candidates, all deleting the
# same set, to do so.  The rule returns the step for its first candidate; the
# solver builds G' with it and, only if a part is cubic, undoes it and asks
# meta[LATER] for the next (solver._run).

LATER = "later"  # engine-only meta entry; never part of a recorded step


def _insertion(g: Graph, v0: set[int], trials: list[tuple[Edge, ...]], build) -> ReductionStep:
    """build(*trial) for the first of `trials`, each a tuple of edges
    between neighbours of v0 to add once v0 is deleted, with the steps for
    the later trials under meta[LATER], built lazily.  Trials holding an edge
    of g are dropped; g is not changed.  Some trial leaves no cubic component
    by the structure around v0 (bridgeless, and the candidate graph on the
    neighbours is connected enough), so the engine running out of them is an
    internal error.
    """
    outside = set().union(*(g.neighbors(v) for v in v0)) - v0
    for trial in trials:
        if any(v not in outside for e in trial for v in e):
            raise PreconditionViolated(
                f"candidate endpoint not a neighbour of the deleted set: {trial}"
            )
    trials = [t for t in trials if not any(g.has_edge(*e) for e in t)]
    if not trials:
        raise PreconditionViolated("no candidate that is not already an edge")
    step = build(*trials[0])
    step.meta[LATER] = (build(*t) for t in trials[1:])
    return step


def _edge_insertion(g: Graph, v0: set[int], pairs: list[Edge], build) -> ReductionStep:
    """_insertion with one edge per trial, from `pairs` (no edge twice) in the
    order of their (min, max) form; build gets each pair as given."""
    return _insertion(g, v0, [(p,) for p in sorted(pairs, key=lambda p: edge(*p))], build)


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
    return _step(
        RULE_DEGREE1,
        None,
        {pendant, v, w},
        (),
        _recipe(((), (), ((v, w),))),
        budget=1,
        pendant=pendant,
        anchored=anchored,
    )


# -- two adjacent degree-2 vertices ---------------------------------------------

def adjacent_deg2_step(g: Graph) -> ReductionStep | None:
    """The step for u1, the least degree-2 vertex with a degree-2 neighbour,
    and u2, its least such neighbour; None if there is none.  One pass over
    the degree-2 bucket finds them: the dispatch's per-step cost."""
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
        return _step(
            RULE_ADJ_DEG2, "triangle", {u1, u2, v1}, (),
            _recipe(((), (), ((u1, v1),))), budget=1,
        )

    if g.has_edge(v1, v2):
        side1 = sorted(g.neighbors(v1) - {u1, v2})
        if side1:
            w = side1[0]
            return _step(
                RULE_ADJ_DEG2, "chord", {u1, u2, v1, v2, w}, (),
                _recipe(((), (), ((u2, v2), (v1, w)))), budget=2,
            )
        side2 = sorted(g.neighbors(v2) - {u2, v1})
        if not side2:
            raise InternalInvariantViolation("4-vertex component reached the rule engine")
        w = side2[0]
        return _step(
            RULE_ADJ_DEG2, "chord", {u1, u2, v1, v2, w}, (),
            _recipe(((), (), ((u1, v1), (v2, w)))), budget=2,
        )

    # contraction applies unless it would leave a cubic graph, i.e. unless
    # every vertex other than u1, u2 has degree 3
    others_cubic = (
        not g.degree_bucket(0)
        and not g.degree_bucket(1)
        and g.degree_bucket(2) == {u1, u2}
    )
    if not others_cubic:
        return _step(
            RULE_ADJ_DEG2, "contract", {u1, u2}, ((v1, v2),),
            _recipe(
                (((v1, v2),), ((v1, v2),), ((u1, v1), (u2, v2))),
                ((), (), ((u1, u2),)),
            ),
            budget=1,
        )

    w11, w12 = sorted(g.neighbors(v1) - {u1})
    w21, w22 = sorted(g.neighbors(v2) - {u2})

    shared = sorted((g.neighbors(v1) & g.neighbors(v2)) - {u1, u2})
    if shared:
        w = shared[0]
        return _step(
            RULE_ADJ_DEG2, "shared-outer", {u1, u2, v1, v2, w}, (),
            _recipe(((), (), ((u1, v1), (w, v2)))), budget=2,
        )

    if len({w11, w12, w21, w22}) != 4:
        raise InternalInvariantViolation("outer neighbours not distinct without a shared one")

    intra1, intra2 = g.has_edge(w11, w12), g.has_edge(w21, w22)
    if intra1 or intra2:
        if not intra1:
            u1, u2, v1, v2 = u2, u1, v2, v1
            (w11, w12), (w21, w22) = (w21, w22), (w11, w12)
        return _step(
            RULE_ADJ_DEG2, "outer-pair-edge", {u1, u2, v1, w11, w12}, (),
            _recipe(((), (), ((u1, u2), (w11, w12)))), budget=2,
        )

    crosses = sorted(
        (a, b) for a in (w11, w12) for b in (w21, w22) if g.has_edge(a, b)
    )
    if crosses:
        a, b = crosses[0]
        w12, w11 = a, (w11 if a == w12 else w12)
        w21, w22 = b, (w22 if b == w21 else w21)
        xs = [
            x for x in sorted(g.neighbors(w11) - {v1})
            if x != w21 and not g.has_edge(x, w21)
        ]
        if not xs:
            raise InternalInvariantViolation("no relink target beside the crossing edge")
        x = xs[0]
        return _step(
            RULE_ADJ_DEG2, "outer-cross-edge", {u1, u2, v1, v2, w11}, ((x, w21),),
            _recipe(
                (((x, w21),), ((x, w21),), ((x, w11), (w21, v2), (u1, v1))),
                ((), (), ((v1, w11), (u2, v2))),
            ),
            budget=2,
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
        return _step(
            RULE_ADJ_DEG2, "outer-independent", v0, (e,),
            _recipe(
                ((e,), (e,), ((x, w11), (wt, v2), (u1, v1))),
                ((), (), ((v1, w11), (u2, v2))),
            ),
            budget=2,
        )

    return _edge_insertion(g, v0, [(x, wt) for x in xs for wt in (w21, w22)], build)


# -- degree-2 vertex with two degree-3 neighbours --------------------------------

def deg2_step(g: Graph) -> ReductionStep:
    u = min(g.degree_bucket(2))
    v1, v2 = sorted(g.neighbors(u))
    if g.degree(v1) != 3 or g.degree(v2) != 3:
        raise PreconditionViolated(
            "rule needs both neighbours of the degree-2 vertex at degree 3"
        )

    if g.has_edge(v1, v2):
        return _step(
            RULE_DEG2, "0", {u, v1, v2}, (),
            _recipe(((), (), ((v1, v2),))), budget=1,
        )

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
        return _deg2_case21(g, u, v1, v2, w11, w12, w21, w22)

    crosses = sorted(
        (a, b) for a in (w11, w12) for b in (w21, w22) if g.has_edge(a, b)
    )
    if crosses:
        return _deg2_case22(g, u, v1, v2, w11, w12, w21, w22, crosses[0])

    return _deg2_case23(g, u, v1, v2, w11, w12, w21, w22)


def _deg2_case1(g, u, v1, v2, common):
    """The two degree-3 neighbours share an outer neighbour w."""
    w = common[0]
    for a1, a2 in ((v1, v2), (v2, v1)):
        (wa,) = sorted(g.neighbors(a1) - {u, w})
        short = {u, a1, a2, wa, w}
        if _incident_edges(g, short) <= 8:
            return _step(
                RULE_DEG2, "1", short, (),
                _recipe(((), (), ((a1, wa), (a2, w)))), budget=2, variant="short",
            )
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
        return _step(
            RULE_DEG2, "1", {u, v1, v2, w11, w, w22, x12, x111}, (),
            _recipe(((), (), ((w11, x111), (v1, w), (v2, w22)))),
            budget=3, variant="deep",
        )
    if not adj22:
        e = edge(x12, w22)
        return _step(
            RULE_DEG2, "1", {u, v1, v2, w11, w}, (e,),
            _recipe(
                ((e,), (e,), ((x12, w), (v2, w22), (v1, w11))),
                ((), (), ((v2, w), (v1, w11))),
            ),
            budget=2, variant="relink",
        )
    e = edge(x12, w11)
    return _step(
        RULE_DEG2, "1", {u, v1, v2, w22, w}, (e,),
        _recipe(
            ((e,), (e,), ((x12, w), (v1, w11), (v2, w22))),
            ((), (), ((v1, w), (v2, w22))),
        ),
        budget=2, variant="relink",
    )


def _deg2_case21(g, u, v1, v2, w11, w12, w21, w22):
    """An edge inside the v1-side outer pair."""
    crosses = sorted(
        (a, b) for a in (w11, w12) for b in (w21, w22) if g.has_edge(a, b)
    )
    if crosses:
        a, b = crosses[0]
        w12, w11 = a, (w11 if a == w12 else w12)
        w21, w22 = b, (w22 if b == w21 else w21)
        return _step(
            RULE_DEG2, "2.1", {u, v1, v2, w11, w12, w21}, (),
            _recipe(((), (), ((v1, w11), (v2, w21)))), budget=2, variant="cross",
        )
    short = {u, v1, v2, w11, w12}
    if _incident_edges(g, short) <= 8:
        return _step(
            RULE_DEG2, "2.1", short, (),
            _recipe(((), (), ((w11, w12), (u, v2)))), budget=2, variant="short",
        )
    (x11,) = sorted(g.neighbors(w11) - {v1, w12})
    (x12,) = sorted(g.neighbors(w12) - {v1, w11})

    def build(e):
        xa, wb = e
        w_own, w_other = (w11, w12) if xa == x11 else (w12, w11)
        return _step(
            RULE_DEG2, "2.1", short, (e,),
            _recipe(
                ((e,), (e,), ((xa, w_own), (v2, wb), (v1, w_other))),
                ((), (), ((w11, w12), (u, v2))),
            ),
            budget=2, variant="rewire",
        )

    # x11 and x12 may be one vertex, which must give its two edges once
    return _edge_insertion(g, short, [(x, wt) for x in {x11, x12} for wt in (w21, w22)], build)


def _deg2_case22(g, u, v1, v2, w11, w12, w21, w22, cross):
    """A crossing edge between the two outer pairs, no intra-pair edges."""
    a, b = cross
    w12, w11 = a, (w11 if a == w12 else w12)
    w21, w22 = b, (w22 if b == w21 else w21)
    short = {u, v1, v2, w12, w21}
    if _incident_edges(g, short) <= 8:
        return _step(
            RULE_DEG2, "2.2", short, (),
            _recipe(((), (), ((v1, w12), (v2, w21)))), budget=2, variant="short",
        )
    (x12,) = sorted(g.neighbors(w12) - {v1, w21})
    (x21,) = sorted(g.neighbors(w21) - {v2, w12})
    if g.has_edge(w11, w22) and g.has_edge(w11, x12) and g.has_edge(w22, x21):
        if x12 == x21 or g.has_edge(x12, x21) or (g.degree(x12) == 2 and g.degree(x21) == 2):
            raise InternalInvariantViolation("closed 9-vertex configuration above base size")
        if g.degree(x21) == 3:
            (y,) = sorted(g.neighbors(x21) - {w21, w22})
            return _step(
                RULE_DEG2, "2.2",
                {u, v1, v2, w11, w12, w21, w22, x12, x21, y}, (),
                _recipe(((), (), ((w11, w22), (u, v2), (w12, x12), (x21, y)))),
                budget=4, variant="ten",
            )
        (y,) = sorted(g.neighbors(x12) - {w12, w11})
        return _step(
            RULE_DEG2, "2.2",
            {u, v1, v2, w11, w12, w21, w22, x12, x21, y}, (),
            _recipe(((), (), ((w22, w11), (u, v1), (w21, x21), (x12, y)))),
            budget=4, variant="ten",
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
        return _step(
            RULE_DEG2, "2.2", short, (e,),
            _recipe(((e,), (e,), add), ((), (), ((v1, w12), (v2, w21)))),
            budget=2, variant="rewire",
        )

    return _edge_insertion(g, short, list(dict.fromkeys(p for p, _ in relinks)), build)


def _deg2_case23(g, u, v1, v2, w11, w12, w21, w22):
    """Outer neighbours form an independent set: the tree configuration."""
    if g.degree(w11) == 3 and g.degree(w12) == 3:
        common3 = g.neighbors(w11) & g.neighbors(w12)
        if len(common3) == 3:
            return _deg2_case231(g, u, v1, v2, w11, w12, w21, w22, common3)
    if g.degree(w21) == 3 and g.degree(w22) == 3:
        common3 = g.neighbors(w21) & g.neighbors(w22)
        if len(common3) == 3:
            return _deg2_case231(g, u, v2, v1, w21, w22, w11, w12, common3)
    return _deg2_case232(g, u, v1, v2, w11, w12, w21, w22)


def _deg2_case231(g, u, v1, v2, w11, w12, w21, w22, common3):
    """w11 and w12 see the same three vertices: v1 plus x1, x2."""
    x1, x2 = sorted(common3 - {v1})
    if g.has_edge(x1, x2) or (g.degree(x1) == 2 and g.degree(x2) == 2):
        raise InternalInvariantViolation("configuration forces a bridge at the stem")
    if g.degree(x1) == 2 or g.degree(x2) == 2:
        if g.degree(x1) == 2:
            x1, x2 = x2, x1
        w2d = min(w21, w22)
        return _step(
            RULE_DEG2, "2.3.1", {u, v1, v2, w11, w12, w2d, x1, x2}, (),
            _recipe(((), (), ((w11, x1), (v1, w12), (v2, w2d)))),
            budget=3, variant="deg2-twin",
        )
    (y1,) = sorted(g.neighbors(x1) - {w11, w12})
    (y2,) = sorted(g.neighbors(x2) - {w11, w12})
    if y1 != y2:
        return _step(
            RULE_DEG2, "2.3.1", {u, v1, w11, w12, x1, x2, y1, y2}, (),
            _recipe(((), (), ((u, v1), (x1, y1), (x2, y2)))),
            budget=3, variant="split",
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


def _deg2_case232(g, u, v1, v2, w11, w12, w21, w22):
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
            return _step(
                RULE_DEG2, "2.3.2", {u, v1, w11, w12, x11}, (),
                _recipe(((), (), ((u, v1), (w12, x12)))),
                budget=2, variant="pinch",
            )
        w2d = min(w21, w22)
        e = edge(w11, x12)
        return _step(
            RULE_DEG2, "2.3.2", {u, v1, v2, w12, w2d}, (e,),
            _recipe(
                ((e,), (e,), ((v1, w11), (w12, x12), (v2, w2d))),
                ((), (), ((v1, w12), (v2, w2d))),
            ),
            budget=2, variant="relink",
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
        return _step(
            RULE_DEG2, "2.3.2", v0, (e1, e2),
            _recipe(*branches),
            budget=2, variant="main",
        )

    trials = [((w11, q1), (w22, q2)) for q1 in q1_cands for q2 in q2_cands]
    return _insertion(g, v0, trials, build)


# -- the cubic case --------------------------------------------------------------

def cubic_step(g: Graph) -> ReductionStep:
    u1 = min(g.iter_vertices())
    u2 = min(g.neighbors(u1))
    common = g.neighbors(u1) & g.neighbors(u2)
    if common:
        return _step(
            RULE_CUBIC, "shared-neighbour", {u1, u2}, (),
            _recipe(((), (), ((u1, u2),))), budget=1,
        )
    v11, v12 = sorted(g.neighbors(u1) - {u2})
    v21, v22 = sorted(g.neighbors(u2) - {u1})

    def build(e):
        a, b = e
        return _step(
            RULE_CUBIC, "crossing", {u1, u2}, (e,),
            _recipe(
                ((e,), (e,), ((u1, a), (u2, b))),
                ((), (), ((u1, u2),)),
            ),
            budget=1,
        )

    return _edge_insertion(g, {u1, u2}, [(a, b) for a in (v11, v12) for b in (v21, v22)], build)
