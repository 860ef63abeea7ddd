"""Span tracing of minmatch's public functions, installed at run time.

Nothing in the package is edited: each traced function is replaced, for the
duration of a traced pass, by a wrapper that records a span (group, start,
end, parent) in flat arrays.  Functions that other modules import by name,
such as ``minmatch.solver.maximality_status`` or ``minmatch.cli.parse_graph6``,
are replaced in every ``minmatch`` namespace that holds them, so the span is
recorded where the call is made.  A group's self time is the duration of its
spans minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

ORACLE_GROUPS = ("oracle.gamma_exact", "oracle.gamma_exact_avoiding")


def targets() -> dict[str, list[tuple[object, str]]]:
    """Traced functions by group: (owner, attribute name)."""
    from minmatch import cli, graph, graphio, matching, oracle, reductions, solver

    G = graph.Graph
    return {
        "graph.find_bridges": [(G, "find_bridges")],
        "graph.connectivity": [(G, "is_connected"), (G, "connected_components"), (G, "component_of")],
        "graph.cubic_check": [(G, "has_cubic_component_touching"), (G, "cubic_components"), (graph, "is_k33")],
        "graph.undo": [(G, "remove_vertices_with_undo"), (G, "restore_vertices")],
        "graph.subgraph": [(G, "subgraph")],
        "matching.maximality_status": [(matching, "maximality_status")],
        "matching.certify": [
            (matching, "bound_report"),
            (matching, "is_matching"),
            (matching, "is_maximal"),
            (matching, "matching_within_bound"),
        ],
        "reductions.rule": [
            (reductions, "degree1_step"),
            (reductions, "adjacent_deg2_step"),
            (reductions, "deg2_step"),
            (reductions, "cubic_step"),
        ],
        "solver.select_rule": [(solver, "select_rule")],
        "solver": [(solver, "solve"), (solver, "solve_avoiding"), (solver, "solve_all")],
        "oracle.gamma_exact": [(oracle, "gamma_exact")],
        "oracle.gamma_exact_avoiding": [(oracle, "gamma_exact_avoiding")],
        "graphio.parse_graph6": [(graphio, "parse_graph6")],
        "graphio.write_graph6": [(graphio, "write_graph6")],
        "cli": [(cli, "main")],
    }


class Trace:
    """Spans of one traced pass, and the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.groups: list[str] = []
        self.group = array("i")
        self.parent = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.oracle_nodes = 0
        self.bridge_attempts = 0
        self.bytes = {"graphio.parse_graph6": 0, "graphio.write_graph6": 0}
        self._stack = [-1]

    def _on_result(self, group: str, args, result) -> None:
        if group in ORACLE_GROUPS:
            self.oracle_nodes += result.nodes_explored
        elif group == "solver.select_rule":
            if result.rule == "BRIDGE":
                self.bridge_attempts += 1
        elif group == "graphio.parse_graph6":
            self.bytes[group] += len(args[0])
        elif group == "graphio.write_graph6":
            self.bytes[group] += len(result)

    def wrap(self, group: str, fn):
        gid = len(self.groups)
        self.groups.append(group)
        hooked = group in ORACLE_GROUPS or group in self.bytes or group == "solver.select_rule"
        groups, parents, starts, ends = self.group, self.parent, self.start_ns, self.end_ns
        stack, clock, on_result = self._stack, time.perf_counter_ns, self._on_result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            groups.append(gid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hooked:
                on_result(group, args, result)
            return result

        return wrapper

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """(calls, self seconds) per group."""
        n = len(self.start_ns)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end_ns[i] - self.start_ns[i]
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i in range(n):
            name = self.groups[self.group[i]]
            calls[name] = calls.get(name, 0) + 1
            own = self.end_ns[i] - self.start_ns[i] - covered[i]
            self_ns[name] = self_ns.get(name, 0) + own
        return calls, {k: v / 1e9 for k, v in self_ns.items()}

    def spans(self) -> dict:
        """Columnar dump: group names, and per span its group index, parent
        span index (-1 for none), start and end in nanoseconds."""
        return {
            "groups": self.groups,
            "group": self.group.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start_ns.tolist(),
            "end_ns": self.end_ns.tolist(),
        }


@contextlib.contextmanager
def swapped(owner, name: str, new):
    """Set ``owner.name`` to ``new`` and restore the old value on exit."""
    old = getattr(owner, name)
    setattr(owner, name, new)
    try:
        yield old
    finally:
        setattr(owner, name, old)


@contextlib.contextmanager
def traced(trace: Trace):
    """Install ``trace``'s wrappers on every target for the ``with`` body."""
    namespaces = [m for k, m in sys.modules.items() if k == "minmatch" or k.startswith("minmatch.")]
    with contextlib.ExitStack() as stack:
        for group, items in targets().items():
            for owner, attr in items:
                original = getattr(owner, attr)
                wrapper = trace.wrap(group, original)
                if isinstance(owner, type):
                    stack.enter_context(swapped(owner, attr, wrapper))
                    continue
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            stack.enter_context(swapped(ns, name, wrapper))
        yield trace
