"""Seeded inputs for the four workloads, and one checked pass over each.

A pass is a closed loop with one caller: every input of the workload, in
order, each call starting when the previous one returned.  Only the calls
into minmatch are timed, one time per timed unit: a record, or on
``corpus_verify`` one ``verify`` call over a file of records.  The reference
chunk runs before the first unit and after every unit, so that the pass's
times can be set against the machine's speed while they were taken.  Each
output is then checked by ``checks``, which shares no code with
``minmatch.matching``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from minmatch import cli, generators, graphio, solver
from minmatch.graph import Graph

from checks import adjacency, bridge_count, is_connected, lambda6, matching_problems
from tracing import swapped

BLOB_N = 12
# graph6 lines per file on corpus_verify: the corpus, then the random cubic graphs
CORPUS_CHUNK = 1000
CUBIC_CHUNK = 4


@dataclass
class Record:
    """One input: its label, size and edge list, as built at set-up."""

    label: str
    n: int
    edges: list[tuple[int, int]]
    graph: Graph | None = None


@dataclass
class Outcome:
    """One record of one pass: its time, what it produced, and what is wrong."""

    label: str
    n: int
    m: int
    seconds: float
    matching_size: int | None = None
    lambda6: int | None = None
    problems: list[str] = field(default_factory=list)
    output: list = field(default_factory=list)  # digest material


@dataclass
class Inputs:
    workload: str
    records: list[Record]
    files: list[tuple[Path, list[Record]]] = field(default_factory=list)  # corpus_verify only


def _record(label: str, g: Graph) -> Record:
    return Record(label=label, n=g.n, edges=g.edges(), graph=g)


def bridge_chain(k: int, rng: random.Random) -> Graph:
    """k random 12-vertex cubic blobs, each minus one edge, in a row joined by
    k - 1 bridges from one blob's freed endpoint to the next blob's."""
    edges: list[tuple[int, int]] = []
    ends = []
    for i in range(k):
        while True:
            blob = generators.gen_random_cubic(BLOB_N, rng.randrange(2**31)).edges()
            cut = rng.choice(blob)
            rest = [e for e in blob if e != cut]
            # a blob that is cut apart, or left with a bridge, is drawn again
            if is_connected(adjacency(rest), BLOB_N) and bridge_count(adjacency(rest)) == 0:
                break
        base = i * BLOB_N
        edges += [(base + u, base + v) for u, v in rest]
        ends.append((base + cut[0], base + cut[1]))
    edges += [(ends[i][1], ends[i + 1][0]) for i in range(k - 1)]
    adj = adjacency(edges)
    n = k * BLOB_N
    if not is_connected(adj, n):
        raise RuntimeError(f"bridge chain k={k} is disconnected")
    if max(len(nbrs) for nbrs in adj.values()) > 3:
        raise RuntimeError(f"bridge chain k={k} is not subcubic")
    if bridge_count(adj) != k - 1:
        raise RuntimeError(f"bridge chain k={k} has {bridge_count(adj)} bridges, not {k - 1}")
    return Graph.from_edges(edges)


def build(workload: str, seed: int, sizes: tuple, workdir: Path) -> Inputs:
    """Generate the workload's inputs from ``seed``; the same seed gives the
    same inputs.  ``sizes`` is the workload's entry of ``run.SIZES``."""
    rng = random.Random(seed)
    if workload in ("cubic_solve", "graph6_io"):
        records = [
            _record(f"n={n}#{i}", generators.gen_random_cubic(n, rng.randrange(2**31)))
            for n, count in sizes for i in range(1, count + 1)
        ]
        return Inputs(workload, records)
    if workload == "bridge_chain":
        return Inputs(workload, [
            _record(f"k={k}#{i}", bridge_chain(k, rng)) for k, count in sizes for i in range(1, count + 1)
        ])
    if workload == "corpus_verify":
        max_n, cubic_n, count = sizes
        corpus = [g for n in range(1, max_n + 1) for g in generators.enumerate_connected_subcubic(n)]
        cubic = [generators.gen_random_cubic(cubic_n, rng.randrange(2**31)) for _ in range(count)]
        files = []
        for name, graphs, chunk in ((f"corpus_n{max_n}", corpus, CORPUS_CHUNK),
                                    (f"cubic_n{cubic_n}", cubic, CUBIC_CHUNK)):
            for start in range(0, len(graphs), chunk):
                part = graphs[start:start + chunk]
                path = workdir / f"{name}_{start // chunk + 1}.g6"
                path.write_text("".join(graphio.write_graph6(g) + "\n" for g in part), encoding="ascii")
                files.append((path, [Record(f"{name}:{start + i}", g.n, g.edges())
                                     for i, g in enumerate(part, 1)]))
        return Inputs(workload, [r for _, recs in files for r in recs], files)
    raise ValueError(f"unknown workload {workload!r}")


def trace_tuples(cert) -> list:
    return [
        [s.rule, s.case, sorted(s.deleted), sorted(list(e) for e in s.added_edges)]
        for s in cert.trace
    ]


def _solved(rec: Record, cert, seconds: float, problems: list[str]) -> Outcome:
    out = Outcome(rec.label, rec.n, len(rec.edges), seconds, problems=problems)
    if cert is None:
        out.problems.append("no_certificate")
        return out
    out.matching_size = len(cert.matching)
    out.lambda6 = lambda6(adjacency(rec.edges), rec.n, len(rec.edges))
    out.problems += matching_problems(rec.n, rec.edges, cert.matching)
    if not cert.valid:
        out.problems.append("certificate_invalid")
    out.output = trace_tuples(cert)
    return out


def _solve_pass(inputs: Inputs, reference: Callable[[], float]):
    results, refs = [], [reference()]
    for rec in inputs.records:
        a = time.perf_counter()
        try:
            cert, problems = solver.solve(rec.graph), []
        except Exception as exc:  # one failed record must not stop the run
            traceback.print_exc()
            cert, problems = None, [f"raised:{type(exc).__name__}"]
        results.append((rec, cert, time.perf_counter() - a, problems))
        refs.append(reference())
    outcomes = [_solved(*r) for r in results]
    return [o.seconds for o in outcomes], refs, outcomes


def _graph6_pass(inputs: Inputs, reference: Callable[[], float]):
    outcomes, refs = [], [reference()]
    for rec in inputs.records:
        a = time.perf_counter()
        line = graphio.write_graph6(rec.graph)
        back = graphio.parse_graph6(line)
        out = Outcome(rec.label, rec.n, len(rec.edges), time.perf_counter() - a, output=[line])
        # checked at once, so that one parsed graph at a time is alive
        if back.n != rec.n or back.edges() != rec.edges:
            out.problems.append("roundtrip_mismatch")
        del back
        outcomes.append(out)
        refs.append(reference())
    return [o.seconds for o in outcomes], refs, outcomes


def _verify_file(path: Path, records: list[Record]) -> tuple[float, list[Outcome]]:
    """``minmatch verify --with-oracle --jobs 1 FILE`` in process, with each
    record's time and solve certificate captured on the way."""
    solved, seconds = [], []
    solve, verify_one = cli.solve, cli._verify_one

    def capture(g):
        try:
            cert = solve(g)
        except Exception:
            solved.append((g, None))
            raise
        solved.append((g, cert))
        return cert

    def timed(payload):
        a = time.perf_counter()
        try:
            return verify_one(payload)
        finally:
            seconds.append(time.perf_counter() - a)

    stdout = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(swapped(cli, "solve", capture))
        stack.enter_context(swapped(cli, "_verify_one", timed))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        t0 = time.perf_counter()
        rc = cli.main(["verify", "--with-oracle", "--jobs", "1", str(path)])
        wall = time.perf_counter() - t0
    lines = stdout.getvalue().splitlines()
    report = json.loads(lines[-1]) if lines else {"total": None, "failures": []}
    flagged = {f["id"] for f in report["failures"]}
    batch_ok = rc == 0 and report["total"] == len(records)
    outcomes = []
    for i, rec in enumerate(records):
        t = seconds[i] if i < len(seconds) else 0.0
        if i >= len(solved):
            outcomes.append(Outcome(rec.label, rec.n, len(rec.edges), t, problems=["not_solved"]))
            continue
        g, cert = solved[i]
        problems = [] if g.edges() == rec.edges else ["parse_mismatch"]
        if f"line:{i + 1}" in flagged:
            problems.append("verify_report_failure")
        if not batch_ok:
            problems.append(f"verify_exit_{rc}")
        outcomes.append(_solved(rec, cert, t, problems))
    return wall, outcomes


def _verify_pass(inputs: Inputs, reference: Callable[[], float]):
    units, refs, outcomes = [], [reference()], []
    for path, records in inputs.files:
        w, o = _verify_file(path, records)
        refs.append(reference())
        units.append(w)
        outcomes += o
    return units, refs, outcomes


PASSES = {
    "cubic_solve": _solve_pass,
    "bridge_chain": _solve_pass,
    "corpus_verify": _verify_pass,
    "graph6_io": _graph6_pass,
}


def run_pass(inputs: Inputs, reference: Callable[[], float]) -> tuple[list[float], list[float], list[Outcome]]:
    """One pass over every input: (seconds of each timed unit, seconds of
    each ``reference()`` call, one more than units, per-record outcomes).
    The units of every pass are the same, in the same order."""
    return PASSES[inputs.workload](inputs, reference)
