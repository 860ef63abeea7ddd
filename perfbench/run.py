#!/usr/bin/env python3
"""minmatch benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload cubic_solve --seed 1 --seconds 20 --trace 0

Run from the repository root.  Inputs are generated from the seed before
timing starts.  The run then repeats checked passes over the inputs (see
``workloads``) in one process, one caller, no threads, until the next pass
would end after ``--seconds``; at least one pass always runs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see METRICS.md).
The machine's speed changes from second to second, so every time is set
against the reference chunk (``reference``), which runs between the timed
units of each pass, and is reported in seconds at the reference speed; each
timed unit (a record, or a ``verify`` call) and each record counts with its
median over the passes.  Set-up is timed once before the passes and
``SETUPS_AFTER_PASS`` times after each pass, each time from a clean module
table, so that its samples spread over the whole run; ``setup_s`` is their
median.
Human-readable ``name = value unit`` lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A results file with the environment, every
metric, the output digest and the records of the first pass goes to
``.bench_results/``; a traced run also writes its spans there.  The exit
code is 1 when any record fails its check or the output digest differs
between passes, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import contextlib
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
# Input sizes per workload.  Several inputs of each size, so that the
# metrics do not hang on what one seeded graph happens to be.
SIZES = {
    "cubic_solve": ((500, 8), (1000, 14)),    # (n, graphs)
    "bridge_chain": ((8, 48),),               # (k blobs of 12 vertices, chains)
    "corpus_verify": (6, 32, 24),             # max n of the corpus; n and count of random cubic
    "graph6_io": ((1000, 12),),               # (n, graphs)
}
# Machine speed drifts over seconds, so set-up is sampled between passes
# rather than in one burst; setup_s is the median of all samples.
SETUPS_AFTER_PASS = 2
# Imported anew for each set-up sample: the package and the benchmark's own modules.
SETUP_MODULES = ("minmatch", "workloads", "checks", "tracing")
# end-to-end metrics listed in BENCHMARK.json: reported by every workload, never 0
GATED = ("wall_s", "record_ms_p50", "peak_rss_mb", "setup_s")
RULES = ("BASE_SMALL", "K33_SPECIAL", "DEGREE1", "BRIDGE", "ADJ_DEG2", "DEG2_TWO_DEG3", "CUBIC_FINISH")


def parse_args(argv):
    p = argparse.ArgumentParser(description="minmatch benchmark")
    p.add_argument("--workload", required=True,
                   choices=("cubic_solve", "bridge_chain", "corpus_verify", "graph6_io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def use_sources() -> None:
    """Make the checkout's ``src/minmatch`` importable."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def set_up(args, workdir: Path):
    """Import minmatch and generate the inputs: (inputs, seconds taken)."""
    t0 = time.perf_counter()
    use_sources()
    import workloads

    inputs = workloads.build(args.workload, args.seed, SIZES[args.workload], workdir)
    return inputs, time.perf_counter() - t0


def set_up_again(args, workdir: Path) -> float:
    """Seconds for one more full set-up, imports included: the set-up modules
    are taken out of ``sys.modules``, imported anew with fresh inputs, then
    dropped, and the modules and inputs in use are put back."""
    def own(name):
        return name.split(".")[0] in SETUP_MODULES

    kept = {name: mod for name, mod in sys.modules.items() if own(name)}
    for name in kept:
        del sys.modules[name]
    try:
        with tempfile.TemporaryDirectory(dir=workdir) as scratch:
            return set_up(args, Path(scratch))[1]
    finally:
        for name in [name for name in sys.modules if own(name)]:
            del sys.modules[name]
        sys.modules.update(kept)


@dataclass
class Pass:
    """What one pass leaves behind; its outcomes are dropped, so memory does
    not grow with the number of passes."""

    units: list[float]           # seconds at the reference speed of each timed unit
    record_s: list[float]        # seconds at the reference speed of each record
    raw_wall: float              # seconds the units took, as measured
    reference_s: float           # median seconds of the pass's reference chunks
    attempted: int
    failures: list[tuple[str, list[str]]]
    six_m: int                   # sum of 6|M| over solved records
    lambda6: int                 # sum of lambda_times_6 over solved records
    rule_counts: dict[str, int]
    digest: str
    trace: object | None
    records: list[dict] | None   # first pass only


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` as measured, converted to seconds at the reference speed,
    given what one reference chunk took at the time."""
    return seconds / reference_s * reference.REFERENCE_S


def summarize(units: list[float], refs: list[float], outcomes, trace, keep_records: bool) -> Pass:
    # The median over the pass: one chunk alone is as noisy as one unit.
    ref = statistics.median(refs)
    solved = [o for o in outcomes if o.matching_size is not None]
    rules = dict.fromkeys(RULES, 0)
    for o in solved:
        for step in o.output:
            rules[step[0]] = rules.get(step[0], 0) + 1
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps(o.output, separators=(",", ":")).encode() + b"\n")
    return Pass(
        units=[at_reference_speed(t, ref) for t in units],
        record_s=[at_reference_speed(o.seconds, ref) for o in outcomes],
        raw_wall=sum(units),
        reference_s=ref,
        attempted=len(outcomes),
        failures=[(o.label, o.problems) for o in outcomes if o.problems],
        six_m=sum(6 * o.matching_size for o in solved),
        lambda6=sum(o.lambda6 for o in solved),
        rule_counts=rules,
        digest=h.hexdigest(),
        trace=trace,
        records=[
            {"label": o.label, "n": o.n, "m": o.m, "matching_size": o.matching_size}
            for o in outcomes
        ] if keep_records else None,
    )


def run_passes(inputs, seconds: float, trace: bool, set_up_again) -> tuple[list[Pass], list[Pass], list[float]]:
    """Checked passes, each followed by ``SETUPS_AFTER_PASS`` calls of
    ``set_up_again``, until the next pass would end after ``seconds``;
    untraced and traced passes alternate when ``trace`` is set.  Returns the
    untraced passes, the traced passes and the set-up times at the
    reference speed of the pass before them."""
    import tracing
    import workloads

    kinds = (False, True) if trace else (False,)
    done: dict[bool, list[Pass]] = {False: [], True: []}
    took: dict[bool, list[float]] = {False: [], True: []}
    setup_times = []
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        gc.collect()
        a = time.perf_counter()
        tr = tracing.Trace() if kind else None
        with tracing.traced(tr) if tr else contextlib.nullcontext():
            units, refs, outcomes = workloads.run_pass(inputs, reference.chunk)
        done[kind].append(summarize(units, refs, outcomes, tr, keep_records=i == 0))
        del outcomes
        setup_times += [at_reference_speed(set_up_again(), done[kind][-1].reference_s)
                        for _ in range(SETUPS_AFTER_PASS)]
        took[kind].append(time.perf_counter() - a)
        i += 1
        nxt = kinds[i % len(kinds)]
        if i >= len(kinds) and time.perf_counter() - start + statistics.median(took[nxt]) > seconds:
            return done[False], done[True], setup_times


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def typical(columns) -> list[float]:
    """Per position, the median value over the passes' lists."""
    return [statistics.median(col) for col in zip(*columns)]


def wall(passes: list[Pass]) -> float:
    """Seconds at the reference speed of a pass in which every timed unit
    took its median time."""
    return sum(typical(p.units for p in passes))


def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict:
    """Every end-to-end metric: (value, unit).  Times are in seconds at the
    reference speed, built from each unit's and record's median over the
    passes, and from the median set-up; the ``_raw`` ones are as measured."""
    record_ms = [t * 1000.0 for t in typical(p.record_s for p in passes)]
    metrics = {
        "wall_s": (wall(passes), "s"),
        "record_ms_p50": (statistics.median(record_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "records": (sum(p.attempted for p in passes), "count"),
        "wall_raw_s": (statistics.median(p.raw_wall for p in passes), "s"),
        "reference_raw_s": (statistics.median(p.reference_s for p in passes), "s"),
    }
    if len(record_ms) >= 1000:  # at least 10 records beyond the 99th percentile
        metrics["record_ms_p99"] = (percentile(record_ms, 99), "ms")
    if passes[0].lambda6:
        metrics["matching_ratio"] = (passes[0].six_m / passes[0].lambda6, "ratio")
    failed = sum(len(p.failures) for p in passes)
    metrics["failed_frac"] = (failed / sum(p.attempted for p in passes), "ratio")
    return metrics


def per_layer(untraced: list[Pass], traced: list[Pass], workload: str) -> dict:
    """Every per-layer metric: (value, unit).  Counts come from the first
    traced pass; self times are in seconds at the reference speed, medians
    over traced passes."""
    first = traced[0]
    calls, _ = first.trace.totals()
    self_times = [{g: at_reference_speed(t, p.reference_s) for g, t in p.trace.totals()[1].items()}
                  for p in traced]

    def own(*groups):
        return statistics.median(sum(s.get(g, 0.0) for g in groups) for s in self_times)

    rules = first.rule_counts
    attempted, kept = first.trace.bridge_attempts, rules["BRIDGE"]
    doubling = 0.0
    if workload == "cubic_solve":
        # median time at the largest n over median time at the next smaller n
        by_n: dict[int, list[float]] = {}
        for rec, t in zip(untraced[0].records, typical(p.record_s for p in untraced)):
            by_n.setdefault(rec["n"], []).append(t)
        small, large = sorted(by_n)[-2:]
        doubling = statistics.median(by_n[large]) / statistics.median(by_n[small])
    m = {
        "graph.find_bridges.calls": (calls.get("graph.find_bridges", 0), "count"),
        "graph.find_bridges.self_s": (own("graph.find_bridges"), "s"),
        "graph.connectivity.calls": (calls.get("graph.connectivity", 0), "count"),
        "graph.connectivity.self_s": (own("graph.connectivity"), "s"),
        "graph.cubic_check.self_s": (own("graph.cubic_check"), "s"),
        "graph.undo.self_s": (own("graph.undo"), "s"),
        "graph.subgraph.calls": (calls.get("graph.subgraph", 0), "count"),
        "graph.subgraph.self_s": (own("graph.subgraph"), "s"),
        "matching.maximality_status.calls": (calls.get("matching.maximality_status", 0), "count"),
        "matching.maximality_status.self_s": (own("matching.maximality_status"), "s"),
        "matching.certify.self_s": (own("matching.certify"), "s"),
        "reductions.rule_s": (own("reductions.rule"), "s"),
    }
    for rule in RULES:
        m[f"reductions.steps.{rule}"] = (rules[rule], "count")
    m.update({
        "solver.select_rule.calls": (calls.get("solver.select_rule", 0), "count"),
        "solver.select_rule.self_s": (own("solver.select_rule"), "s"),
        "solver.self_s": (own("solver"), "s"),
        "solver.trace_steps": (sum(rules.values()), "count"),
        "solver.bridge.splits_attempted": (attempted, "count"),
        "solver.bridge.splits_kept": (kept, "count"),
        "solver.bridge.kept_ratio": (kept / attempted if attempted else 0.0, "ratio"),
        "solver.doubling_ratio": (doubling, "ratio"),
        "oracle.gamma_exact.calls": (calls.get("oracle.gamma_exact", 0), "count"),
        "oracle.gamma_exact_avoiding.calls": (calls.get("oracle.gamma_exact_avoiding", 0), "count"),
        "oracle.nodes": (first.trace.oracle_nodes, "count"),
        "oracle.self_s": (own("oracle.gamma_exact", "oracle.gamma_exact_avoiding"), "s"),
    })
    for g in ("graphio.parse_graph6", "graphio.write_graph6"):
        m[f"{g}.calls"] = (calls.get(g, 0), "count")
        m[f"{g}.self_s"] = (own(g), "s")
        m[f"{g}.bytes"] = (first.trace.bytes[g], "bytes")
    m["cli.self_s"] = (own("cli"), "s")
    m["trace.overhead_frac"] = (wall(traced) / wall(untraced) - 1.0, "ratio")
    return m


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "seed": args.seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        # the ceiling keeps git from taking up a repository above the checkout
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "minmatch" / "__init__.py").is_file():
        print(f"minmatch sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        inputs, setup_s = set_up(args, Path(workdir))
        untraced, traced, setup_times = run_passes(
            inputs, args.seconds, bool(args.trace), lambda: set_up_again(args, Path(workdir)))
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    setup_times = [at_reference_speed(setup_s, untraced[0].reference_s)] + setup_times
    e2e = end_to_end(untraced, setup_times)
    layers = per_layer(untraced, traced, args.workload) if args.trace else {}
    digest = untraced[0].digest
    # the same inputs must give the same certificates on every pass
    digests_agree = len({p.digest for p in passes}) == 1
    correct = not failures and digests_agree

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(untraced)} untraced "
          f"and {len(traced)} traced passes of {untraced[0].attempted} records")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"digest = {digest}")
    for label, problems in failures[:20]:
        print(f"FAILED {label}: {','.join(problems)}", file=sys.stderr)
    if not digests_agree:
        print("FAILED: output digests differ between passes", file=sys.stderr)

    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "environment": environment(args),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        # per untraced pass: timed seconds at the reference speed, as measured, reference chunk
        "pass_seconds": [[sum(p.units), p.raw_wall, p.reference_s] for p in untraced],
        "setup_samples_s": setup_times,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:100],
        "digest": digest,
        "digests_agree": digests_agree,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **layers}.items()},
        "records": untraced[0].records,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        spans = [p.trace.spans() for p in traced]
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans, separators=(",", ":")))

    shown = layers if args.trace else {k: e2e[k] for k in GATED}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
