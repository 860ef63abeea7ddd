"""Command-line surface: solve, exact oracle, generation, batch verification.

stdout carries payload only (NDJSON or graph6 lines); diagnostics go to
stderr.  An unreadable input (a missing file, a non-ASCII byte, from a file
or stdin alike) is one stderr line, exit 2, and no record runs; so is a
``verify --plot-data`` file that cannot be opened (``output error:``).
Otherwise every record runs: the whole edge list, or each non-blank graph6
line (``line:N``).  ``solve`` and ``exact`` print a record's payload before
they parse the next, and a failed record is one stderr line naming its id;
``verify`` lists failures in its report.  All three exit 2 if any record was
bad input (it does not parse, or is disconnected or empty for ``solve``),
else 3 if any broke the contract, else 4 if an oracle budget ran out, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext
from multiprocessing import Pool

from .errors import BudgetExceeded, Disconnected, EmptyGraph, MinmatchError
from .generators import (
    enumerate_connected_subcubic,
    gen_gk,
    gen_named,
    gen_random_cubic,
)
from .graph import Graph, is_k33
from .graphio import certificate_dict, parse_edgelist, parse_graph6, write_graph6
from .matching import gamma_lower_bound
from .oracle import gamma_exact
from .solver import solve, solve_all

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3
EXIT_BUDGET = 4


def _records(path: str | None, fmt: str) -> list[tuple[str, str]] | None:
    """(identifier, text) per record: the whole input for an edge list, each
    non-blank line for graph6.  The input is read whole and decoded as strict
    ASCII, from stdin as from a file; if that fails, one `input error:` line
    goes to stderr and None comes back."""
    try:
        if path is None or path == "-":
            text = sys.stdin.buffer.read().decode("ascii")
        else:
            with open(path, "rb") as fh:
                text = fh.read().decode("ascii")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return None
    if fmt == "edgelist":
        return [("edgelist:1", text)]
    return [
        (f"line:{i}", line)
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def _failure(exc: MinmatchError) -> str:
    """A record's failure name for an error that solving or the oracle raised;
    a graph that solve and solve_all cannot take is bad input."""
    if isinstance(exc, BudgetExceeded):
        return "oracle_budget_exceeded"
    kind = "bad_input" if isinstance(exc, (Disconnected, EmptyGraph)) else "solver_error"
    return f"{kind}:{type(exc).__name__}"


def _exit_code(failures) -> int:
    """The one exit code policy, from the failure names of a batch's records:
    2 if any was bad input, else 3 if any broke the contract, else 4 if an
    oracle budget ran out, else 0."""
    kinds = {f.split(":")[0] for f in failures}
    if "bad_input" in kinds:
        return EXIT_INPUT
    if kinds - {"oracle_budget_exceeded"}:
        return EXIT_CONTRACT
    return EXIT_BUDGET if kinds else EXIT_OK


def _run_records(args, run) -> int:
    """Parse each record and print what `run(g)` makes of it before the next.

    `run` returns (payload or None, failure name or None), or raises.  A
    failed record is one stderr line: its id, failure name and message.
    """
    records = _records(args.path, args.format)
    if records is None:
        return EXIT_INPUT
    parse = parse_edgelist if args.format == "edgelist" else parse_graph6
    failures = []
    for ident, text in records:
        g = payload = failure = None
        try:
            g = parse(text)
            payload, failure = run(g)
        except MinmatchError as exc:
            name = _failure(exc) if g is not None else f"bad_input:{type(exc).__name__}"
            failure = f"{name}: {exc}"
        if payload is not None:
            print(json.dumps(payload, separators=(",", ":")))
        if failure is not None:
            print(f"{ident}: {failure}", file=sys.stderr)
            failures.append(failure)
    return _exit_code(failures)


def cmd_solve(args) -> int:
    def run(g):
        payload = certificate_dict(solve_all(g) if args.per_component else solve(g))
        return payload, None if payload["valid"] else "certificate_invalid"

    return _run_records(args, run)


def cmd_exact(args) -> int:
    def run(g):
        try:
            return _exact_dict(g, gamma_exact(g, budget=args.budget)), None
        except BudgetExceeded as exc:
            return _exact_dict(g, exc.result), f"{_failure(exc)}: {exc}"

    return _run_records(args, run)


def _exact_dict(g: Graph, res) -> dict:
    return {
        "schema": 1,
        "n": g.n,
        "m": g.m,
        "gamma": res.gamma,
        "witness": sorted([u, v] for u, v in res.witness),
        "nodes_explored": res.nodes_explored,
        "exact": res.exact,
    }


# gen's flags for named graphs, in output order
_NAMED = (("k2", "K2"), ("k4", "K4"), ("k33", "K33"), ("k33_minus", "K33_MINUS"),
          ("petersen", "PETERSEN"), ("cube", "CUBE_Q3"))


def cmd_gen(args) -> int:
    try:
        graphs = [gen_named(name) for flag, name in _NAMED if getattr(args, flag)]
        if args.cycle is not None:
            graphs.append(gen_named("C_n", args.cycle))
        if args.path_n is not None:
            graphs.append(gen_named("P_n", args.path_n))
        if args.gk is not None:
            graphs.append(gen_gk(args.gk))
        if args.random_cubic is not None:
            n, seed = args.random_cubic
            for i in range(args.count):
                graphs.append(gen_random_cubic(n, seed + i))
        if args.enumerate is not None:
            for g in enumerate_connected_subcubic(args.enumerate):
                print(write_graph6(g))
        elif not graphs:
            print("no family selected", file=sys.stderr)
            return EXIT_INPUT
        for g in graphs:
            print(write_graph6(g))
    except MinmatchError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _verify_one(payload) -> dict:
    """Solve and check one graph6 line.  gamma_exact runs again where solve's
    base case ran it (n <= 9): gamma must not come from the solver's output,
    or `oracle_above_solver` would compare a number with itself."""
    ident, line, with_oracle, budget = payload
    try:
        g = parse_graph6(line)
    except MinmatchError as exc:
        return {"id": ident, "failures": [f"bad_input:{type(exc).__name__}"]}
    failures = []
    record: dict = {"id": ident, "n": g.n, "m": g.m}
    try:
        cert = solve(g)
        record["matching_size"] = len(cert.matching)
        record["lambda_times_6"] = cert.bound.lambda_times_6
        record["gamma_lower"] = gamma_lower_bound(g)
        record["solve_ms"] = cert.elapsed_ms
        if not cert.valid:
            failures.append("certificate_invalid")
        # a maximal matching by g.edges() alone, not the scan behind `valid`
        edges, ends = set(g.edges()), [v for e in cert.matching for v in e]
        covered = set(ends)
        if not (cert.matching <= edges and len(covered) == len(ends)
                and all(u in covered or v in covered for u, v in edges)):
            failures.append("not_maximal")
        record["rules"] = sorted({s.rule for s in cert.trace})
    except MinmatchError as exc:
        failures.append(_failure(exc))
        cert = None
    if with_oracle and cert is not None:
        try:
            res = gamma_exact(g, budget=budget)
            gamma = res.gamma
            record["gamma"] = gamma
            if gamma > len(cert.matching):
                failures.append("oracle_above_solver")
            if gamma < gamma_lower_bound(g):
                failures.append("below_lower_bound")
            attains = 6 * gamma == 4 * g.n - g.m + 3
            if attains != is_k33(g):
                failures.append("equality_characterization")
            if not g.is_cubic() and 6 * gamma > 4 * g.n - g.m:
                failures.append("noncubic_bound")
        except BudgetExceeded:
            failures.append("oracle_budget_exceeded")
    record["failures"] = failures
    return record


def cmd_verify(args) -> int:
    records = _records(args.path, "graph6")
    if records is None:
        return EXIT_INPUT
    try:  # before any record runs
        plot = open(args.plot_data, "w", encoding="ascii") if args.plot_data else nullcontext()
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    with plot:
        work = [(ident, line, args.with_oracle, args.budget) for ident, line in records]
        jobs = min(args.jobs, len(work))  # no idle workers on a short input
        if jobs > 1:
            chunk = min(16, -(-len(work) // jobs))  # every worker gets a chunk
            with Pool(jobs) as pool:
                records = list(pool.imap(_verify_one, work, chunksize=chunk))
        else:
            records = [_verify_one(item) for item in work]
        if args.plot_data:
            plot.write("n,matching_size,lambda,gamma_lower\n")
            plot.writelines(
                f"{r['n']},{r['matching_size']},{r['lambda_times_6'] / 6.0},{r['gamma_lower']}\n"
                for r in records if "matching_size" in r
            )
    report = _batch_report(records)
    print(json.dumps(report, separators=(",", ":")))
    return _exit_code(f["property"] for f in report["failures"])


def _batch_report(records) -> dict:
    failures = [
        {"id": r["id"], "property": f}
        for r in records
        for f in r["failures"]
    ]
    bound_ratios = [
        6.0 * r["matching_size"] / r["lambda_times_6"]
        for r in records
        if r.get("lambda_times_6")
    ]
    lower_ratios = [
        r["matching_size"] / r["gamma_lower"]
        for r in records
        if r.get("gamma_lower")
    ]
    coverage = Counter(rule for r in records for rule in r.get("rules", ()))
    solve_ms = sorted(r["solve_ms"] for r in records if "solve_ms" in r)

    def rank(p):  # nearest rank: the least value with at least p % of them at or below it
        return solve_ms[-(-p * len(solve_ms) // 100) - 1] if solve_ms else None

    def stats(vals):
        if not vals:
            return {"min": None, "mean": None, "max": None}
        return {
            "min": min(vals),
            "mean": sum(vals) / len(vals),
            "max": max(vals),
        }

    return {
        "schema": 1,
        "total": len(records),
        "passed": sum(1 for r in records if not r["failures"]),
        "failures": failures,
        "ratio_stats": {
            "bound_ratio": stats(bound_ratios),
            "lower_ratio": stats(lower_ratios),
        },
        "rule_coverage": dict(sorted(coverage.items())),  # records whose trace used each rule
        "solve_ms": {"p50": rank(50), "p95": rank(95), "max": rank(100)},  # over the records solved
    }


def _positive(text: str) -> int:
    """argparse type for a count or limit: an integer of at least 1."""
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmatch",
        description="Certified small maximal matchings in subcubic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("path", nargs="?", help="input file (default: stdin)")
        p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")

    p = sub.add_parser("solve", help="solve and emit certificates (NDJSON)")
    add_io(p)
    p.add_argument("--per-component", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="exact minimum maximal matching")
    add_io(p)
    p.add_argument("--budget", type=_positive, default=None, help="oracle node limit")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("gen", help="emit graph6 lines for generated graphs")
    p.add_argument("--k2", action="store_true")
    p.add_argument("--k4", action="store_true")
    p.add_argument("--k33", action="store_true")
    p.add_argument("--k33-minus", action="store_true")
    p.add_argument("--petersen", action="store_true")
    p.add_argument("--cube", action="store_true")
    p.add_argument("--cycle", type=int, metavar="N")
    p.add_argument("--path", dest="path_n", type=int, metavar="N")
    p.add_argument("--gk", type=int, metavar="K")
    p.add_argument("--random-cubic", nargs=2, type=int, metavar=("N", "SEED"))
    p.add_argument("--count", type=_positive, default=1, help="graphs per --random-cubic")
    p.add_argument("--enumerate", type=int, metavar="N")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="batch verification report (JSON)")
    p.add_argument("path", nargs="?", help="graph6 input file (default: stdin)")
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--budget", type=_positive, default=None)
    p.add_argument("--plot-data", metavar="FILE")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
