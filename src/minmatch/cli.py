"""Command-line surface: solve, exact oracle, generation, batch verification.

stdout carries machine-readable payload only (NDJSON or graph6 lines);
diagnostics go to stderr.  Exit codes: 0 success, 2 bad input or parameters,
3 contract violation, 4 oracle budget exhausted.  An input that cannot be
read (a missing file, a non-ASCII byte, from a file or from stdin alike) is
one line on stderr and exit 2.
``verify`` reports each line on its own: a line that does not parse is a
``bad_input:<ErrorClass>`` failure and the other lines still run; the exit
code is 2 if any line was bad input, otherwise 3 on any failure, otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from multiprocessing import Pool

from .errors import BudgetExceeded, Disconnected, MinmatchError
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

# what reading and parsing an input can raise; each is reported as bad input
_INPUT_ERRORS = (MinmatchError, OSError, UnicodeDecodeError)


def _read_text(path: str | None) -> str:
    """The input's bytes decoded as strict ASCII, from stdin as from a file."""
    if path is None or path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return data.decode("ascii")


def _input_graphs(path: str | None, fmt: str) -> list[tuple[str, Graph]]:
    """(identifier, graph) pairs; graph6 is one graph per line."""
    text = _read_text(path)
    if fmt == "edgelist":
        return [("edgelist:1", parse_edgelist(text))]
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        out.append((f"line:{lineno}", parse_graph6(line)))
    return out


def cmd_solve(args) -> int:
    try:
        graphs = _input_graphs(args.path, args.format)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    all_valid = True
    for ident, g in graphs:
        try:
            if args.per_component:
                payload = certificate_dict(solve_all(g))
            else:
                payload = certificate_dict(solve(g))
        except Disconnected:
            print(f"{ident}: disconnected input (use --per-component)", file=sys.stderr)
            return EXIT_INPUT
        except MinmatchError as exc:
            print(f"{ident}: {exc}", file=sys.stderr)
            return EXIT_CONTRACT
        print(json.dumps(payload, separators=(",", ":")))
        all_valid = all_valid and payload["valid"]
    return EXIT_OK if all_valid else EXIT_CONTRACT


def cmd_exact(args) -> int:
    try:
        graphs = _input_graphs(args.path, args.format)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for ident, g in graphs:
        try:
            res = gamma_exact(g, budget=args.budget)
        except BudgetExceeded as exc:
            print(f"{ident}: {exc}", file=sys.stderr)
            if exc.result is not None:
                print(json.dumps(_exact_dict(g, exc.result), separators=(",", ":")))
            return EXIT_BUDGET
        print(json.dumps(_exact_dict(g, res), separators=(",", ":")))
    return EXIT_OK


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


def cmd_gen(args) -> int:
    try:
        graphs: list[Graph] = []
        if args.k2:
            graphs.append(gen_named("K2"))
        if args.k4:
            graphs.append(gen_named("K4"))
        if args.k33:
            graphs.append(gen_named("K33"))
        if args.k33_minus:
            graphs.append(gen_named("K33_MINUS"))
        if args.petersen:
            graphs.append(gen_named("PETERSEN"))
        if args.cube:
            graphs.append(gen_named("CUBE_Q3"))
        if args.cycle is not None:
            graphs.append(gen_named("C_n", args.cycle))
        if args.path_n is not None:
            graphs.append(gen_named("P_n", args.path_n))
        if args.gk is not None:
            graphs.append(gen_gk(args.gk).graph)
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
        if not cert.valid:
            failures.append("certificate_invalid")
        # a maximal matching by g.edges() alone, not the scan behind `valid`
        edges, ends = set(g.edges()), [v for e in cert.matching for v in e]
        covered = set(ends)
        if not (cert.matching <= edges and len(covered) == len(ends)
                and all(u in covered or v in covered for u, v in edges)):
            failures.append("not_maximal")
        trace_rules = {s.rule for s in cert.trace}
        record["rules"] = sorted(trace_rules)
    except Disconnected:
        failures.append("disconnected")
        cert = None
    except MinmatchError as exc:
        failures.append(f"solver_error:{type(exc).__name__}")
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
    try:
        text = _read_text(args.path)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    work = [
        (f"line:{i}", line, args.with_oracle, args.budget)
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    try:
        if args.jobs > 1:
            with Pool(args.jobs) as pool:
                records = list(pool.imap(_verify_one, work, chunksize=16))
        else:
            records = [_verify_one(item) for item in work]
    except MinmatchError as exc:
        print(f"verify error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = _batch_report(records)
    if args.plot_data:
        with open(args.plot_data, "w", encoding="ascii") as fh:
            fh.write("n,matching_size,lambda,gamma_lower\n")
            for r in records:
                if "matching_size" in r:
                    fh.write(
                        f"{r['n']},{r['matching_size']},"
                        f"{r['lambda_times_6'] / 6.0},{r['gamma_lower']}\n"
                    )
    print(json.dumps(report, separators=(",", ":")))
    if any(f["property"].startswith("bad_input:") for f in report["failures"]):
        return EXIT_INPUT
    return EXIT_OK if not report["failures"] else EXIT_CONTRACT


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
    }


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
    p.add_argument("--budget", type=int, default=None, help="oracle node limit")
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
    p.add_argument("--count", type=int, default=1, help="graphs per --random-cubic")
    p.add_argument("--enumerate", type=int, metavar="N")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="batch verification report (JSON)")
    p.add_argument("path", nargs="?", help="graph6 input file (default: stdin)")
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--plot-data", metavar="FILE")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
