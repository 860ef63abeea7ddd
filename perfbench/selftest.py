#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, checks that each prints
every metric of BENCHMARK.json with its unit, and checks that corrupted
outputs are counted as failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest

import run
from tracing import swapped

run.use_sources()

TINY = {
    "cubic_solve": ((20, 2), (40, 1)),
    "bridge_chain": ((2, 2), (3, 1)),
    "corpus_verify": (4, 12, 2),
    "graph6_io": ((60, 2),),
}


def bench(workload: str, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), swapped(run, "SIZES", TINY):
        rc = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                       "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return rc, lines, json.loads(lines[-1])


def printed(lines, name: str) -> tuple[float, str] | None:
    """(value, unit) of the ``name = value unit`` line, if printed."""
    for line in lines:
        if line.startswith(name + " = "):
            _, _, value, unit = line.split()
            return float(value), unit
    return None


def unit_of(lines, name: str) -> str | None:
    found = printed(lines, name)
    return found and found[1]


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_every_metric_with_its_unit(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    rc, lines, result = bench(workload, trace)
                    self.assertEqual(rc, 0)
                    self.assertEqual((result["correct"], result["failed"]), (True, 0))
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertEqual(unit_of(lines, name), unit, name)
                    # the end-to-end lines outside the gated set
                    self.assertEqual(unit_of(lines, "failed_frac"), "ratio")
                    self.assertEqual(unit_of(lines, "records"), "count")
                    self.assertEqual(unit_of(lines, "wall_raw_s"), "s")
                    self.assertEqual(unit_of(lines, "reference_raw_s"), "s")
                    # tiny passes hold fewer than 1000 records: no p99
                    self.assertIsNone(unit_of(lines, "record_ms_p99"))
                    solves = workload != "graph6_io"
                    self.assertEqual(unit_of(lines, "matching_ratio"), "ratio" if solves else None)
                    digest = [line for line in lines if line.startswith("digest = ")]
                    self.assertEqual(len(digest), 1)

    def test_gated_metrics_match_benchmark_json(self):
        self.assertEqual(tuple(m["name"] for m in self.spec["end_to_end"]), run.GATED)

    def test_corrupted_matching_is_a_failure(self):
        from minmatch import cli, solver

        def dropping_one_edge(real):
            def solve(g):
                cert = real(g)
                cert.matching = frozenset(sorted(cert.matching)[1:])
                return cert
            return solve

        for workload, owner in (("cubic_solve", solver), ("corpus_verify", cli)):
            with self.subTest(workload=workload):
                with swapped(owner, "solve", dropping_one_edge(owner.solve)):
                    rc, lines, result = bench(workload, 0)
                self.assertEqual(rc, 1)
                self.assertFalse(result["correct"])
                # K1 has an empty matching, which the corruption leaves alone
                self.assertGreaterEqual(result["failed"], result["attempted"] - 1)
                self.assertGreater(printed(lines, "failed_frac")[0], 0.9)

    def test_digest_differing_between_passes_is_a_failure(self):
        import itertools

        import workloads

        count = itertools.count()
        real = workloads.trace_tuples
        # two passes (one untraced, one traced) whose outputs differ
        with swapped(workloads, "trace_tuples", lambda cert: [step + [next(count)] for step in real(cert)]):
            rc, _, result = bench("cubic_solve", 1)
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_matching_problems(self):
        from checks import matching_problems

        p6 = [(i, i + 1) for i in range(5)]
        self.assertEqual(matching_problems(6, p6, [(1, 2), (3, 4)]), [])
        self.assertEqual(matching_problems(6, p6, [(0, 1), (2, 3), (4, 5)]), ["over_bound"])
        self.assertIn("edge_not_in_graph", matching_problems(6, p6, [(0, 2), (3, 4)]))
        self.assertIn("not_disjoint", matching_problems(6, p6, [(1, 2), (2, 3), (4, 5)]))
        self.assertIn("not_maximal", matching_problems(6, p6, [(1, 2)]))
        k33 = [(i, j) for i in range(3) for j in range(3, 6)]
        self.assertEqual(matching_problems(6, k33, [(0, 3), (1, 4), (2, 5)]), [])

    def test_bridge_chain(self):
        import random

        import workloads
        from checks import adjacency, bridge_count

        g = workloads.bridge_chain(5, random.Random(11))
        self.assertEqual((g.n, g.m), (60, 5 * 17 + 4))
        self.assertEqual(bridge_count(adjacency(g.edges())), 4)
        # these seeds draw a blob that removing the edge cuts apart
        sizes = run.SIZES["bridge_chain"]
        for seed in (6, 8):
            inputs = workloads.build("bridge_chain", seed, sizes, None)
            self.assertEqual(len(inputs.records), sum(count for _, count in sizes))

    def test_percentile(self):
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 99), 990)
        self.assertEqual(run.percentile(values, 50), 500)


if __name__ == "__main__":
    unittest.main()
