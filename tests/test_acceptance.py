"""Acceptance suite: every deliverable criterion, one test each.

Each test prints one PASS/FAIL line (visible under pytest -s); assertions
carry the first few offending instances.  The exhaustive small-graph pass is
shared by the three criteria that walk the same corpus.
"""

import random
import time

import pytest

from conftest import enumerate_maximal_matchings, gen_gk_optimal_matching, random_connected_subcubic
from minmatch.generators import (
    enumerate_connected_subcubic,
    gen_gk,
    gen_named,
    gen_random_cubic,
)
from minmatch.graph import edge, is_k33
from minmatch.graphio import parse_graph6, write_graph6
from minmatch.matching import gamma_lower_bound, is_maximal, matching_within_bound
from minmatch.oracle import gamma_exact
from minmatch.solver import PendantConstraint, solve, solve_avoiding


def report(num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {desc}")
    assert not failures, f"criterion {num} failures (first 5): {failures[:5]}"


@pytest.fixture(scope="module")
def small_corpus_results():
    """One streaming pass over all connected subcubic labeled graphs, n <= 7."""
    res = {
        "total": 0,
        "solve_failures": [],
        "equality_failures": [],
        "roundtrip_failures": [],
    }
    for n in range(1, 8):
        for g in enumerate_connected_subcubic(n):
            res["total"] += 1
            ident = (n, tuple(g.edges()))
            cert = solve(g)
            if not (
                cert.valid
                and is_maximal(g, cert.matching)
                and matching_within_bound(g, cert.matching, cert.bound)
            ):
                res["solve_failures"].append(ident)
            gamma = gamma_exact(g).gamma
            attains = 6 * gamma == 4 * g.n - g.m + 3
            if attains != is_k33(g):
                res["equality_failures"].append(ident)
            if not g.is_cubic() and 6 * gamma > 4 * g.n - g.m:
                res["equality_failures"].append(ident)
            if parse_graph6(write_graph6(g)) != g:
                res["roundtrip_failures"].append(ident)
    return res


def test_criterion_1_exhaustive_soundness(small_corpus_results):
    res = small_corpus_results
    assert res["total"] > 150_000  # full labeled corpus, not a sample
    report(
        1,
        f"exhaustive soundness over {res['total']} graphs (n <= 7)",
        res["solve_failures"],
    )


def test_criterion_2_equality_characterization(small_corpus_results):
    report(
        2,
        "gamma attains (4n-m+3)/6 exactly on K33; non-cubic stays below (4n-m)/6",
        small_corpus_results["equality_failures"],
    )


def test_criterion_3_extremal_family():
    failures = []
    t0 = time.perf_counter()
    for k, want in ((1, 3), (2, 5), (3, 7), (4, 10)):
        got = gamma_exact(gen_gk(k)).gamma
        if got != want:
            failures.append(("gamma", k, got, want))
    oracle_elapsed = time.perf_counter() - t0
    if oracle_elapsed >= 60.0:
        failures.append(("oracle_runtime", oracle_elapsed))
    for k in range(1, 21):
        M = gen_gk_optimal_matching(k)
        want = -(-7 * k // 3)
        if len(M) != want or not is_maximal(gen_gk(k), M):
            failures.append(("pattern", k, len(M)))
        if 3 * want > 7 * k + 2:  # ceil(7k/3) <= 7(6k)/18 + 2/3 in thirds
            failures.append(("asymptotic", k))
    report(3, f"chain family values 3,5,7,10 and patterns (oracle {oracle_elapsed:.1f}s)", failures)


def test_criterion_4_known_values():
    failures = []
    if gamma_exact(gen_named("K33")).gamma != 3:
        failures.append("K33")
    if gamma_exact(gen_named("K4")).gamma != 2:
        failures.append("K4")
    if gamma_exact(gen_named("K2")).gamma != 1:
        failures.append("K2")
    for n in range(3, 16):
        if gamma_exact(gen_named("C_n", n)).gamma != -(-n // 3):
            failures.append(f"C{n}")
    report(4, "gamma spot checks: K33, K4, K2, cycles 3..15", failures)


def test_criterion_5_approximation_ratio():
    failures = []
    sizes = [10, 20, 50, 100]
    for i in range(1000):
        n = sizes[i % 4]
        g = gen_random_cubic(n, seed=31_000 + i)
        M = solve(g).matching
        if 12 * len(M) > 5 * n + 6:
            failures.append(("absolute", n, i))
        low = -(-3 * n // 10)
        if 54 * len(M) > 75 * low + 90:
            failures.append(("ratio_vs_lower", n, i))
        if n <= 16:
            gamma = gamma_exact(g).gamma
            if 54 * len(M) > 75 * gamma + 90:
                failures.append(("ratio_vs_gamma", n, i))
    report(5, "1000 random cubic graphs: |M| <= 5n/12 + 1/2 and 25/18-ratio", failures)


def test_criterion_6_randomized_soundness_and_coverage():
    failures = []
    seen_bridge = seen_degree1 = seen_avoidance = 0
    for i in range(10_000):
        rng = random.Random(60_000 + i)
        n = rng.randrange(8, 201)
        g = gen_random_cubic(n + (n % 2), seed=61_000 + i)
        cert = solve(g)
        if not cert.valid:
            failures.append(("cubic", i))
        for s in cert.trace:
            if s.rule == "BRIDGE":
                seen_bridge += 1
            elif s.rule == "DEGREE1":
                seen_degree1 += 1
                if s.variant == "anchored":
                    seen_avoidance += 1
    for i in range(2_000):
        rng = random.Random(90_000 + i)
        n = rng.randrange(8, 201)
        g = random_connected_subcubic(n, 91_000 + i, deletions=rng.randint(1, 3))
        cert = solve(g)
        if not cert.valid:
            failures.append(("subcubic", i))
        for s in cert.trace:
            if s.rule == "BRIDGE":
                seen_bridge += 1
            elif s.rule == "DEGREE1":
                seen_degree1 += 1
                if s.variant == "anchored":
                    seen_avoidance += 1
    if not seen_bridge:
        failures.append("no BRIDGE coverage")
    if not seen_degree1:
        failures.append("no DEGREE1 coverage")
    if not seen_avoidance:
        failures.append("no pendant-avoidance coverage")
    report(
        6,
        "12000 random graphs valid "
        f"(coverage: bridge x{seen_bridge}, degree1 x{seen_degree1}, avoid x{seen_avoidance})",
        failures,
    )


def test_criterion_7_pendant_avoidance():
    failures = []
    built = 0
    i = 0
    while built < 500:
        rng = random.Random(120_000 + i)
        i += 1
        n = rng.choice([8, 10, 14, 20, 30, 40, 60])
        g = gen_random_cubic(n, seed=121_000 + i)
        v = rng.choice(g.vertices())
        nbrs = sorted(g.neighbors(v))
        g.remove_edge(v, nbrs[0])
        g.remove_edge(v, nbrs[1])
        if not g.is_connected():
            continue
        built += 1
        pendant_edge = edge(v, nbrs[2])
        cert = solve_avoiding(g, PendantConstraint(v, pendant_edge))
        if pendant_edge in cert.matching or not cert.valid:
            failures.append(i)
    report(7, "500 pendant graphs: avoiding solve valid and excludes the edge", failures)


def test_criterion_8_complexity_scaling():
    failures = []
    times = {}
    for n in (2000, 4000, 8000):
        g = gen_random_cubic(n, seed=42)
        runs = 2 if n < 8000 else 1
        best = float("inf")
        for _ in range(runs):
            t0 = time.perf_counter()
            cert = solve(g)
            best = min(best, time.perf_counter() - t0)
            if not cert.valid:
                failures.append(("invalid", n))
        times[n] = best
    if times[4000] / times[2000] > 5.0:
        failures.append(("ratio_2k_4k", times[4000] / times[2000]))
    if times[8000] / times[4000] > 5.0:
        failures.append(("ratio_4k_8k", times[8000] / times[4000]))
    if times[8000] >= 30.0:
        failures.append(("absolute_8k", times[8000]))
    report(
        8,
        "runtime scaling "
        + ", ".join(f"n={n}: {t:.2f}s" for n, t in times.items()),
        failures,
    )


def test_criterion_9_oracle_self_consistency():
    failures = []

    def check(g, ident):
        res = gamma_exact(g)
        if g.n <= 10:
            mats = enumerate_maximal_matchings(g)
            if mats and res.gamma != min(len(M) for M in mats):
                failures.append(("enum", ident))
            if not mats and res.gamma != 0:
                failures.append(("enum_empty", ident))
        if gamma_lower_bound(g) > res.gamma:
            failures.append(("lower", ident))

    for n in range(1, 7):
        for g in enumerate_connected_subcubic(n):
            check(g, (n, tuple(g.edges())))
    picked = 0
    for g in enumerate_connected_subcubic(7):
        if picked >= 3000:
            break
        picked += 1
        check(g, ("n7", picked))
    for name in ("K2", "K4", "K33", "K33_MINUS", "PETERSEN", "CUBE_Q3"):
        check(gen_named(name), name)
    for i in range(300):
        g = random_connected_subcubic(10, 130_000 + i, deletions=i % 3)
        check(g, ("rand", i))
    report(9, "oracle equals enumeration minimum; lower bound admissible", failures)


def test_criterion_10_graph6_roundtrip(small_corpus_results):
    failures = list(small_corpus_results["roundtrip_failures"])
    for name in ("K2", "K4", "K33", "K33_MINUS", "PETERSEN", "CUBE_Q3"):
        g = gen_named(name)
        if parse_graph6(write_graph6(g)) != g:
            failures.append(name)
    for k in (1, 2, 3, 7):
        g = gen_gk(k)
        if parse_graph6(write_graph6(g)) != g:
            failures.append(f"G{k}")
    report(10, "graph6 write-parse identity on corpus and generators", failures)
