import json
from dataclasses import replace

import pytest

from minmatch import cli, matching
from minmatch.cli import main
from minmatch.generators import gen_gk, gen_named, gen_random_cubic
from minmatch.graphio import write_graph6
from minmatch.oracle import OracleResult


def run(capsys, argv, stdin=None, monkeypatch=None):
    """main(argv) with `stdin` (str or bytes) as the bytes behind sys.stdin."""
    if stdin is not None:
        assert monkeypatch is not None
        import io
        import sys as _sys
        data = stdin.encode("utf-8") if isinstance(stdin, str) else stdin
        monkeypatch.setattr(_sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def timeless(out):
    """A verify report without its solve times, which differ from run to run."""
    report = json.loads(out)
    assert set(report.pop("solve_ms")) == {"p50", "p95", "max"}
    return report


def test_solve_k33_line(capsys, monkeypatch):
    line = write_graph6(gen_named("K33"))
    code, out, _ = run(capsys, ["solve"], stdin=line + "\n", monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["matching_size"] == 3
    assert payload["k33_special"] is True


def test_solve_rejects_degree4(capsys, monkeypatch):
    code, out, err = run(capsys, ["solve"], stdin="D~{\n", monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "degree" in err


def test_solve_per_component(capsys, monkeypatch):
    # K2 plus C4 in one graph6 line
    from minmatch.graph import Graph

    g = Graph.from_edges([(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    line = write_graph6(g)
    code, out, _ = run(
        capsys, ["solve", "--per-component"], stdin=line + "\n", monkeypatch=monkeypatch
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["matching_size"] == 3
    assert payload["components"] == 2
    code, _, _ = run(capsys, ["solve"], stdin=line + "\n", monkeypatch=monkeypatch)
    assert code == 2


def test_solve_per_component_sums_component_bounds(capsys, monkeypatch):
    from minmatch.graph import Graph

    g = Graph.from_edges([(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    code, out, _ = run(
        capsys, ["solve", "--per-component"], stdin=write_graph6(g) + "\n", monkeypatch=monkeypatch
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert (payload["n"], payload["m"], payload["n1"], payload["I"], payload["K"]) == (6, 5, 2, 0, 1)
    assert payload["lambda_times_6"] == 6 + 12  # K2 part and C4 part


def test_exact_known_values(capsys, monkeypatch):
    lines = (
        write_graph6(gen_named("K4"))
        + "\n"
        + write_graph6(gen_named("C_n", 9))
        + "\n"
    )
    code, out, _ = run(capsys, ["exact"], stdin=lines, monkeypatch=monkeypatch)
    assert code == 0
    gammas = [json.loads(l)["gamma"] for l in out.strip().splitlines()]
    assert gammas == [2, 3]


def test_exact_g4(capsys, monkeypatch):
    line = write_graph6(gen_gk(4))
    code, out, _ = run(capsys, ["exact"], stdin=line + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out.strip())["gamma"] == 10


def test_exact_budget_exit(capsys, monkeypatch):
    line = write_graph6(gen_gk(3))
    code, out, err = run(
        capsys, ["exact", "--budget", "3"], stdin=line + "\n", monkeypatch=monkeypatch
    )
    assert code == 4
    payload = json.loads(out.strip())
    assert payload["exact"] is False


def test_exact_ignores_budget_environment_variable(capsys, monkeypatch):
    # the node limit is --budget alone; an environment variable sets nothing
    monkeypatch.setenv("MMM_ORACLE_BUDGET", "abc")
    line = write_graph6(gen_gk(3))
    code, out, err = run(capsys, ["exact"], stdin=line + "\n", monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    payload = json.loads(out.strip())
    assert (payload["gamma"], payload["exact"]) == (7, True)


def test_gen_gk3(capsys):
    code, out, _ = run(capsys, ["gen", "--gk", "3"])
    assert code == 0
    from minmatch.graphio import parse_graph6

    g = parse_graph6(out.strip())
    assert g.n == 18 and g.is_cubic()


def test_gen_enumerate_count(capsys):
    code, out, _ = run(capsys, ["gen", "--enumerate", "5"])
    assert code == 0
    from minmatch.generators import enumerate_connected_subcubic

    want = sum(1 for _ in enumerate_connected_subcubic(5))
    assert len(out.strip().splitlines()) == want


def test_gen_random_deterministic(capsys):
    code1, out1, _ = run(capsys, ["gen", "--random-cubic", "50", "7"])
    code2, out2, _ = run(capsys, ["gen", "--random-cubic", "50", "7"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_path(capsys):
    from minmatch.graphio import parse_graph6

    code, out, err = run(capsys, ["gen", "--path", "5"])
    assert code == 0 and err == ""
    assert parse_graph6(out.strip()).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    code, out, err = run(capsys, ["gen", "--path", "0"])
    assert code == 2 and out == ""
    assert "generation error" in err


def test_gen_bad_parameters(capsys):
    code, _, err = run(capsys, ["gen", "--cycle", "2"])
    assert code == 2
    code, _, err = run(capsys, ["gen"])
    assert code == 2


def test_verify_small_batch(capsys, monkeypatch):
    lines = "".join(
        write_graph6(gen_random_cubic(20, seed)) + "\n" for seed in range(8)
    )
    code, out, _ = run(
        capsys, ["verify", "--with-oracle"], stdin=lines, monkeypatch=monkeypatch
    )
    assert code == 0
    report = json.loads(out.strip())
    assert report["total"] == 8 and report["passed"] == 8
    assert report["failures"] == []
    assert report["ratio_stats"]["bound_ratio"]["max"] <= 1.0


def test_verify_chain_family_with_oracle(capsys, monkeypatch):
    lines = "".join(write_graph6(gen_gk(k)) + "\n" for k in range(1, 5))
    code, out, _ = run(
        capsys, ["verify", "--with-oracle"], stdin=lines, monkeypatch=monkeypatch
    )
    assert code == 0
    report = json.loads(out.strip())
    assert report["passed"] == 4 and not report["failures"]


def test_verify_enumerated_corpus_with_oracle(capsys, monkeypatch):
    from minmatch.generators import enumerate_connected_subcubic

    lines = "".join(
        write_graph6(g) + "\n" for g in enumerate_connected_subcubic(5)
    )
    code, out, _ = run(
        capsys, ["verify", "--with-oracle"], stdin=lines, monkeypatch=monkeypatch
    )
    assert code == 0
    report = json.loads(out.strip())
    assert report["total"] == report["passed"] and not report["failures"]


def test_verify_jobs_deterministic(capsys, monkeypatch):
    lines = "".join(
        write_graph6(gen_random_cubic(16, seed)) + "\n" for seed in range(10)
    )
    _, out1, _ = run(capsys, ["verify"], stdin=lines, monkeypatch=monkeypatch)
    _, out2, _ = run(capsys, ["verify", "--jobs", "2"], stdin=lines, monkeypatch=monkeypatch)
    assert timeless(out1) == timeless(out2)


def test_verify_starts_no_more_workers_than_records(capsys, monkeypatch):
    # a fake pool that records its size and chunk size and maps in this
    # process, so the test starts no process; chunks are small enough that
    # every worker gets one
    sizes, chunks = [], []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            chunks.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(cli, "Pool", FakePool)
    for count, jobs in ((3, "64"), (1, "64"), (0, "64"), (20, "4")):
        lines = "".join(write_graph6(gen_random_cubic(16, seed)) + "\n" for seed in range(count))
        _, serial, _ = run(capsys, ["verify"], stdin=lines, monkeypatch=monkeypatch)
        _, pooled, _ = run(capsys, ["verify", "--jobs", jobs], stdin=lines, monkeypatch=monkeypatch)
        assert timeless(pooled) == timeless(serial)
    assert sizes == [3, 4]
    assert chunks == [1, 5]


def test_verify_reports_rule_coverage(capsys, monkeypatch):
    # minmatch gen --random-cubic 32 1 --count 2 | minmatch verify, plus a
    # bad line, which has no trace and counts for no rule
    code, lines, _ = run(capsys, ["gen", "--random-cubic", "32", "1", "--count", "2"])
    assert code == 0
    outs = []
    for jobs in ("1", "2"):
        stdin = lines + "D~{\n"
        _, out, _ = run(capsys, ["verify", "--jobs", jobs], stdin=stdin, monkeypatch=monkeypatch)
        outs.append(out)
    coverage = json.loads(outs[0])["rule_coverage"]
    assert coverage["CUBIC_FINISH"] == 2
    assert list(coverage) == sorted(coverage) and max(coverage.values()) == 2
    assert timeless(outs[0]) == timeless(outs[1])


def test_verify_reports_solve_time_percentiles(capsys, monkeypatch):
    lines = "".join(write_graph6(gen_random_cubic(16, seed)) + "\n" for seed in range(3))
    _, out, _ = run(capsys, ["verify"], stdin=lines, monkeypatch=monkeypatch)
    times = json.loads(out)["solve_ms"]
    assert 0 < times["p50"] <= times["p95"] <= times["max"]
    # by nearest rank over the records solved: 21 solves that take 21..1 ms,
    # and a bad line, which has no solve time; the ranks are ceil(21 p / 100)
    real_solve, taken = cli.solve, iter(range(21, 0, -1))
    monkeypatch.setattr(cli, "solve", lambda g: replace(real_solve(g), elapsed_ms=float(next(taken))))
    lines = "".join(write_graph6(gen_named("C_n", n)) + "\n" for n in range(3, 24)) + "D~{\n"
    code, out, _ = run(capsys, ["verify"], stdin=lines, monkeypatch=monkeypatch)
    report = json.loads(out)
    assert (code, report["total"], report["passed"]) == (2, 22, 21)
    assert report["solve_ms"] == {"p50": 11.0, "p95": 20.0, "max": 21.0}
    # no record solved: every percentile is null
    code, out, _ = run(capsys, ["verify"], stdin="D~{\nD~{\n", monkeypatch=monkeypatch)
    assert code == 2
    assert json.loads(out)["solve_ms"] == {"p50": None, "p95": None, "max": None}


def test_verify_plot_data(tmp_path, capsys, monkeypatch):
    lines = write_graph6(gen_named("K33")) + "\n" + write_graph6(gen_named("CUBE_Q3")) + "\n"
    target = tmp_path / "plot.csv"
    code, _, _ = run(
        capsys,
        ["verify", "--plot-data", str(target)],
        stdin=lines,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    rows = target.read_text().strip().splitlines()
    assert rows[0] == "n,matching_size,lambda,gamma_lower"
    assert len(rows) == 3


def test_verify_unwritable_plot_data_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # the plot file is opened before any record runs: no record is solved,
    # no report is printed
    calls = []
    monkeypatch.setattr(cli, "_verify_one", lambda item: calls.append(item))
    target = tmp_path / "k4.g6"
    target.write_text(write_graph6(gen_named("K4")) + "\n")
    unwritable = tmp_path / "no" / "x.csv"
    code, out, err = run(capsys, ["verify", "--plot-data", str(unwritable), str(target)])
    assert code == 2
    assert out == "" and calls == []
    assert len(err.strip().splitlines()) == 1 and err.startswith("output error:")


def test_verify_edgelist_file(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    target.write_text("0 1\n1 2\n")
    code, out, _ = run(capsys, ["solve", str(target), "--format", "edgelist"])
    assert code == 0
    assert json.loads(out.strip())["matching_size"] == 1


def test_verify_rejects_format_option(tmp_path, capsys):
    # verify reads graph6 only; an edge-list option it would ignore is refused
    target = tmp_path / "tri.txt"
    target.write_text("0 1\n1 2\n0 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "edgelist", str(target)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_verify_checks_maximality_without_the_certifying_scan(tmp_path, capsys, monkeypatch):
    # a solver bug that also broke the shared maximality scan must still show
    # as not_maximal: verify's own check does not go through that scan
    real_solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda g: replace(real_solve(g), matching=frozenset()))
    monkeypatch.setattr(matching, "maximality_status", lambda g, M: 0)
    target = tmp_path / "k4.g6"
    target.write_text(write_graph6(gen_named("K4")) + "\n")
    code, out, _ = run(capsys, ["verify", str(target)])
    assert code == 3
    assert json.loads(out)["failures"] == [{"id": "line:1", "property": "not_maximal"}]


@pytest.mark.parametrize("name, gamma, properties", [
    ("K4", 3, ["oracle_above_solver"]),  # the solver's matching has 2 edges
    ("K4", 1, ["below_lower_bound"]),  # ceil(m / 5) = 2
    ("K33", 2, ["equality_characterization"]),  # only 3 attains 6 gamma = 4n - m + 3
    ("P_n", 2, ["oracle_above_solver", "noncubic_bound"]),  # P_3: 6 * 2 > 4n - m = 10
])
def test_verify_reports_each_oracle_check(name, gamma, properties, tmp_path, capsys, monkeypatch):
    # an oracle that answers a doctored gamma trips exactly these checks
    monkeypatch.setattr(cli, "gamma_exact", lambda g, budget=None: OracleResult(gamma, frozenset(), 0))
    target = tmp_path / "g.g6"
    target.write_text(write_graph6(gen_named(name, 3) if name == "P_n" else gen_named(name)) + "\n")
    code, out, _ = run(capsys, ["verify", "--with-oracle", str(target)])
    assert code == 3
    report = json.loads(out)
    assert report["failures"] == [{"id": "line:1", "property": p} for p in properties]
    assert report["passed"] == 0


def test_missing_input_file_is_one_line_exit_2(capsys):
    code, out, err = run(capsys, ["solve", "/nonexistent/graphs.g6"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "No such file" in err


@pytest.mark.parametrize("command", ["solve", "exact", "verify"])
def test_non_ascii_input_is_one_line_exit_2(tmp_path, capsys, command):
    target = tmp_path / "bad.g6"
    target.write_bytes(b"A_\n\xe9\n")
    code, out, err = run(capsys, [command, str(target)])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "ascii" in err


def test_stdin_decodes_as_a_file_does(tmp_path, capsys, monkeypatch):
    data = "0 \uff11\n".encode("utf-8")  # a fullwidth digit one
    target = tmp_path / "wide.txt"
    target.write_bytes(data)
    argv = ["solve", "--format", "edgelist"]
    from_file = run(capsys, argv + [str(target)])
    from_stdin = run(capsys, argv, stdin=data, monkeypatch=monkeypatch)
    assert from_stdin == from_file
    code, out, err = from_stdin
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("input error:")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reports_bad_lines_per_record(tmp_path, capsys, jobs):
    target = tmp_path / "mixed.g6"
    target.write_text("Bw\n!!\nBw\n>>graph6<<\n")
    code, out, _ = run(capsys, ["verify", "--jobs", jobs, str(target)])
    assert code == 2
    report = json.loads(out)
    assert (report["total"], report["passed"]) == (4, 2)
    assert report["failures"] == [
        {"id": "line:2", "property": "bad_input:MalformedGraph6"},
        {"id": "line:4", "property": "bad_input:MalformedGraph6"},
    ]


# good, malformed, disconnected (K2 + K2), empty, good
MIXED = "Bw\n!!\nC`\n?\nBw\n"


def test_solve_runs_every_record_of_a_mixed_batch(tmp_path, capsys):
    target = tmp_path / "mixed.g6"
    target.write_text(MIXED)
    code, out, err = run(capsys, ["solve", str(target)])
    assert code == 2
    assert [json.loads(l)["n"] for l in out.splitlines()] == [3, 3]
    # one stderr line per failed record: its id and the failure name verify uses
    assert [l.split(": ")[:2] for l in err.splitlines()] == [
        ["line:2", "bad_input:MalformedGraph6"],
        ["line:3", "bad_input:Disconnected"],
        ["line:4", "bad_input:EmptyGraph"],
    ]


def test_exact_runs_every_record_of_a_mixed_batch(tmp_path, capsys):
    # the oracle takes disconnected and empty graphs; only the parse fails
    target = tmp_path / "mixed.g6"
    target.write_text(MIXED)
    code, out, err = run(capsys, ["exact", str(target)])
    assert code == 2
    assert [json.loads(l)["gamma"] for l in out.splitlines()] == [1, 2, 0, 1]
    assert err.splitlines() == ["line:2: bad_input:MalformedGraph6: bad size byte"]


def test_verify_reports_unsolvable_records_as_bad_input(tmp_path, capsys):
    target = tmp_path / "mixed.g6"
    target.write_text(MIXED)
    code, out, _ = run(capsys, ["verify", str(target)])
    assert code == 2
    assert json.loads(out)["failures"] == [
        {"id": "line:2", "property": "bad_input:MalformedGraph6"},
        {"id": "line:3", "property": "bad_input:Disconnected"},
        {"id": "line:4", "property": "bad_input:EmptyGraph"},
    ]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_empty_graph_is_bad_input(tmp_path, capsys, command):
    target = tmp_path / "empty.g6"
    target.write_text("?\n")
    code, _, _ = run(capsys, [command, str(target)])
    assert code == 2


def test_budget_only_batch_exits_4(tmp_path, capsys):
    target = tmp_path / "budget.g6"
    target.write_text("".join(
        write_graph6(g) + "\n"
        for g in (gen_named("K4"), gen_named("PETERSEN"), gen_gk(3))
    ))
    code, out, err = run(capsys, ["exact", "--budget", "3", str(target)])
    assert code == 4
    assert [json.loads(l)["exact"] for l in out.splitlines()] == [True, False, False]
    assert [l.split(": ")[:2] for l in err.splitlines()] == [
        ["line:2", "oracle_budget_exceeded"], ["line:3", "oracle_budget_exceeded"],
    ]
    code, out, _ = run(capsys, ["verify", "--with-oracle", "--budget", "3", str(target)])
    assert code == 4
    assert {f["property"] for f in json.loads(out)["failures"]} == {"oracle_budget_exceeded"}


def test_contract_only_batch_exits_3(tmp_path, capsys, monkeypatch):
    # a solver error on the first record and an invalid certificate on the
    # second: both are contract failures, and the second record still runs
    from minmatch.errors import InternalInvariantViolation

    real_solve = cli.solve

    def broken(g):
        if g.n == 4:
            raise InternalInvariantViolation("broken on purpose")
        return replace(real_solve(g), matching=frozenset(), valid=False)

    monkeypatch.setattr(cli, "solve", broken)
    target = tmp_path / "contract.g6"
    target.write_text(write_graph6(gen_named("K4")) + "\n" + write_graph6(gen_named("K33")) + "\n")
    code, out, err = run(capsys, ["solve", str(target)])
    assert code == 3
    assert [json.loads(l)["valid"] for l in out.splitlines()] == [False]
    assert [l.split(": ")[:2] for l in err.splitlines()] == [
        ["line:1", "solver_error:InternalInvariantViolation"], ["line:2", "certificate_invalid"],
    ]
    code, out, _ = run(capsys, ["verify", str(target)])
    assert code == 3
    assert json.loads(out)["failures"] == [
        {"id": "line:1", "property": "solver_error:InternalInvariantViolation"},
        {"id": "line:2", "property": "certificate_invalid"},
        {"id": "line:2", "property": "not_maximal"},
    ]


def test_edgelist_ids_are_taken_as_given(tmp_path, capsys):
    target = tmp_path / "gap.txt"
    target.write_text("0 2\n")
    code, out, _ = run(capsys, ["solve", str(target), "--format", "edgelist"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["matching"]) == (2, [[0, 2]])


@pytest.mark.parametrize("argv", [
    ["verify", "--jobs", "0"],
    ["verify", "--jobs", "-3"],
])
def test_jobs_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "verify"])
def test_budget_must_be_positive(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--budget", "-1"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_count_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--random-cubic", "8", "1", "--count", "0"])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("command, payloads", [("solve", 2), ("exact", 4), ("verify", 1)])
def test_cli_process_exit_status(tmp_path, command, payloads):
    # the real process, through `sys.exit(main())`: exit status and stderr
    import os
    import subprocess
    import sys
    from pathlib import Path

    import minmatch

    target = tmp_path / "mixed.g6"
    target.write_text(MIXED)
    env = dict(os.environ, PYTHONPATH=str(Path(minmatch.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "minmatch.cli", command, str(target)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout.splitlines()) == payloads


def test_closed_stdout_is_one_output_error():
    # each line is about 330 KB, more than a pipe holds, so the writer meets
    # the closed pipe on every run
    import os
    import subprocess
    import sys
    from pathlib import Path

    import minmatch

    env = dict(os.environ, PYTHONPATH=str(Path(minmatch.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "minmatch.cli", "gen", "--random-cubic", "2000", "1", "--count", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stderr.close()
    assert line.rstrip(b"\n") == write_graph6(gen_random_cubic(2000, 1)).encode()
    assert err.startswith("output error:")
    assert "Traceback" not in err and len(err.splitlines()) == 1
