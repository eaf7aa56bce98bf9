"""Smoke tests of the reproduction scripts, run as a user would run them."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from icmax.cli import main
from icmax.graphs import largest_connected_component, load_edge_list

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv], capture_output=True, text=True
    )


def assert_one_error_line(proc, *fragments):
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error: " in line]
    assert len(errors) == 1 and all(f in errors[0] for f in fragments), proc.stderr


def test_reproduce_quality_karate(tmp_path):
    # the script exits nonzero when the worst per-k mean greedy/optimum
    # ratio is < 0.98
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "reproduce_quality.py"),
            "--graph", str(ROOT / "data" / "karate.txt"),
            "--k-max", "3", "--targets", "3", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "quality_summary.csv").read_text(encoding="utf-8").startswith("k,mean_ratio")


def test_reproduce_quality_saturated_target(tmp_path):
    # node 0 is adjacent to every other node, so it has no candidate edges
    graph = tmp_path / "saturated.txt"
    graph.write_text("0 1\n0 2\n0 3\n0 4\n1 2\n", encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "reproduce_quality.py"),
            "--graph", str(graph), "--k-max", "2", "--targets", "5", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_reproduce_quality_refuses_k_past_the_oracle_guard(tmp_path):
    # C(32, 7) karate subsets exceed the oracle's 1e6 guard; C(32, 6) do not
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "reproduce_quality.py"),
            "--graph", str(ROOT / "data" / "karate.txt"),
            "--k-max", "7", "--targets", "34", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "guard of 1000000" in errors[0]
    assert errors[0].endswith("the largest k that fits is 6")


def test_reproduce_perf_small(tmp_path):
    # literal estimator: the capped default voids the guarantee, and at n=60
    # its quality ratio falls under the script's 0.98 gate
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "reproduce_perf.py"),
            "--sizes", "60", "--families", "ws,ba", "--k", "2", "--targets", "2",
            "--literal", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "table.csv").read_text(encoding="utf-8").startswith(
        "graph,n,m,k,targets,mean_time_approx,mean_time_exact,time_ratio,"
    )


@pytest.mark.parametrize("argv, fragment", [
    (["--targets", "0"], "--targets"),
    (["--targets", "-1"], "--targets"),
    (["--k-max", "0"], "--k-max"),
])
def test_reproduce_quality_refuses_a_count_below_one(tmp_path, argv, fragment):
    proc = run_script("reproduce_quality.py", "--graph", str(ROOT / "data" / "karate.txt"),
                      "--out", str(tmp_path / "q"), *argv)
    assert_one_error_line(proc, fragment)
    assert not (tmp_path / "q").exists()


def test_reproduce_quality_fails_when_it_compared_nothing(tmp_path):
    # a complete graph: no target has a candidate edge, so no pair is compared
    graph = tmp_path / "k4.txt"
    graph.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    proc = run_script("reproduce_quality.py", "--graph", str(graph), "--k-max", "2",
                      "--targets", "2", "--out", str(tmp_path))
    assert_one_error_line(proc, "no (target, k) pair")
    assert "worst per-k mean ratio" not in proc.stdout


def test_reproduce_quality_reports_the_oracle_as_optimize_does(tmp_path):
    # the same targets in the same order share one regrounded inverse in both
    karate = ROOT / "data" / "karate.txt"
    proc = run_script("reproduce_quality.py", "--graph", str(karate), "--k-max", "3",
                      "--targets", "4", "--seed", "5", "--out", str(tmp_path / "q"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(tmp_path / "q" / "quality_detail.csv", encoding="utf-8") as f:
        detail = list(csv.DictReader(f))
    g, ids = load_edge_list(karate)
    ids = ids[largest_connected_component(g)[1]]
    targets = [int(ids[int(r["target"])]) for r in detail if r["k"] == "1"]
    for k in (1, 2, 3):
        out = tmp_path / f"opt{k}"
        argv = ["optimize", "--graph", str(karate), "--k", str(k), "--algo", "oracle",
                "--format", "csv", "--out", str(out)]
        assert main(argv + [t for v in targets for t in ("--target", str(v))]) == 0
        for row in (r for r in detail if r["k"] == str(k)):
            trace = (out / f"trace_target{ids[int(row['target'])]}_oracle.csv").read_text(encoding="utf-8")
            assert trace.splitlines()[-1].split(",")[-1] == row["I_oracle"], (row, k)


@pytest.mark.parametrize("argv, fragment", [
    (["--sizes", ""], "--sizes"),
    (["--sizes", "60,x"], "'x'"),
    (["--families", ""], "--families"),
    (["--families", "ws,er"], "'er'"),
    (["--sizes", "3"], "k_ring"),
])
def test_reproduce_perf_refuses_a_bad_size_or_family_list(tmp_path, argv, fragment):
    proc = run_script("reproduce_perf.py", "--k", "2", "--targets", "2",
                      "--out", str(tmp_path / "p"), *argv)
    assert_one_error_line(proc, fragment)
    assert not (tmp_path / "p" / "table.csv").exists()


def test_reproduce_quality_refuses_a_graph_it_cannot_read(tmp_path):
    proc = run_script("reproduce_quality.py", "--graph", str(tmp_path / "missing.txt"),
                      "--out", str(tmp_path / "q"))
    assert_one_error_line(proc, "cannot read edge list", "missing.txt")
    assert proc.returncode == 2
    assert not (tmp_path / "q").exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_reproduce_perf_refuses_a_target_count_below_one(tmp_path, count):
    proc = run_script("reproduce_perf.py", "--sizes", "60", "--families", "ws", "--k", "1",
                      "--targets", count, "--out", str(tmp_path / "p"))
    assert_one_error_line(proc, "--targets must be at least 1")
    assert proc.returncode == 2
    assert not (tmp_path / "p").exists()
