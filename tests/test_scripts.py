"""Smoke tests of the reproduction scripts, run as a user would run them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
