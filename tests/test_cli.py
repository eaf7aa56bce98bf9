"""Harness behaviour end to end: config parsing and precedence, the three
subcommands, output artifacts, determinism, and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import icmax
from icmax.cli import (
    ConfigError,
    RunConfig,
    _config_from_args,
    build_config,
    build_parser,
    cmd_compare_perf,
    cmd_optimize,
    main,
    parse_config_file,
    parse_generator_spec,
    trace_csv_lines,
)
from icmax.graphs import generate_ws, load_edge_list
from icmax.linalg import build_laplacian

from oracles import grounded_inverse_reference


def write_path4(tmp_path, name="p4.txt", ids=(0, 1, 2, 3)):
    a, b, c, d = ids
    path = tmp_path / name
    path.write_text(f"{a} {b}\n{b} {c}\n{c} {d}\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Config plumbing


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment setup\n"
        "graph = data/net.txt   # alias for graph_path\n"
        "target = 3,5\n"
        "algo = exact,approx\n"
        "random-targets = 0\n"
        "k=2\n"
        "\n",
        encoding="utf-8",
    )
    values = parse_config_file(cfg)
    assert values == {
        "graph_path": "data/net.txt",
        "targets": "3,5",
        "algorithms": "exact,approx",
        "random_targets": "0",
        "k": "2",
    }


def test_parse_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("k 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(bad)
    bad.write_text("k=1\nmystery=4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(bad)


def test_build_config_precedence(tmp_path):
    graph = write_path4(tmp_path)
    file_values = {"graph_path": str(graph), "k": "2", "epsilon": "0.2", "targets": "0"}
    config = build_config(file_values, {"k": 3, "algorithms": ("exact", "oracle")})
    assert config.k == 3  # flag wins over file
    assert config.epsilon == 0.2
    assert config.targets == (0,)
    assert config.algorithms == ("exact", "oracle")


def test_build_config_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        build_config({"k": "two"}, {})


def _field_samples(tmp_path) -> dict[str, tuple[list[str], str]]:
    """A non-default value for every RunConfig field, as command-line tokens
    and as the config-file text."""
    other_graph = str(write_path4(tmp_path, name="other.txt"))
    out = str(tmp_path / "elsewhere")
    return {
        "graph_path": (["--graph", other_graph], other_graph),
        "generate": (["--generate", "ws 10 2 0.1"], "ws 10 2 0.1"),
        "targets": (["--target", "0", "--target", "2"], "0,2"),
        "random_targets": (["--random-targets", "2"], "2"),
        "k": (["--k", "2"], "2"),
        "algorithms": (["--algo", "exact", "--algo", "oracle"], "exact, oracle"),
        "epsilon": (["--epsilon", "0.2"], "0.2"),
        "weight": (["--weight", "2.5"], "2.5"),
        "seed": (["--seed", "5"], "5"),
        "solver_mode": (["--solver-mode", "paper-literal"], "paper-literal"),
        "m_cap": (["--m-cap", "8"], "8"),
        "sketch_constant": (["--sketch-constant", "2.0"], "2.0"),
        "out": (["--out", out], out),
        "formats": (["--format", "json"], "json"),
    }


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_config_file_field_matches_flag(tmp_path, name):
    flag_tokens, file_value = _field_samples(tmp_path)[name]
    # the rest of a valid run, unless the field under test supplies that part
    base = []
    if name not in ("graph_path", "generate"):
        base += ["--graph", str(write_path4(tmp_path))]
    if name not in ("targets", "random_targets"):
        base += ["--target", "0"]
    parser = build_parser()

    def config(argv):
        return _config_from_args(parser.parse_args(["optimize", *base, *argv]), ("exact",))

    from_flag = config(flag_tokens)
    assert getattr(from_flag, name) != getattr(RunConfig(), name)
    for key in (name, flag_tokens[0].lstrip("-")):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {file_value}\n", encoding="utf-8")
        assert config(["--config", str(cfg)]) == from_flag, key


def test_config_validation(tmp_path):
    graph = write_path4(tmp_path)
    ok = dict(graph_path=str(graph), targets=(0,))
    RunConfig(**ok).validate()
    cases = [
        (dict(), "exactly one"),
        (dict(graph_path=str(graph), generate="ws 10 2 0.1"), "exactly one"),
        (dict(graph_path=str(tmp_path / "nope.txt")), "not found"),
        (dict(**ok, k=0), "k must be"),
        (dict(**ok, algorithms=()), "at least one algorithm"),
        (dict(**ok, algorithms=("exact", "best")), "unknown algorithm"),
        (dict(graph_path=str(graph), targets=(0,), random_targets=2), "not both"),
        (dict(**ok, epsilon=0.6), "epsilon"),
        (dict(**ok, epsilon=0.0), "epsilon"),
        (dict(**ok, weight=0.0), "weight"),
        (dict(**ok, m_cap=0), "m_cap"),
        (dict(**ok, sketch_constant=0.0), "sketch_constant"),
        (dict(**ok, formats=("yaml",)), "unknown format"),
        (dict(**ok, formats=()), "output format"),
        (dict(**ok, solver_mode="fast"), "mode"),
    ]
    for kwargs, pattern in cases:
        with pytest.raises(ConfigError, match=pattern):
            RunConfig(**kwargs).validate()


def test_parse_generator_spec():
    g, label, seed = parse_generator_spec("ws 50 4 0.1", default_seed=3)
    assert label == "ws-50-4-0.1" and seed == 3
    assert g.n == 50 and g.m == 100
    g, label, seed = parse_generator_spec("ba 40 2 seed=7", default_seed=3)
    assert label == "ba-40-2" and seed == 7
    assert g.n == 40
    for bad, pattern in [
        ("", "empty"),
        ("er 10 0.5", "unknown generator family"),
        ("ws 10 4", "malformed"),
        ("ba 10 2 3", "trailing tokens"),
        ("ws 10 4 0.1 seed=x", "bad seed"),
        ("ws 5 3 0.1", "k_ring must be even"),
    ]:
        with pytest.raises(ConfigError, match=pattern):
            parse_generator_spec(bad)


# ---------------------------------------------------------------------------
# gen subcommand


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "ws.txt"
    assert main(["gen", "ws", "30", "4", "0.1", "seed=7", "--out", str(out)]) == 0
    assert str(out) in capsys.readouterr().out
    text = out.read_text(encoding="utf-8")
    assert "seed=7" in text.splitlines()[0]
    g, _ = load_edge_list(out)
    expected = generate_ws(30, 4, 0.1, 7)
    assert g.edges == expected.edges


def test_gen_ba(tmp_path):
    out = tmp_path / "ba.txt"
    assert main(["gen", "ba", "50", "2", "--seed", "3", "--out", str(out)]) == 0
    g, _ = load_edge_list(out)
    assert g.n == 50 and g.m == 3 + 2 * 47


def test_gen_invalid_spec(tmp_path, capsys):
    assert main(["gen", "ws", "5", "3", "0.1", "--out", str(tmp_path / "x.txt")]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# optimize subcommand


def test_optimize_exact_and_oracle(tmp_path, capsys):
    graph = write_path4(tmp_path)
    out = tmp_path / "results"
    rc = main([
        "optimize", "--graph", str(graph), "--target", "0", "--k", "1",
        "--algo", "exact", "--algo", "oracle", "--out", str(out),
    ])
    assert rc == 0
    assert str(out.resolve()) in capsys.readouterr().out

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["graph"] == "p4"
    assert report["deviation_flags"] == []
    exact = report["traces"]["0"]["exact"]
    oracle = report["traces"]["0"]["oracle"]
    assert exact["steps"][0]["edge"] == [0, 3]
    assert oracle["steps"][0]["edge"] == [0, 3]
    assert exact["steps"][0]["resistance"] == pytest.approx(2.5, abs=1e-12)
    assert exact["initial_resistance"] == pytest.approx(6.0, abs=1e-12)

    csv = (out / "trace_target0_exact.csv").read_text(encoding="utf-8").splitlines()
    assert csv[0] == "step,edge_u,edge_v,R_v,I_v"
    assert csv[1].startswith("0,,,")
    assert csv[2].startswith("1,0,3,")
    assert float(csv[2].split(",")[3]) == pytest.approx(2.5, abs=1e-12)
    assert float(csv[2].split(",")[4]) == pytest.approx(1.6, abs=1e-12)

    assert (out / "trace_target0_oracle.csv").exists()
    assert (out / "aggregate_resistance.csv").exists()
    assert (out / "aggregate_centrality.csv").exists()
    timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
    assert set(timings["seconds_total"]) == {"exact", "oracle", "grounded_inverse"}
    steps = timings["step_seconds"]["0"]
    assert set(steps) == {"exact", "oracle"}
    assert all(len(secs) == 1 and secs[0] >= 0.0 for secs in steps.values())


def test_optimize_reports_original_ids(tmp_path):
    graph = write_path4(tmp_path, ids=(10, 20, 30, 40))
    out = tmp_path / "results"
    rc = main([
        "optimize", "--graph", str(graph), "--target", "10", "--k", "1", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report["traces"].keys()) == ["10"]
    assert report["traces"]["10"]["exact"]["steps"][0]["edge"] == [10, 40]
    csv = (out / "trace_target10_exact.csv").read_text(encoding="utf-8").splitlines()
    assert csv[2].startswith("1,10,40,")


def test_optimize_defaults_to_exact(tmp_path):
    graph = write_path4(tmp_path)
    out = tmp_path / "results"
    assert main(["optimize", "--graph", str(graph), "--target", "0", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report["traces"]["0"].keys()) == ["exact"]


def test_optimize_json_only(tmp_path):
    graph = write_path4(tmp_path)
    out = tmp_path / "results"
    rc = main([
        "optimize", "--graph", str(graph), "--target", "0",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "report.json").exists()
    assert (out / "timings.json").exists()
    assert not list(out.glob("*.csv"))


def test_optimize_config_file_with_flag_override(tmp_path):
    graph = write_path4(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"graph = {graph}\ntarget = 0\nk = 1\nalgo = exact\nout = {tmp_path / 'a'}\n",
        encoding="utf-8",
    )
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert main(["optimize", "--config", str(cfg), "--k", "2", "--out", str(tmp_path / "b")]) == 0
    report_a = json.loads((tmp_path / "a" / "report.json").read_text(encoding="utf-8"))
    report_b = json.loads((tmp_path / "b" / "report.json").read_text(encoding="utf-8"))
    assert len(report_a["traces"]["0"]["exact"]["steps"]) == 1
    assert len(report_b["traces"]["0"]["exact"]["steps"]) == 2


def test_optimize_outputs_are_deterministic(tmp_path):
    graph = write_path4(tmp_path)
    out = tmp_path / "results"
    argv = [
        "optimize", "--graph", str(graph), "--target", "0", "--target", "2",
        "--k", "1", "--algo", "exact", "--algo", "random", "--seed", "9",
        "--out", str(out),
    ]
    assert main(argv) == 0
    snapshot = {
        p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"
    }
    assert main(argv) == 0
    for p in sorted(out.iterdir()):
        if p.name != "timings.json":
            assert p.read_bytes() == snapshot[p.name], p.name


def test_optimize_aggregates_recompute_from_traces(tmp_path):
    graph = write_path4(tmp_path)
    out = tmp_path / "results"
    assert main([
        "optimize", "--graph", str(graph), "--target", "0", "--target", "3",
        "--k", "2", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    series = report["aggregates"]["mean_centrality"]["exact"]
    per_target = []
    for key in ("0", "3"):
        t = report["traces"][key]["exact"]
        per_target.append([t["initial_centrality"]] + [s["centrality"] for s in t["steps"]])
    for step, value in enumerate(series):
        assert value == pytest.approx(
            sum(row[step] for row in per_target) / 2.0, rel=1e-15
        )
    agg_csv = (out / "aggregate_centrality.csv").read_text(encoding="utf-8").splitlines()
    assert agg_csv[0] == "step,exact"
    assert [float(line.split(",")[1]) for line in agg_csv[1:]] == pytest.approx(series)


def test_optimize_approx_flags_capped_estimator(tmp_path, capsys):
    graph = write_path4(tmp_path)
    out = tmp_path / "results"
    rc = main([
        "optimize", "--graph", str(graph), "--target", "0", "--k", "1",
        "--algo", "approx", "--epsilon", "0.3", "--m-cap", "16", "--out", str(out),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "capped" in err and "voided" in err
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert any("capped" in f for f in report["deviation_flags"])
    # approx reports exact values: R_0 = 1 + 2 + 3 on the path
    assert report["traces"]["0"]["approx"]["initial_resistance"] == pytest.approx(6.0, rel=1e-14)


def test_optimize_approx_reports_the_exact_initial_resistance(tmp_path, capsys):
    # approx's initial R_v, from its sparse factor, is exact graph for graph
    # with exact's, from the dense inverse, and no flag notes an estimate:
    # the flags are the solver's mapping and the capped estimator
    out = tmp_path / "results"
    rc = main([
        "optimize", "--generate", "ws 30 4 0.1", "--random-targets", "3", "--k", "1",
        "--algo", "exact", "--algo", "approx", "--m-cap", "16", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for per_algo in report["traces"].values():
        assert "value_mode" not in per_algo["approx"]
        assert per_algo["approx"]["initial_resistance"] == pytest.approx(
            per_algo["exact"]["initial_resistance"], rel=1e-12
        )
    assert len(report["deviation_flags"]) == 2
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    assert len(notes) == 2 and "practical mapping" in notes[0] and "capped" in notes[1]


def test_optimize_random_targets(tmp_path):
    graph = tmp_path / "p6.txt"
    graph.write_text("".join(f"{i} {i + 1}\n" for i in range(5)), encoding="utf-8")
    out = tmp_path / "results"
    argv = [
        "optimize", "--graph", str(graph), "--random-targets", "2",
        "--seed", "4", "--out", str(out),
    ]
    assert main(argv) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    first = sorted(report["traces"].keys())
    assert len(first) == 2
    assert main(argv) == 0
    report2 = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert sorted(report2["traces"].keys()) == first


def test_optimize_lcc_warning_and_outside_target(tmp_path, capsys):
    graph = tmp_path / "two.txt"
    graph.write_text("0 1\n1 2\n2 3\n4 5\n", encoding="utf-8")
    out = tmp_path / "results"
    assert main([
        "optimize", "--graph", str(graph), "--target", "0", "--k", "1", "--out", str(out),
    ]) == 0
    assert "largest component (4 of 6 nodes)" in capsys.readouterr().err
    rc = main([
        "optimize", "--graph", str(graph), "--target", "4", "--k", "1", "--out", str(out),
    ])
    assert rc == 1
    assert "not a node" in capsys.readouterr().err


def test_optimize_karate_exact_tracks_oracle(tmp_path):
    # 34-node social network, 20 sampled targets: greedy should stay within
    # 2% of the enumerated optimum (small k keeps enumeration tractable;
    # the scripts/ harness extends this sweep to k=6)
    karate = Path(__file__).resolve().parents[1] / "data" / "karate.txt"
    for k in (1, 2, 3):
        out = tmp_path / f"k{k}"
        rc = main([
            "optimize", "--graph", str(karate), "--random-targets", "20",
            "--k", str(k), "--algo", "exact", "--algo", "oracle",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        ratios = []
        for per_algo in report["traces"].values():
            exact_final = per_algo["exact"]["steps"][-1]["centrality"]
            oracle_final = per_algo["oracle"]["steps"][-1]["centrality"]
            assert exact_final <= oracle_final + 1e-9
            ratios.append(exact_final / oracle_final)
        assert sum(ratios) / len(ratios) >= 0.98


def _count_calls(monkeypatch, name, *modules):
    """Record the calls of function `name` through every given module that
    binds it; the first module holds the original."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_optimize_factors_each_graph_once_and_ranks_once(tmp_path, monkeypatch):
    # exact and three baselines at every target share one grounded inverse,
    # regrounded from one target to the next, and every target shares one
    # ranking, which reads a sparse factor
    factors = _count_calls(monkeypatch, "grounded_inverse", icmax.linalg, icmax.greedy, icmax.cli)
    regrounds = _count_calls(monkeypatch, "reground", icmax.linalg, icmax.cli)
    rankings = _count_calls(
        monkeypatch, "rank_all_by_centrality", icmax.centrality, icmax.greedy, icmax.cli
    )
    config = RunConfig(
        generate="ws 60 4 0.1", random_targets=3, k=3,
        algorithms=("exact", "random", "top-degree", "top-cent"), out=str(tmp_path),
    )
    report = cmd_optimize(config)
    assert (len(factors), len(regrounds), len(rankings)) == (1, 3 - 1, 1)
    # the shared inverse and ranking are charged to no algorithm, and the
    # totals still sum every second of optimizer work
    timings = json.loads((tmp_path / "timings.json").read_text(encoding="utf-8"))
    totals = timings["seconds_total"]
    assert set(totals) == set(config.algorithms) | {
        "grounded_inverse", "rank_all_by_centrality"
    }
    assert all(secs >= 0.0 for secs in totals.values())
    assert sum(totals.values()) == pytest.approx(
        sum(report.shared_seconds.values())
        + sum(sum(per_algo.values()) for per_algo in report.wall_seconds.values())
    )


@pytest.mark.parametrize(
    "extra",
    [
        # every algorithm; approx made cheap, which does not change what it factors
        ["--k", "2", "--m-cap", "16", "--sketch-constant", "1"],
        # the benchmark's second invocation: no approx
        ["--algo", "exact", "--algo", "random", "--algo", "top-degree", "--algo", "top-cent"],
    ],
    ids=["ws_baselines", "ws_baselines-no-approx"],
)
def test_optimize_factors_ws_baselines_densely_once(tmp_path, monkeypatch, extra):
    # approx's R_0 and the ranking read sparse factors: the run's one dense
    # array is the exact greedy's and the baselines' grounded inverse, which
    # is read from a sparse factor too; with no oracle, no subset is
    # rescored by a fresh factor (greedy's node_resistance_grounded)
    factors = _count_calls(monkeypatch, "grounded_inverse", icmax.linalg, icmax.greedy, icmax.cli)
    rescored = _count_calls(monkeypatch, "node_resistance_grounded", icmax.greedy)
    config = Path(__file__).resolve().parents[1] / "configs" / "ws_baselines.cfg"
    assert main(["optimize", "--config", str(config), *extra, "--out", str(tmp_path)]) == 0
    assert (len(factors), len(rescored)) == (1, 0)


def test_optimize_keeps_one_inverse_alive_across_targets(tmp_path, monkeypatch):
    # while exact_sm runs, the only dense inverse alive is the run's one
    # array, read-only and grounded at exact_sm's target
    made = []
    seen = []
    original_inverse = icmax.linalg.grounded_inverse
    original_exact = icmax.cli.exact_sm

    def remembered(lap, v):
        m = original_inverse(lap, v)
        made.append(weakref.ref(m))
        return m

    def exact_checked(g, v, *args, m, **kwargs):
        alive = [ref() for ref in made if ref() is not None]
        assert len(alive) == 1 and np.shares_memory(alive[0], m)
        assert not m.flags.writeable
        ref = grounded_inverse_reference(build_laplacian(g), v)
        assert np.abs(m - ref).max() <= 1e-13 * np.abs(ref).max()
        seen.append(m)
        return original_exact(g, v, *args, m=m, **kwargs)

    for module in (icmax.linalg, icmax.greedy, icmax.cli):
        monkeypatch.setattr(module, "grounded_inverse", remembered)
    monkeypatch.setattr(icmax.cli, "exact_sm", exact_checked)
    config = RunConfig(
        generate="ws 60 4 0.1", random_targets=3, k=2,
        algorithms=("exact", "top-cent", "random"), out=str(tmp_path),
    )
    cmd_optimize(config)
    assert len(made) == 1  # the run's M; the ranking reads a sparse factor
    assert len(seen) == 3 and all(m is seen[0] for m in seen)


def test_optimize_oracle_shares_the_graphs_inverse(tmp_path, monkeypatch):
    # configs/karate_oracle.cfg: 20 targets, exact and the oracle, one M.
    # The oracle's near-tie rescoring calls node_resistance_grounded through
    # greedy's own binding, once per near-tied subset it rescores, each on
    # a fresh sparse factor; M itself is read from a sparse factor too
    inverses = _count_calls(monkeypatch, "grounded_inverse", icmax.linalg, icmax.greedy, icmax.cli)
    rescored = _count_calls(monkeypatch, "node_resistance_grounded", icmax.greedy)
    root = Path(__file__).resolve().parents[1]
    config = _config_from_args(
        build_parser().parse_args([
            "optimize", "--config", str(root / "configs" / "karate_oracle.cfg"),
            "--graph", str(root / "data" / "karate.txt"), "--out", str(tmp_path),
        ]),
        ("exact",),
    )
    assert (config.random_targets, config.algorithms) == (20, ("exact", "oracle"))
    cmd_optimize(config)
    assert (len(inverses), len(rescored)) == (1, 3)  # the shared M; three rescored subsets


def _selections_and_values(report: dict) -> tuple[dict, dict]:
    """(edges per target and algorithm, the numbers of each trace)."""
    edges, values = {}, {}
    for target, per_algo in report["traces"].items():
        for algo, trace in per_algo.items():
            edges[target, algo] = [step["edge"] for step in trace["steps"]]
            values[target, algo] = [trace["initial_resistance"]] + [
                step[key] for step in trace["steps"] for key in ("gain", "resistance", "centrality")
            ]
    return edges, values


def test_optimize_regrounded_targets_match_single_target_runs(tmp_path):
    # all 34 karate targets through one regrounded inverse, in both orders,
    # against 34 runs that each compute their target's inverse afresh
    karate = Path(__file__).resolve().parents[1] / "data" / "karate.txt"
    base = RunConfig(graph_path=str(karate), k=3, algorithms=("exact", "oracle"), formats=("json",))

    def run(targets, name):
        cmd_optimize(dataclasses.replace(base, targets=tuple(targets), out=str(tmp_path / name)))
        return _selections_and_values(json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8")))

    single_edges, single_values = {}, {}
    for t in range(34):
        edges, values = run([t], f"single{t}")
        single_edges.update(edges)
        single_values.update(values)
    for order in (range(34), range(33, -1, -1)):
        edges, values = run(order, f"chain{order[0]}")
        assert edges == single_edges
        for key, series in values.items():
            assert series == pytest.approx(single_values[key], rel=1e-12), key


def test_optimize_rejects_a_repeated_target(tmp_path, capsys):
    graph = write_path4(tmp_path)
    rc = main([
        "optimize", "--graph", str(graph), "--target", "1", "--target", "2", "--target", "1",
        "--out", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "target 1 is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------------------
# exit codes


def test_exit_missing_graph(tmp_path, capsys):
    rc = main([
        "optimize", "--graph", str(tmp_path / "nope.txt"), "--target", "0",
        "--out", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_exit_k_exceeds_candidates_names_original_id(tmp_path, capsys):
    graph = write_path4(tmp_path, ids=(10, 20, 30, 40))
    rc = main([
        "optimize", "--graph", str(graph), "--target", "20", "--k", "3",
        "--out", str(tmp_path / "r"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "target 20" in err and "k=3 exceeds" in err


def test_exit_no_targets(tmp_path, capsys):
    graph = write_path4(tmp_path)
    rc = main(["optimize", "--graph", str(graph), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "no targets" in capsys.readouterr().err


def test_exit_malformed_graph(tmp_path, capsys):
    graph = tmp_path / "bad.txt"
    graph.write_text("0 1\n0 1 2.0 junk\n", encoding="utf-8")
    rc = main([
        "optimize", "--graph", str(graph), "--target", "0", "--out", str(tmp_path / "r"),
    ])
    assert rc == 2
    assert "bad.txt:2" in capsys.readouterr().err


def test_exit_unreadable_graph(tmp_path, capsys):
    rc = main([
        "optimize", "--graph", str(tmp_path), "--target", "0", "--out", str(tmp_path / "r"),
    ])
    assert rc == 2  # a directory passes the existence check but cannot be read


def test_exit_solver_failure(tmp_path, monkeypatch, capsys):
    from icmax.linalg import GroundedFactor

    # a factor whose solves answer zeros: no column passes its residual
    # check, in float64 or in long double, and no refinement step moves it
    monkeypatch.setattr(GroundedFactor, "solve", lambda self, r, out=None: np.zeros_like(r))
    graph = tmp_path / "p60.txt"
    graph.write_text("".join(f"{i} {i + 1}\n" for i in range(59)), encoding="utf-8")
    rc = main([
        "optimize", "--graph", str(graph), "--target", "0", "--k", "1",
        "--algo", "approx", "--m-cap", "8", "--out", str(tmp_path / "r"),
    ])
    assert rc == 3
    assert "residual" in capsys.readouterr().err


def test_removed_solver_option_is_refused(tmp_path, capsys):
    # --max-iterations capped the conjugate-gradient re-solves, which are
    # gone: the flag is an argparse error, the config key an unknown one
    graph = write_path4(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(["optimize", "--graph", str(graph), "--target", "0", "--max-iterations", "100"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --max-iterations" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"graph = {graph}\ntargets = 0\nmax_iterations = 100\n", encoding="utf-8")
    assert main(["optimize", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_exit_linear_algebra_failure(tmp_path, monkeypatch, capsys):
    # LAPACK reports failure through info, not by raising; the program must
    # raise on it: in the dlauum that every dense route runs (grounded_inverse
    # reads M from a sparse factor, and the oracle rescores on fresh sparse
    # factors, so the package runs no dpotrf)
    import icmax.linalg as linalg_mod

    real = linalg_mod.lapack
    graph = write_path4(tmp_path)
    for algo, kernel, info in (
        ("exact", "dlauum", 3), ("top-degree", "dlauum", 3), ("oracle", "dlauum", 3),
    ):
        kernels = {name: getattr(real, name) for name in ("dtrtri", "dlauum")}
        kernels[kernel] = lambda a, **kw: (a, info)
        monkeypatch.setattr(linalg_mod, "lapack", types.SimpleNamespace(**kernels))
        rc = main([
            "optimize", "--graph", str(graph), "--target", "0", "--algo", algo,
            "--out", str(tmp_path / f"{algo}-{kernel}"),
        ])
        assert rc == 3, (algo, kernel)
        err = capsys.readouterr().err
        assert "numerical failure" in err and f"{kernel} info={info}" in err, (algo, kernel)


# ---------------------------------------------------------------------------
# compare-perf subcommand


def test_compare_perf_requires_both_algorithms(tmp_path, capsys):
    graph = write_path4(tmp_path)
    rc = main([
        "compare-perf", "--graph", str(graph), "--algo", "exact",
        "--out", str(tmp_path / "r"),
    ])
    assert rc == 1
    assert "requires both" in capsys.readouterr().err


def test_compare_perf_outputs(tmp_path, capsys):
    out = tmp_path / "perf"
    argv = [
        "compare-perf", "--generate", "ws 30 4 0.1", "--k", "2",
        "--random-targets", "4", "--epsilon", "0.3", "--m-cap", "32",
        "--seed", "5", "--out", str(out),
    ]
    assert main(argv) == 0
    assert "centrality ratio" in capsys.readouterr().out
    table = (out / "perf_table.csv").read_text(encoding="utf-8").splitlines()
    assert table[0].startswith("graph,mean_time_approx,mean_time_exact,time_ratio")
    assert table[1].startswith("ws-30-4-0.1,")
    det = (out / "perf_results.csv").read_bytes()
    header = det.decode().splitlines()[0]
    assert header == (
        "graph,n,m,k,targets,mean_centrality_approx,mean_centrality_exact,centrality_ratio"
    )
    assert main(argv) == 0
    assert (out / "perf_results.csv").read_bytes() == det


def test_compare_perf_small_ws_quality(tmp_path):
    # untruncated estimator on a 50-node small world: quality ratio >= 0.98
    out = tmp_path / "perf"
    rc = main([
        "compare-perf", "--generate", "ws 50 4 0.1", "--k", "1",
        "--random-targets", "5", "--epsilon", "0.3", "--seed", "2",
        "--out", str(out),
    ])
    assert rc == 0
    row = (out / "perf_results.csv").read_text(encoding="utf-8").splitlines()[1]
    assert float(row.split(",")[-1]) >= 0.98


def test_compare_perf_explicit_targets(tmp_path):
    out = tmp_path / "perf"
    rc = main([
        "compare-perf", "--generate", "ws 20 4 0.1", "--target", "5", "--k", "1",
        "--epsilon", "0.3", "--m-cap", "32", "--out", str(out),
    ])
    assert rc == 0
    row = (out / "perf_results.csv").read_text(encoding="utf-8").splitlines()[1]
    assert row.split(",")[4] == "1"  # one target evaluated


def test_compare_perf_samples_twenty_targets_by_default(tmp_path):
    # at most 20 sampled targets, and every node of a smaller graph
    for n, expected in ((24, "20"), (12, "12")):
        out = tmp_path / f"perf{n}"
        rc = main([
            "compare-perf", "--generate", f"ws {n} 4 0.1", "--k", "1",
            "--m-cap", "16", "--out", str(out),
        ])
        assert rc == 0
        row = (out / "perf_results.csv").read_text(encoding="utf-8").splitlines()[1]
        assert row.split(",")[4] == expected


# ---------------------------------------------------------------------------
# packaging smoke test


def test_console_entry_point(tmp_path):
    out = tmp_path / "g.txt"
    # the subprocess imports the same package as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(icmax.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "icmax.cli", "gen", "ws", "20", "4", "0.0", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    g, _ = load_edge_list(out)
    assert g.n == 20 and g.m == 40


def test_public_surface():
    # the package ships the grounded route; the other routes live in the tests
    import icmax.centrality
    import icmax.linalg

    for name in icmax.__all__:
        assert getattr(icmax, name) is not None, name
    test_only = (
        "hutchinson_sample_count",
        "hutchinson_trace",
        "information_centrality_via_B",
        "information_matrix_inverse",
        "lapl_solve",
        "make_preconditioner",
        "marginal_gain_exact",
        "node_resistance",
        "pseudoinverse",
        "resistance_pair",
        "sherman_morrison_update",
    )
    for module in (icmax, icmax.linalg, icmax.centrality):
        assert not [name for name in test_only if hasattr(module, name)], module.__name__
