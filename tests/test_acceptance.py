"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Every criterion prints a [PASS]/[FAIL] line through record_acceptance and
fails the suite on a miss. Wall-clock budgets are reported in the detail
strings, not asserted; the randomized criteria run on frozen seeds."""

import json
import math
import time

import numpy as np

from icmax.centrality import information_centrality, node_resistance_grounded
from icmax.cli import main
from icmax.graphs import generate_ws
from icmax.greedy import (
    approxi_sm,
    baseline_select,
    brute_force_optimum,
    default_candidates,
    exact_sm,
)
from icmax.linalg import (
    GroundedFactor,
    SolverSpec,
    _project_out_mean,
    _rademacher_block_solve,
    approx_eff_res,
    build_laplacian,
    solver_tolerance,
)
from icmax.rand import child_seed, seeded_rng

from conftest import (
    add_to_factor,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    record_acceptance,
    star_graph,
)
from oracles import (
    grounded_trace_reference,
    hutchinson_sample_count,
    information_centrality_via_B,
    information_matrix_inverse,
    marginal_gain_exact,
    node_resistance,
    pseudoinverse,
    resistance_pair,
)


def _in_eps(est: float, truth: float, eps: float) -> bool:
    return math.exp(-eps) * truth <= est <= math.exp(eps) * truth


def test_criterion_01_closed_form_kernel():
    started = time.perf_counter()
    checks: list[tuple[str, float, float]] = []  # (label, got, want)

    p2, p3, p4 = path_graph(2), path_graph(3), path_graph(4)
    k3, star, c4 = complete_graph(3), star_graph(3), cycle_graph(4)

    checks.append(("P2 R_0", node_resistance_grounded(p2, 0).value, 1.0))
    checks.append(("P2 I_0", information_centrality(p2, 0).value, 2.0))
    checks.append(("P3 R_0", node_resistance_grounded(p3, 0).value, 3.0))
    checks.append(("P3 R_1", node_resistance_grounded(p3, 1).value, 2.0))
    checks.append(("P3 I_1", information_centrality(p3, 1).value, 1.5))
    checks.append(("P4 R_0", node_resistance_grounded(p4, 0).value, 6.0))
    checks.append(("K3 R_0", node_resistance_grounded(k3, 0).value, 4.0 / 3.0))
    checks.append(("K3 I_0", information_centrality(k3, 0).value, 2.25))
    checks.append(("K3 I_01", information_centrality_via_B(k3, 0, 1), 1.5))
    checks.append(("star center I", information_centrality(star, 0).value, 4.0 / 3.0))
    checks.append(("star leaf I", information_centrality(star, 1).value, 0.8))

    p = pseudoinverse(build_laplacian(p3))
    checks.append(("P3 gain (0,2)", marginal_gain_exact(p, (0, 2), 1.0, 0), 5.0 / 3.0))
    p = pseudoinverse(build_laplacian(p4))
    checks.append(("P4 gain (0,3)", marginal_gain_exact(p, (0, 3), 1.0, 0), 3.5))

    p = pseudoinverse(build_laplacian(c4))
    for d in (1, 2):
        checks.append((f"C4 R(0,{d})", resistance_pair(p, 0, d), d * (4 - d) / 4.0))
    checks.append(("C4 R_0", node_resistance(p, 0).value, 2.5))

    worst = max(abs(got - want) for _, got, want in checks)
    record_acceptance(
        "criterion 1: closed-form kernel values",
        worst <= 1e-10,
        f"{len(checks)} values, max abs error {worst:.2e} "
        f"({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_02_three_way_resistance_consistency():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        g = random_connected_graph(seed, max_n=200, weighted=True)
        v = seed % g.n
        p = pseudoinverse(build_laplacian(g))
        via_diag = node_resistance(p, v).value
        via_grounded = node_resistance_grounded(g, v).value
        via_pairs = float(sum(resistance_pair(p, u, v) for u in range(g.n)))
        scale = max(abs(via_diag), 1e-30)
        worst = max(
            worst,
            abs(via_diag - via_grounded) / scale,
            abs(via_diag - via_pairs) / scale,
        )
    record_acceptance(
        "criterion 2: three-way R_v consistency",
        worst <= 1e-8,
        f"50 graphs n<=200, max relative spread {worst:.2e} "
        f"({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_03_harmonic_aggregation_identity():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        g = random_connected_graph(100 + seed, max_n=100, weighted=True)
        if g.n == 1:
            continue
        v = seed % g.n
        b_inv = information_matrix_inverse(g)
        recip = sum(
            1.0 / information_centrality_via_B(g, u, v, b_inv)
            for u in range(g.n)
            if u != v
        )
        harmonic = g.n / recip
        direct = information_centrality(g, v).value
        worst = max(worst, abs(harmonic - direct) / direct)
    record_acceptance(
        "criterion 3: harmonic-aggregation identity",
        worst <= 1e-8,
        f"20 graphs n<=100, max relative error {worst:.2e} "
        f"({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_04_monotone_supermodular_triples():
    started = time.perf_counter()
    checked = violations = 0
    attempt = 0
    slack = 1e-9
    while checked < 200:
        g = random_connected_graph(4000 + attempt, max_n=30, weighted=True)
        rng = seeded_rng(13, attempt)
        attempt += 1
        v = int(rng.integers(0, g.n))
        cands = default_candidates(g, v)
        if len(cands) < 2:
            continue
        perm = rng.permutation(len(cands))
        t_size = int(rng.integers(1, min(4, len(cands) - 1) + 1))
        s_size = int(rng.integers(0, t_size + 1))
        sub = [cands[int(i)] for i in perm[:s_size]]  # S is a prefix of T
        sup = [cands[int(i)] for i in perm[:t_size]]
        extra = cands[int(perm[t_size])]

        def resist(chosen):
            edges = [(c.other, v, c.weight) for c in chosen]
            h = g.with_edges(edges) if edges else g
            return node_resistance_grounded(h, v).value

        r_s, r_t = resist(sub), resist(sup)
        r_se, r_te = resist(sub + [extra]), resist(sup + [extra])
        if r_s < r_t - slack:  # larger set cannot leave more resistance
            violations += 1
        if (r_s - r_se) < (r_t - r_te) - slack:  # gains diminish
            violations += 1
        checked += 1
    record_acceptance(
        "criterion 4: monotonicity and supermodularity",
        violations == 0,
        f"200 (S, T, e) triples n<=30, {violations} violations at slack 1e-9 "
        f"({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_05_greedy_guarantee():
    started = time.perf_counter()
    ratios = []
    attempt = 0
    while len(ratios) < 20:
        g = random_connected_graph(6000 + attempt, max_n=12)
        rng = seeded_rng(14, attempt)
        attempt += 1
        v = int(rng.integers(0, g.n))
        cands = default_candidates(g, v)[:8]
        if not cands:
            continue
        k = int(rng.integers(1, min(3, len(cands)) + 1))
        trace = exact_sm(g, v, cands, k)
        _, r_opt = brute_force_optimum(g, v, cands, k)
        gain_greedy = trace.initial_resistance - trace.final_resistance
        gain_opt = trace.initial_resistance - r_opt
        ratios.append(1.0 if gain_opt <= 1e-15 else gain_greedy / gain_opt)
    floor = 1.0 - 1.0 / math.e - 1e-9
    mean_ratio = sum(ratios) / len(ratios)
    record_acceptance(
        "criterion 5: greedy approximation guarantee",
        min(ratios) >= floor and mean_ratio >= 0.98,
        f"20 instances, min ratio {min(ratios):.4f} (floor 0.632), "
        f"mean {mean_ratio:.4f} ({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_06_rank_one_update_fidelity():
    started = time.perf_counter()
    factor_drift = trace_error = 0.0
    for seed, n in ((71, 100), (72, 300), (73, 500)):
        g = random_connected_graph(seed, n=n, weighted=True)
        v = 0
        cands = default_candidates(g, v)[:10]
        augmented = g.with_edges([(c.other, v, c.weight) for c in cands])
        # approx's sparse factor after 10 rank-1 corrections, each from the
        # factor's own solve for M e_u, against the pseudoinverse of the
        # augmented graph
        factor = GroundedFactor(build_laplacian(g), v)
        for c in cands:
            add_to_factor(factor, c.other, c.weight)
        fresh = pseudoinverse(build_laplacian(augmented))
        # the solve is zero at v; centred, it is the pseudoinverse's column
        solved = _project_out_mean(factor.solve(np.eye(n) - 1.0 / n))
        factor_drift = max(factor_drift, float(np.abs(solved - fresh).max()))
        # exact greedy's dense rank-1 updates: k = 10 over these 10 candidates
        # inserts all of them, so its final R_v is the augmented graph's
        truth = node_resistance_grounded(augmented, v).value
        final = exact_sm(g, v, cands, len(cands)).final_resistance
        trace_error = max(trace_error, abs(final - truth) / truth)
    record_acceptance(
        "criterion 6: rank-1 update fidelity",
        factor_drift <= 1e-6 and trace_error <= 1e-10,
        f"10 successive updates on n in (100, 300, 500): GroundedFactor.add "
        f"max entry drift {factor_drift:.2e} (bound 1e-6), exact_sm final R_v "
        f"relative error {trace_error:.2e} (bound 1e-10) "
        f"({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_07_randomized_estimators():
    started = time.perf_counter()
    # approx's Rademacher trace sum at the analysed sample count
    g = random_connected_graph(70, n=40, weighted=True)
    lap = build_laplacian(g)
    truth = float(np.trace(pseudoinverse(lap)))
    m = hutchinson_sample_count(0.3, 0.1, g.n - 1)
    tol = solver_tolerance(SolverSpec(), 0.3, g.n, g.w_max)
    solve = GroundedFactor(lap, 0).solve
    nowhere = np.zeros(0, dtype=np.int64)

    def trace_estimate(seed: int) -> float:
        _, total = _rademacher_block_solve(
            lap, seeded_rng(seed), (g.n, m), _project_out_mean, tol, solve, nowhere, nowhere, trace=True,
        )
        return total / m

    trace_misses = sum(not _in_eps(trace_estimate(t), truth, 0.3) for t in range(100))

    # resistance sketch at eps = 0.2
    h = random_connected_graph(71, n=120, weighted=True)
    ph = pseudoinverse(build_laplacian(h))
    pairs = []
    for i in range(10):
        u, w = i, (13 * i + 7) % h.n
        if u != w:
            pairs.append((u, w))
    true_r = {pair: resistance_pair(ph, *pair) for pair in pairs}
    sketch_hits = 0
    for run in range(100):
        est = approx_eff_res(h, pairs, 0.2, spec=SolverSpec(seed=run))
        sketch_hits += all(_in_eps(e, true_r[pair], 0.2) for e, pair in zip(est, pairs))

    record_acceptance(
        "criterion 7: randomized estimator accuracy",
        trace_misses <= 15 and sketch_hits >= 95,
        f"_rademacher_block_solve trace misses {trace_misses}/100 (cap 15, M={m}); "
        f"approx_eff_res clean runs {sketch_hits}/100 (floor 95) "
        f"({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_08_approx_quality_and_speed():
    started = time.perf_counter()
    k = 10
    details = []
    ok = True
    time_ratio_at_largest = None
    for n in (500, 2000, 5000):
        g = generate_ws(n, 4, 0.1, seed=11)
        v = 17
        cands = default_candidates(g, v)

        t0 = time.perf_counter()
        exact = exact_sm(g, v, cands, k)
        exact_seconds = time.perf_counter() - t0

        spec = SolverSpec(seed=child_seed(11, n))
        t0 = time.perf_counter()
        approx = approxi_sm(
            g, v, cands, k, 0.3, spec, m_cap=256, sketch_constant=2.0
        )
        approx_seconds = time.perf_counter() - t0

        # judge quality by exact recomputation of the final centrality, on
        # a dense Cholesky route independent of the sparse factors that
        # approx, exact and grounded_inverse all read: the trace alone
        final_graph = g.with_edges([(u, w, 1.0) for u, w in approx.edges])
        approx_final = n / grounded_trace_reference(build_laplacian(final_graph), v)
        ratio = approx_final / exact.final_centrality
        # the reported value: the factor's exact R_0 less exact drops
        value_error = approx.final_centrality / approx_final - 1.0
        ok = ok and ratio >= 0.98 and abs(value_error) <= 1e-10
        if n == 5000:
            time_ratio_at_largest = approx_seconds / exact_seconds
        details.append(
            f"n={n} ratio {ratio:.4f}, reported I_v off by {value_error:+.2e} "
            f"({approx_seconds:.2f}s vs {exact_seconds:.2f}s)"
        )
    ok = ok and time_ratio_at_largest < 1.0
    record_acceptance(
        "criterion 8: approximate-vs-exact quality and runtime",
        ok,
        "; ".join(details)
        + f"; time ratio at n=5000 {time_ratio_at_largest:.3f} (< 1 required; "
        "capped estimator, guarantee-voiding flags apply) "
        f"({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_09_baseline_ordering():
    started = time.perf_counter()
    g = generate_ws(1000, 4, 0.1, seed=23)
    k = 20
    targets = sorted(int(t) for t in seeded_rng(77, 41).choice(g.n, size=10, replace=False))

    series: dict[str, list[list[float]]] = {
        name: [] for name in ("exact", "approx", "random", "top-degree", "top-cent")
    }
    for v in targets:
        cands = default_candidates(g, v)
        traces = {
            "exact": exact_sm(g, v, cands, k),
            "approx": approxi_sm(
                g, v, cands, k, 0.3, SolverSpec(seed=child_seed(77, 50, v))
            ),
        }
        for name in ("random", "top-degree", "top-cent"):
            traces[name] = baseline_select(g, v, cands, k, name, seed=child_seed(77, 51, v))
        for name, trace in traces.items():
            series[name].append(
                [trace.initial_centrality] + [s.centrality for s in trace.steps]
            )

    means = {
        name: [sum(col) / len(col) for col in zip(*rows)] for name, rows in series.items()
    }
    ok = True
    min_margin = math.inf
    for step in range(1, k + 1):
        for baseline in ("random", "top-degree", "top-cent"):
            for algo in ("exact", "approx"):
                margin = means[algo][step] - means[baseline][step]
                min_margin = min(min_margin, margin)
                ok = ok and margin >= 0.0
                if step == k:
                    ok = ok and margin > 0.0
    record_acceptance(
        "criterion 9: greedy above baselines at every k",
        ok,
        f"WS(1000), 10 targets, k=1..20; min margin {min_margin:.5f}, "
        f"strict at k=20 ({time.perf_counter() - started:.1f}s)",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    started = time.perf_counter()
    argv_base = [
        "optimize", "--generate", "ws 60 4 0.1", "--random-targets", "3",
        "--k", "3", "--algo", "exact", "--algo", "approx", "--algo", "random",
        "--epsilon", "0.3", "--m-cap", "64", "--seed", "12",
    ]
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        assert main(argv_base + ["--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in outs[0].glob("*.csv")}
    second = {p.name: p.read_bytes() for p in outs[1].glob("*.csv")}
    same_csvs = first == second and len(first) > 0

    gen_files = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        assert main(["gen", "ws", "40", "4", "0.1", "seed=3", "--out", str(path)]) == 0
        gen_files.append(path.read_bytes())
    same_gen = gen_files[0] == gen_files[1]

    record_acceptance(
        "criterion 10: seeded reruns are byte-identical",
        same_csvs and same_gen,
        f"{len(first)} result CSVs plus generated edge lists compared "
        f"({time.perf_counter() - started:.1f}s)",
    )
