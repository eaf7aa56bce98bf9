#!/usr/bin/env python3
"""Greedy-vs-optimum quality sweep on a real network.

For a sample of target nodes, runs the exact greedy for k = 1..K and compares
each prefix against the true optimal k-subset of incident candidate edges,
found by exhaustive enumeration. Writes per-target and aggregate CSVs.

The enumeration is the bottleneck: C(|candidates|, k) subsets per target.
Incident candidates only touch the diagonal of the grounded Laplacian, so a
batched Woodbury identity evaluates every subset with one k x k solve instead
of a fresh factorization; the small-k results are cross-checked against the
library's plain enumerator.

Usage:
  python3 scripts/reproduce_quality.py [--graph data/karate.txt] [--k-max 6]
                                       [--targets 20] [--seed 1] [--out results/quality]
"""

import argparse
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from icmax.graphs import largest_connected_component, load_edge_list
from icmax.greedy import brute_force_optimum, default_candidates, exact_sm
from icmax.linalg import build_laplacian, grounded_inverse
from icmax.rand import seeded_rng

CHUNK = 50_000  # subsets per batched solve; keeps the gather buffers small


def oracle_resistances(g, v, candidates, k_max):
    """Optimal R_v for every k in 1..k_max via batched diagonal Woodbury.

    With A the grounded Laplacian and U the grounded basis columns of a
    subset S, R_v(S) = tr(A^-1) - tr((D^-1 + U^T A^-1 U)^-1 U^T A^-2 U).
    Both k x k gathers come from two precomputed dense inverses.
    """
    inv = grounded_inverse(build_laplacian(g), v)
    inv2 = inv @ inv
    tr0 = float(np.trace(inv))

    pos = np.array([c.other - (c.other > v) for c in candidates])
    wts = np.array([c.weight for c in candidates])

    best = {}
    for k in range(1, k_max + 1):
        subsets = np.array(list(combinations(range(len(candidates)), k)), dtype=np.int64)
        best_r = np.inf
        for start in range(0, len(subsets), CHUNK):
            idx = subsets[start : start + CHUNK]
            rows = pos[idx]  # (N, k) grounded indices
            a_sub = inv[rows[:, :, None], rows[:, None, :]]
            b_sub = inv2[rows[:, :, None], rows[:, None, :]]
            m = a_sub.copy()
            diag = np.arange(k)
            m[:, diag, diag] += 1.0 / wts[idx]
            drops = np.trace(np.linalg.solve(m, b_sub), axis1=1, axis2=2)
            chunk_best = float(tr0 - drops.max())
            best_r = min(best_r, chunk_best)
        best[k] = best_r
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graph", default="data/karate.txt")
    ap.add_argument("--k-max", type=int, default=6)
    ap.add_argument("--targets", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="results/quality")
    ap.add_argument("--no-verify", action="store_true",
                    help="skip the small-k cross-check against the plain enumerator")
    args = ap.parse_args()

    g, _ = load_edge_list(args.graph)
    g, _ = largest_connected_component(g)
    print(f"graph: {args.graph} (n={g.n}, m={g.m}), k = 1..{args.k_max}, "
          f"{args.targets} targets, seed {args.seed}")

    rng = seeded_rng(args.seed, 41)
    targets = sorted(int(t) for t in rng.choice(g.n, size=min(args.targets, g.n), replace=False))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    detail_lines = ["target,k,I_greedy,I_oracle,ratio"]
    ratios = {k: [] for k in range(1, args.k_max + 1)}

    started = time.perf_counter()
    for v in targets:
        cands = default_candidates(g, v)
        k_top = min(args.k_max, len(cands))
        trace = exact_sm(g, v, cands, k_top)
        oracle = oracle_resistances(g, v, cands, k_top)
        if not args.no_verify:
            for k in (1, min(2, k_top)):
                _, r_plain = brute_force_optimum(g, v, cands, k)
                if abs(r_plain - oracle[k]) > 1e-8:
                    raise SystemExit(
                        f"oracle mismatch at target {v}, k={k}: "
                        f"{oracle[k]} vs {r_plain}"
                    )
        for k in range(1, k_top + 1):
            i_greedy = trace.steps[k - 1].centrality
            i_oracle = g.n / oracle[k]
            ratio = i_greedy / i_oracle
            ratios[k].append(ratio)
            detail_lines.append(f"{v},{k},{i_greedy!r},{i_oracle!r},{ratio!r}")
        print(f"  target {v:3d}: ratios "
              + " ".join(f"{ratios[k][-1]:.4f}" for k in range(1, k_top + 1)))

    (out / "quality_detail.csv").write_text("\n".join(detail_lines) + "\n", encoding="utf-8")

    summary = ["k,mean_ratio,min_ratio,targets"]
    print("\nk  mean ratio  min ratio")
    worst_mean = 1.0
    for k in range(1, args.k_max + 1):
        if not ratios[k]:
            continue
        mean_r = sum(ratios[k]) / len(ratios[k])
        min_r = min(ratios[k])
        worst_mean = min(worst_mean, mean_r)
        summary.append(f"{k},{mean_r!r},{min_r!r},{len(ratios[k])}")
        print(f"{k}  {mean_r:.4f}      {min_r:.4f}")
    (out / "quality_summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")

    print(f"\nwrote {out}/quality_detail.csv and {out}/quality_summary.csv "
          f"({time.perf_counter() - started:.1f}s)")
    print(f"worst per-k mean ratio: {worst_mean:.4f} "
          f"({'>= 0.98' if worst_mean >= 0.98 else 'BELOW the expected 0.98'})")
    return 0 if worst_mean >= 0.98 else 1


if __name__ == "__main__":
    sys.exit(main())
