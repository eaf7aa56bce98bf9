#!/usr/bin/env python3
"""Greedy-vs-optimum quality sweep on a real network.

For a sample of target nodes, runs the exact greedy for k = 1..K and compares
each prefix against the true optimal k-subset of incident candidate edges,
found by exhaustive enumeration. Writes per-target and aggregate CSVs.

The optimum is the library's brute_force_optimum, which scores every
subset by the diagonal Woodbury identity, up to its guard of 1e6 subsets
per (target, k). One grounded inverse serves every target: computed at
the first, regrounded in place at each later one, and read by the greedy
and by the optimum at every k. A --k-max that would pass the guard for a
sampled target is refused before any work, with the largest k that fits.

Usage:
  python3 scripts/reproduce_quality.py [--graph data/karate.txt] [--k-max 6]
                                       [--targets 20] [--seed 1] [--out results/quality]
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from icmax.cli import _GraphInverse
from icmax.graphs import largest_connected_component, load_edge_list
from icmax.greedy import _BRUTE_FORCE_GUARD, brute_force_optimum, default_candidates, exact_sm
from icmax.rand import seeded_rng


def _largest_k_within_guard(counts: list[int], k_max: int) -> int:
    """Largest k <= k_max for which every target, with counts[i] candidates,
    has at most the oracle's guard of subsets of each size 1..k."""
    k = 0
    while k < k_max and all(math.comb(c, k + 1) <= _BRUTE_FORCE_GUARD for c in counts):
        k += 1
    return k


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graph", default="data/karate.txt")
    ap.add_argument("--k-max", type=int, default=6)
    ap.add_argument("--targets", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="results/quality")
    args = ap.parse_args()

    g, _ = load_edge_list(args.graph)
    g, _ = largest_connected_component(g)
    print(f"graph: {args.graph} (n={g.n}, m={g.m}), k = 1..{args.k_max}, "
          f"{args.targets} targets, seed {args.seed}")

    rng = seeded_rng(args.seed, 41)
    targets = sorted(int(t) for t in rng.choice(g.n, size=min(args.targets, g.n), replace=False))
    counts = [len(default_candidates(g, v)) for v in targets]
    fits = _largest_k_within_guard(counts, args.k_max)
    if fits < args.k_max:
        print(f"error: --k-max {args.k_max} needs more k-subsets of some target's candidates "
              f"than the oracle's guard of {_BRUTE_FORCE_GUARD}; the largest k that fits is {fits}",
              file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    detail_lines = ["target,k,I_greedy,I_oracle,ratio"]
    ratios = {k: [] for k in range(1, args.k_max + 1)}

    started = time.perf_counter()
    inverse = _GraphInverse(g)
    for v in targets:
        cands = default_candidates(g, v)
        k_top = min(args.k_max, len(cands))
        m = inverse.at(v)
        trace = exact_sm(g, v, cands, k_top, m=m)
        for k in range(1, k_top + 1):
            i_greedy = trace.steps[k - 1].centrality
            i_oracle = g.n / brute_force_optimum(g, v, cands, k, m=m)[1]
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
