#!/usr/bin/env python3
"""Greedy-vs-optimum quality sweep on a real network.

For a sample of target nodes, runs the exact greedy for k = 1..K and compares
each prefix against the true optimal k-subset of incident candidate edges,
found by exhaustive enumeration. Writes per-target and aggregate CSVs.

The optimum is the library's brute_force_optimum, which scores every
subset by the diagonal Woodbury identity, up to its guard of 1e6 subsets
per (target, k); I_oracle is read off its subset's insertion trace, as
`icmax optimize --algo oracle` reports it. One grounded inverse serves
every target: computed at the first, regrounded in place at each later
one, and read by the greedy and by the optimum at every k. An unreadable
--graph, a --targets or --k-max below 1, or a --k-max that would pass the
guard for a sampled target, is refused before any work, the last with the
largest k that fits. A run that compares no (target, k) pair exits nonzero.

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

from icmax.cli import _GraphInverse, _oracle_trace, _Target, csv_text
from icmax.graphs import ParseError, largest_connected_component, load_edge_list
from icmax.greedy import _BRUTE_FORCE_GUARD, exact_sm
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
    if args.targets < 1 or args.k_max < 1:
        ap.error(f"--targets and --k-max must be at least 1; got {args.targets} and {args.k_max}")

    try:
        g, _ = load_edge_list(args.graph)
    except ParseError as exc:  # unreadable or malformed, as the CLI reports it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    g, _ = largest_connected_component(g)
    print(f"graph: {args.graph} (n={g.n}, m={g.m}), k = 1..{args.k_max}, "
          f"{args.targets} targets, seed {args.seed}")

    rng = seeded_rng(args.seed, 41)
    inverse = _GraphInverse(g)
    targets = [_Target(g, int(v), 1.0, inverse=inverse)
               for v in sorted(rng.choice(g.n, size=min(args.targets, g.n), replace=False))]
    fits = _largest_k_within_guard([len(target.candidates) for target in targets], args.k_max)
    if fits < args.k_max:
        print(f"error: --k-max {args.k_max} needs more k-subsets of some target's candidates "
              f"than the oracle's guard of {_BRUTE_FORCE_GUARD}; the largest k that fits is {fits}",
              file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    detail = []
    ratios: dict[int, list[float]] = {}

    started = time.perf_counter()
    for target in targets:
        k_top = min(args.k_max, len(target.candidates))
        trace = exact_sm(g, target.v, target.candidates, k_top, m=target.m)
        for k in range(1, k_top + 1):
            i_greedy = trace.steps[k - 1].centrality
            i_oracle = _oracle_trace(target, k).final_centrality
            ratio = i_greedy / i_oracle
            ratios.setdefault(k, []).append(ratio)
            detail.append((target.v, k, i_greedy, i_oracle, ratio))
        print(f"  target {target.v:3d}: ratios "
              + " ".join(f"{ratios[k][-1]:.4f}" for k in range(1, k_top + 1)))

    (out / "quality_detail.csv").write_text(
        csv_text(("target", "k", "I_greedy", "I_oracle", "ratio"), detail), encoding="utf-8")

    summary = []
    print("\nk  mean ratio  min ratio")
    for k, rs in sorted(ratios.items()):
        mean_r = sum(rs) / len(rs)
        summary.append((k, mean_r, min(rs), len(rs)))
        print(f"{k}  {mean_r:.4f}      {min(rs):.4f}")
    (out / "quality_summary.csv").write_text(
        csv_text(("k", "mean_ratio", "min_ratio", "targets"), summary), encoding="utf-8")

    print(f"\nwrote {out}/quality_detail.csv and {out}/quality_summary.csv "
          f"({time.perf_counter() - started:.1f}s)")
    if not summary:
        print("error: no (target, k) pair was compared: no target has a candidate edge", file=sys.stderr)
        return 1
    worst_mean = min(mean_r for _, mean_r, _, _ in summary)
    print(f"worst per-k mean ratio: {worst_mean:.4f} "
          f"({'>= 0.98' if worst_mean >= 0.98 else 'BELOW the expected 0.98'})")
    return 0 if worst_mean >= 0.98 else 1


if __name__ == "__main__":
    sys.exit(main())
