#!/usr/bin/env python3
"""Exact-vs-approximate comparison table over generated benchmark graphs.

For each graph family/size, runs both optimizers on a sample of targets at
k = 10 and reports mean wall-clock time, the time ratio, mean final
centralities, and the quality ratio, one row per graph.

By default the estimator runs with a truncated sample budget and a reduced
sketch size (the accuracy guarantee is voided but the selections barely
move); pass --literal for the untruncated estimator, and expect it to be
much slower. Times are wall-clock and hardware-dependent; the quality
columns are deterministic for a fixed seed. A bad size or family list,
or a --targets below 1, ends the run with one "error:" line and exit code 2.

Usage:
  python3 scripts/reproduce_perf.py [--sizes 500,1000,2000] [--families ws,ba]
                                    [--k 10] [--targets 5] [--seed 0]
                                    [--literal] [--out results/perf]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from icmax.cli import RunConfig, cmd_compare_perf, csv_text
from icmax.linalg import SKETCH_CONSTANT

COLUMNS = (
    "graph", "n", "m", "k", "targets",
    "mean_time_approx", "mean_time_exact", "time_ratio",
    "mean_centrality_approx", "mean_centrality_exact", "centrality_ratio",
)

GENERATORS = {
    "ws": lambda n: f"ws {n} 4 0.1",
    "ba": lambda n: f"ba {n} 4",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="500,1000,2000",
                    help="comma-separated node counts")
    ap.add_argument("--families", default="ws,ba",
                    help="comma-separated generator families (ws, ba)")
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--targets", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epsilon", type=float, default=RunConfig.epsilon)
    ap.add_argument("--literal", action="store_true",
                    help="untruncated estimator (slow, guarantee intact)")
    ap.add_argument("--out", default="results/perf")
    args = ap.parse_args()
    if args.targets < 1:
        ap.error(f"--targets must be at least 1; got {args.targets}")

    out = Path(args.out)
    rows = []
    started = time.perf_counter()
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        families = [f.strip() for f in args.families.split(",") if f.strip()]
        if not sizes or not families:
            raise ValueError("--sizes and --families must each name at least one entry")
        for fam in families:
            if fam not in GENERATORS:
                raise ValueError(f"unknown family {fam!r}; choose from {sorted(GENERATORS)}")
        for fam in families:
            for n in sizes:
                config = RunConfig(
                    generate=GENERATORS[fam](n),
                    k=args.k,
                    algorithms=("exact", "approx"),
                    epsilon=args.epsilon,
                    seed=args.seed,
                    m_cap=None if args.literal else 256,
                    sketch_constant=SKETCH_CONSTANT if args.literal else 2.0,
                    out=str(out / f"{fam}-{n}"),
                    random_targets=args.targets,
                )
                row = cmd_compare_perf(config)
                rows.append(row)
                print(
                    f"{row['graph']:>16}: n={row['n']:>5}  "
                    f"time {row['mean_time_approx']:.2f}s vs {row['mean_time_exact']:.2f}s "
                    f"(ratio {row['time_ratio']:.3f})  "
                    f"quality ratio {row['centrality_ratio']:.4f}"
                )
    except ValueError as exc:  # a bad list, or a ConfigError of a run
        print(f"error: {exc}", file=sys.stderr)
        return 2

    (out / "table.csv").write_text(csv_text(COLUMNS, ([row[c] for c in COLUMNS] for row in rows)),
                                   encoding="utf-8")
    if not args.literal:
        print("note: estimator sample count capped and sketch size reduced; "
              "accuracy guarantees voided (pass --literal to lift)")
    print(f"wrote {out}/table.csv ({time.perf_counter() - started:.1f}s)")

    worst = min(row["centrality_ratio"] for row in rows)
    print(f"worst quality ratio: {worst:.4f} "
          f"({'>= 0.98' if worst >= 0.98 else 'BELOW the expected 0.98'})")
    return 0 if worst >= 0.98 else 1


if __name__ == "__main__":
    sys.exit(main())
