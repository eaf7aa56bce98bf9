"""Run the benchmark over several seeds, twice, and summarise it as a record.

Usage, from the repository root:

    python3 bench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/record.json

Runs ``bench/run.py`` once per (seed, workload) in each of two sets,
interleaving workloads so that a slow spell of the machine touches all of
them. Then, per workload, one untraced run of the acceptance-test instance
(no seed) and traced runs of it and of HELD_OUT_SEED. For every end-to-end
metric it reports, per set, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median, and the shift of the
second set's median from the first's, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
HELD_OUT_SEED = 101  # traced as well, to show every metric is defined off the default instance


def run(workload: str, seed: int | None, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    extra = next(json.loads(line[len("extra "):]) for line in lines if line.startswith("extra "))
    print(f"{workload} seed={seed} trace={trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if trace == 0),
          flush=True)
    return {"seed": seed, "result": result, "extra": extra}


def values(r: dict) -> dict:
    return {**{k: v["value"] for k, v in r["result"]["metrics"].items()},
            "value_error": r["extra"]["value_error"]}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "n": len(values)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=declared["run_seconds"])
    p.add_argument("--out", type=Path, help="write the record here as JSON")
    args = p.parse_args(argv)

    sets = [{w: [] for w in names} for _ in range(SETS)]
    for runs in sets:
        for seed in args.seeds:
            for w in names:
                runs[w].append(run(w, seed, args.seconds, 0))
    default = {w: run(w, None, args.seconds, 0) for w in names}
    traced = {w: [run(w, s, args.seconds, 1) for s in (None, HELD_OUT_SEED)] for w in names}

    record = {"seeds": args.seeds, "seconds": args.seconds, "held_out_seed": HELD_OUT_SEED,
              "workloads": {}}
    for w in names:
        all_runs = [r for runs in sets for r in runs[w]] + [default[w]]
        summaries = [
            {e["name"]: summary([r["result"]["metrics"][e["name"]]["value"] for r in runs[w]])
             for e in declared["end_to_end"]}
            for runs in sets
        ]
        for s, runs in zip(summaries, sets):
            for key in ("value_error", "failed_frac"):
                s[key] = summary([r["extra"][key] for r in runs[w]])
        shift = {}
        for e in declared["end_to_end"]:
            first, second = (s[e["name"]]["median"] for s in summaries)
            change = second / first - 1.0 if first else 0.0
            shift[e["name"]] = change if e["better"] == "lower" else -change
        record["workloads"][w] = {
            "all_correct": all(r["result"]["correct"] for r in all_runs),
            "attempted": sum(r["result"]["attempted"] for r in all_runs),
            "failed": sum(r["result"]["failed"] for r in all_runs),
            "sets": [{"end_to_end": s, "per_run": [{"seed": r["seed"], **values(r)} for r in runs[w]]}
                     for s, runs in zip(summaries, sets)],
            "median_shift": shift,
            "default_seed": values(default[w]),
            "traced": [
                {
                    "seed": "default" if t["seed"] is None else t["seed"],
                    "correct": t["result"]["correct"],
                    "absent": t["extra"]["absent"],
                    "per_layer": {k: v["value"] for k, v in t["result"]["metrics"].items()},
                }
                for t in traced[w]
            ],
        }
    record["machine"] = {**default[names[0]]["extra"]["machine"], "cpu_model": cpu_model()}

    for w, entry in record["workloads"].items():
        for e in declared["end_to_end"]:
            spreads = " ".join("n/a" if s["end_to_end"][e["name"]]["spread"] is None
                               else f"{s['end_to_end'][e['name']]['spread']:.4f}" for s in entry["sets"])
            print(f"{w:<24} {e['name']:<16} median {entry['sets'][0]['end_to_end'][e['name']]['median']:.6g}  "
                  f"spreads {spreads}  worse shift {entry['median_shift'][e['name']]:+.4f}  "
                  f"bound {e['bound']}")
        print(f"{w:<24} default seed: " + " ".join(f"{k}={v:.6g}" for k, v in entry["default_seed"].items()))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
