"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload exact-ws5000 --seed 3 --seconds 5 --trace 0

Without --seed a workload is the acceptance-test instance it is named after.

--trace 0 repeats whole passes of the workload until --seconds have passed
(at least one) and reports the
end-to-end metrics of BENCHMARK.json. --trace 1 makes one untraced pass
and one traced pass and reports the per-layer metrics of BENCHMARK.json,
counted for the traced pass. Either way every pass's outputs are checked, and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it are a readable table plus one ``extra {...}`` JSON line with
figures that BENCHMARK.json cannot bound (value_error, failed_frac, which
are 0 on exact workloads) and the machine record.

The program under test is imported from ``src/`` of the checkout the script
sits in; if it is missing the script exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # one thread: steadier timings and a fixed reduction order
# set-up is timed in batches, half before and half after the passes, and
# reported as the median of each batch's fastest sample: the machine's load
# comes in spells that slow whole stretches of samples, so a batch's fastest
# sample is its least disturbed one, as timeit advises
SETUP_BATCHES = 2  # per side of the passes
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.1
SETUP_MAX_REPEATS = 200
END_TO_END = ("wall_s", "setup_s", "edges_per_s", "peak_rss_mb", "quality_ratio")


def _parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, help="workload seed (default: the acceptance-test instance)")
    p.add_argument("--seconds", type=float, default=5.0, help="minimum measured time of a --trace 0 run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def _import_program():
    """Pin BLAS threads, then import icmax from this checkout's src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "icmax" / "__init__.py").is_file():
        raise ImportError(f"no icmax package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import icmax

    if Path(icmax.__file__).resolve().parent != (src / "icmax").resolve():
        raise ImportError(f"icmax was imported from {icmax.__file__}, not {src}")


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _time_setups(workload, seed: int | None, bests: list[float]) -> None:
    """Append the fastest set-up time of each of SETUP_BATCHES batches. A
    batch has SETUP_MIN_REPEATS samples and SETUP_MIN_SECONDS, whichever
    takes longer (at most SETUP_MAX_REPEATS)."""
    for _ in range(SETUP_BATCHES):
        batch = []
        while len(batch) < SETUP_MIN_REPEATS or (
            sum(batch) < SETUP_MIN_SECONDS and len(batch) < SETUP_MAX_REPEATS
        ):
            # as timeit does: no cyclic collection inside a sample, whose timing
            # would otherwise depend on what earlier passes left on the heap
            gc.collect()
            gc.disable()
            try:
                started = perf_counter()
                workload.setup(seed)
                batch.append(perf_counter() - started)
            finally:
                gc.enable()
        bests.append(min(batch))


def _timed_pass(workload, seed: int | None, out_dir: Path):
    gc.collect()
    started = perf_counter()
    attempts = workload.run_pass(seed, out_dir)
    return attempts, perf_counter() - started


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 0.0


def main(argv=None) -> int:
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = _parse_args(argv, [w["name"] for w in declared["workloads"]])
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    import tracing
    from workloads import WORKLOADS

    prefixes = {hook.prefix for hook in tracing.HOOKS}
    unknown = [e["name"] for e in declared["end_to_end"] if e["name"] not in END_TO_END] + [
        e["name"] for e in declared["per_layer"]
        if e["name"] != "trace.overhead_frac" and e["name"].rsplit(".", 1)[0] not in prefixes
    ]
    if unknown:
        print(f"error: BENCHMARK.json declares metrics this benchmark does not compute: {unknown}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = args.seed
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        setup_times: list[float] = []
        _time_setups(workload, seed, setup_times)
        passes, walls = [], []
        measured = perf_counter()
        if args.trace:
            attempts, wall = _timed_pass(workload, seed, out_dir)
            passes.append(attempts)
            walls.append(wall)
            with tracing.Tracer() as tracer:
                attempts, wall = _timed_pass(workload, seed, out_dir)
            passes.append(attempts)
            walls.append(wall)
        else:
            while not passes or perf_counter() - measured < args.seconds:
                attempts, wall = _timed_pass(workload, seed, out_dir)
                passes.append(attempts)
                walls.append(wall)
        peak_rss_mb = _peak_rss_mb()
        _time_setups(workload, seed, setup_times)
        quality = workload.check(seed, passes, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_out").rmdir()
        except OSError:
            pass

    attempts = [a for p in passes for a in p]
    failed = sum(1 for a in attempts if a.problems)
    optimizer_s = sum(a.optimizer_s for a in attempts)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "edges_per_s": sum(a.edges for a in attempts) / optimizer_s if optimizer_s > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "quality_ratio": _finite(quality.quality_ratio),
    }
    absent = []
    if tracer is not None:
        layers = tracer.layer_stats()
        values = {"trace.overhead_frac": walls[1] / walls[0] - 1.0}
        for entry in declared["per_layer"]:
            name = entry["name"]
            if name in values:
                continue
            value = tracer.value(name, layers)
            if value is None:
                absent.append(name)
            values[name] = 0.0 if value is None else value
        wanted = declared["per_layer"]
    else:
        wanted = declared["end_to_end"]
    for a in attempts:
        for problem in a.problems:
            print(f"FAILED {a.label}: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={'default' if seed is None else seed} trace={args.trace}: {len(passes)} pass(es), "
          f"pass walls {[round(w, 4) for w in walls]}")
    for entry in wanted:
        note = "  (absent: hooked name no longer exists)" if entry["name"] in absent else ""
        print(f"  {entry['name']:<44} {values[entry['name']]:>16.6g} {entry['unit']}{note}")
    extra = {
        "value_error": _finite(quality.value_error),
        "failed_frac": failed / len(attempts),
        "passes": len(passes),
        "wall_s_passes": walls,
        "absent": absent,
        "machine": machine(),
    }
    print(f"  {'value_error':<44} {extra['value_error']:>16.6g} ratio")
    print(f"  {'failed_frac':<44} {extra['failed_frac']:>16.6g} ratio")
    print("extra " + json.dumps(extra, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
