"""Command-line front end and experiment harness.

Three subcommands:

  optimize      run selected optimizers for one or more targets, write a
                JSON report plus per-(target, algorithm) trace CSVs
  compare-perf  exact-vs-approximate quality/runtime table over sampled
                targets on one graph
  gen           write a generated benchmark graph as an edge list

Configuration comes from an optional flat key=value file plus command-line
flags; flags win. All result artifacts are deterministic for a fixed config
and seed; wall-clock measurements are segregated into timings.json and the
timing columns of the perf table so everything else stays byte-stable.

Exit codes: 0 success, 1 invalid configuration, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .graphs import (
    Graph,
    ParseError,
    generate_ba,
    generate_ws,
    largest_connected_component,
    load_edge_list,
    write_edge_list,
)
from .centrality import CentralityScore, rank_all_by_centrality
from .greedy import (
    BASELINE_STRATEGIES,
    CandidateEdge,
    GreedyTrace,
    _require_budget,
    _require_weight,
    approxi_sm,
    baseline_select,
    brute_force_optimum,
    default_candidates,
    exact_sm,
    insertion_trace,
)
from .linalg import (
    PAPER_LITERAL,
    PRACTICAL,
    SKETCH_CONSTANT,
    SolverSpec,
    SolverConvergenceError,
    _require_epsilon,
    build_laplacian,
    grounded_inverse,
    reground,
    solver_deviation_notes,
)
from .rand import child_seed, seeded_rng

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

ALGORITHMS = ("exact", "approx", *BASELINE_STRATEGIES, "oracle")
FORMATS = ("json", "csv")
_PERF_TARGETS = 20  # targets compare-perf samples when none are given


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one harness invocation depends on.

    Exactly one of graph_path / generate supplies the graph; exactly one of
    targets / random_targets supplies the target nodes (ids are in the input
    file's namespace). Solver fields mirror SolverSpec.
    """

    graph_path: str | None = None
    generate: str | None = None
    targets: tuple[int, ...] = ()
    random_targets: int = 0
    k: int = 1
    algorithms: tuple[str, ...] = ("exact",)
    epsilon: float = 0.3
    weight: float = 1.0
    seed: int = 0
    solver_mode: str = PRACTICAL
    m_cap: int | None = None
    sketch_constant: float = SKETCH_CONSTANT
    out: str = "results"
    formats: tuple[str, ...] = ("json", "csv")

    def validate(self) -> None:
        if (self.graph_path is None) == (self.generate is None):
            raise ConfigError("exactly one of graph/generate must be given")
        if self.graph_path is not None and not Path(self.graph_path).exists():
            raise ConfigError(f"graph file not found: {self.graph_path}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
        if self.targets and self.random_targets:
            raise ConfigError("give explicit targets or a random-target count, not both")
        repeated = [t for i, t in enumerate(self.targets) if t in self.targets[:i]]
        if repeated:
            raise ConfigError(f"target {repeated[0]} is given more than once")
        if self.random_targets < 0:
            raise ConfigError("random_targets must be >= 0")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"unknown format {fmt!r}; expected one of {FORMATS}")
        if not self.formats:
            raise ConfigError("at least one output format is required")
        # the library's own checks, and constructing the spec validates the mode
        try:
            _require_epsilon(self.epsilon)
            _require_weight(self.weight)
            _require_budget(self.m_cap, self.sketch_constant)
            self.solver_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def solver_spec(self, seed: int | None = None) -> SolverSpec:
        return SolverSpec(
            mode=self.solver_mode,
            seed=self.seed if seed is None else seed,
        )


# -- config file + flag merging ------------------------------------------


def _field_kind(hint) -> tuple[bool, type]:
    """(comma-separated list?, element type) of one RunConfig annotation:
    tuple[T, ...] is a list of T, and T | None reads as T."""
    args = [a for a in typing.get_args(hint) if a not in (type(None), Ellipsis)]
    return typing.get_origin(hint) is tuple, args[0] if args else hint


_FIELD_KINDS = {name: _field_kind(hint) for name, hint in typing.get_type_hints(RunConfig).items()}


def _config_key_spellings() -> dict[str, str]:
    """Accepted config-file keys: every RunConfig field name, plus each
    command-line flag spelling of it (dashes read as underscores)."""
    parser = argparse.ArgumentParser(add_help=False)
    _add_shared_flags(parser)
    spellings = {name: name for name in _FIELD_KINDS}
    for action in parser._actions:
        if action.dest in _FIELD_KINDS:
            for flag in action.option_strings:
                spellings[flag.lstrip("-").replace("-", "_")] = action.dest
    return spellings


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    spellings = _config_key_spellings()
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in spellings:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[spellings[key]] = value.strip()
    return values


def _coerce(key: str, value: str):
    is_list, kind = _FIELD_KINDS[key]
    try:
        if is_list:
            return tuple(kind(t.strip()) for t in value.split(",") if t.strip() != "")
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def build_config(file_values: dict[str, str], overrides: dict) -> RunConfig:
    """Defaults <- config file <- CLI overrides (None means not given)."""
    merged: dict = {}
    for key, value in file_values.items():
        merged[key] = _coerce(key, value)
    for key, value in overrides.items():
        if value is None or value == [] or value == ():
            continue
        merged[key] = tuple(value) if _FIELD_KINDS[key][0] else value
    config = RunConfig(**merged)
    config.validate()
    return config


# -- graph plumbing -------------------------------------------------------


def parse_generator_spec(spec: str, default_seed: int = 0) -> tuple[Graph, str, int]:
    """'ws N K P [seed=S]' or 'ba N ATTACH [seed=S]' -> (graph, label, seed
    it was generated with); a seed= token wins over default_seed."""
    tokens = spec.replace(",", " ").split()
    if not tokens:
        raise ConfigError("empty generator spec")
    family, params = tokens[0].lower(), tokens[1:]
    seed = default_seed
    if params and params[-1].startswith("seed="):
        try:
            seed = int(params[-1].split("=", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad seed in generator spec {spec!r}") from exc
        params = params[:-1]
    if family not in ("ws", "ba"):
        raise ConfigError(f"unknown generator family {family!r}; expected ws or ba")
    try:
        if family == "ws":
            n, k_ring, p_rewire = int(params[0]), int(params[1]), float(params[2])
            extra = params[3:]
        else:
            n, attach = int(params[0]), int(params[1])
            extra = params[2:]
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed generator spec {spec!r}") from exc
    if extra:
        raise ConfigError(f"trailing tokens in generator spec {spec!r}: {extra}")
    try:
        if family == "ws":
            return generate_ws(n, k_ring, p_rewire, seed), f"ws-{n}-{k_ring}-{p_rewire}", seed
        return generate_ba(n, attach, seed), f"ba-{n}-{attach}", seed
    except ValueError as exc:
        raise ConfigError(f"generator spec {spec!r}: {exc}") from exc


def _obtain_graph(config: RunConfig) -> tuple[Graph, np.ndarray, str]:
    """Returns (LCC graph, internal->original id map, label)."""
    if config.graph_path is not None:
        g, ids = load_edge_list(config.graph_path)
        label = Path(config.graph_path).stem
    else:
        g, label, _ = parse_generator_spec(config.generate, default_seed=child_seed(config.seed, 40))
        ids = np.arange(g.n)
    full_n = g.n
    g, lcc_ids = largest_connected_component(g)
    ids = ids[lcc_ids]
    if g.n < full_n:
        print(
            f"warning: graph is disconnected; using largest component "
            f"({g.n} of {full_n} nodes)",
            file=sys.stderr,
        )
    return g, ids, label


def _resolve_targets(config: RunConfig, g: Graph, ids: np.ndarray) -> list[int]:
    """Internal ids of the requested targets."""
    if config.random_targets:
        if config.random_targets > g.n:
            raise ConfigError(f"cannot sample {config.random_targets} targets from {g.n} nodes")
        rng = seeded_rng(config.seed, 41)
        return sorted(int(t) for t in rng.choice(g.n, size=config.random_targets, replace=False))
    if not config.targets:
        raise ConfigError("no targets given; use explicit target ids or a random-target count")
    lookup = {int(orig): internal for internal, orig in enumerate(ids)}
    out = []
    for t in config.targets:
        if t not in lookup:
            raise ConfigError(f"target {t} is not a node of the (largest component of the) graph")
        out.append(lookup[t])
    return out


# -- running algorithms ---------------------------------------------------


class _GraphInverse:
    """One dense grounded inverse for all of a graph's targets: computed by
    grounded_inverse at the first target that reads it, and regrounded in
    place at each later one, so a run holds one n x n array, in node order
    with a zero row and column at the node it is grounded at. It is
    writeable only while it is regrounded."""

    def __init__(self, g: Graph):
        self.g = g
        self.m: np.ndarray | None = None
        self.v = -1  # the node m is grounded at

    def at(self, v: int) -> np.ndarray:
        if self.m is None:
            self.m = grounded_inverse(build_laplacian(self.g), v)
        elif v != self.v:
            self.m.flags.writeable = True
            reground(self.m, self.v, v)
        self.m.flags.writeable = False  # one algorithm's write would corrupt the next
        self.v = v
        return self.m


@dataclass
class _Target:
    """One target v of g, with the read-only inputs that its algorithms
    share: the candidate edges at v, built once; the run's centrality
    ranking; and m, the n x n inverse grounded at v, node u at row u and
    zero at v, read from inverse at first use (from a fresh one when none
    is given). inverse is regrounded at the run's next target, so m is
    valid until that target reads it."""

    g: Graph
    v: int
    weight: float
    ranking: list[CentralityScore] | None = None
    inverse: _GraphInverse | None = None
    m_seconds: float = 0.0  # spent grounding m at v, once it is read

    @cached_property
    def candidates(self) -> list[CandidateEdge]:
        return default_candidates(self.g, self.v, self.weight)

    @cached_property
    def m(self) -> np.ndarray:
        started = time.perf_counter()
        m = (self.inverse or _GraphInverse(self.g)).at(self.v)
        self.m_seconds = time.perf_counter() - started
        return m


def _oracle_trace(target: _Target, k: int) -> GreedyTrace:
    """Brute-force optimum, replayed as an insertion trace for uniform output."""
    g, v = target.g, target.v
    edges, _ = brute_force_optimum(g, v, target.candidates, k, m=target.m)
    others = {u if w == v else w for u, w in edges}
    picked = sorted(c for c in target.candidates if c.other in others)  # by other endpoint
    return insertion_trace(g, v, picked, "oracle", 0, m=target.m)


def run_algorithm(algo: str, target: _Target, k: int, config: RunConfig) -> GreedyTrace:
    g, v, candidates = target.g, target.v, target.candidates
    if algo == "exact":
        return exact_sm(g, v, candidates, k, m=target.m)
    if algo == "approx":
        spec = config.solver_spec(seed=child_seed(config.seed, 50, v))
        return approxi_sm(
            g,
            v,
            candidates,
            k,
            config.epsilon,
            spec,
            m_cap=config.m_cap,
            sketch_constant=config.sketch_constant,
        )
    if algo == "oracle":
        return _oracle_trace(target, k)
    if algo in BASELINE_STRATEGIES:
        return baseline_select(
            g, v, candidates, k, algo, seed=child_seed(config.seed, 51, v),
            m=target.m, ranking=target.ranking,
        )
    raise ConfigError(f"unknown algorithm {algo!r}")


@dataclass
class RunReport:
    """In-memory result of cmd_optimize: traces plus derived aggregates.

    traces[target][algorithm] uses internal node ids; serialization maps
    them back through id_map. wall_seconds is kept apart from the
    deterministic payload.
    """

    config: RunConfig
    graph_label: str
    id_map: np.ndarray
    traces: dict[int, dict[str, GreedyTrace]]
    wall_seconds: dict[int, dict[str, float]]
    shared_seconds: dict[str, float] = field(default_factory=dict)
    deviation_flags: list[str] = field(default_factory=list)

    def aggregate_series(self, value: str) -> dict[str, list[float]]:
        """Per-algorithm mean trajectory over targets; index = step (0 = start)."""
        out: dict[str, list[float]] = {}
        for algo in self.config.algorithms:
            per_target = []
            for target_traces in self.traces.values():
                trace = target_traces[algo]
                if value == "resistance":
                    series = [trace.initial_resistance] + [s.resistance for s in trace.steps]
                else:
                    series = [trace.initial_centrality] + [s.centrality for s in trace.steps]
                per_target.append(series)
            out[algo] = [float(sum(col)) / len(per_target) for col in zip(*per_target)]
        return out

    def payload(self) -> dict:
        """Deterministic JSON payload (no wall-clock data)."""
        ids = self.id_map
        traces_out: dict[str, dict] = {}
        for target, per_algo in self.traces.items():
            entry = {}
            for algo, trace in per_algo.items():
                d = trace.to_dict()
                d["target"] = int(ids[trace.target])
                for step in d["steps"]:
                    step["edge"] = [int(ids[step["edge"][0]]), int(ids[step["edge"][1]])]
                entry[algo] = d
            traces_out[str(int(ids[target]))] = entry
        config_echo = asdict(self.config)
        return {
            "graph": self.graph_label,
            "config": config_echo,
            "deviation_flags": list(self.deviation_flags),
            "traces": traces_out,
            "aggregates": {
                "mean_resistance": self.aggregate_series("resistance"),
                "mean_centrality": self.aggregate_series("centrality"),
            },
        }

    def timings_payload(self) -> dict:
        """Wall-clock seconds: per (target, algorithm), per algorithm, and
        per greedy step of every trace. Work that algorithms share is
        charged to none of them: seconds_total lists it under the name of
        the function that does it, so that its values still sum to all the
        optimizer work of the run. grounded_inverse covers the run's one
        dense inverse and its regrounding at every later target that reads
        it (see _GraphInverse); rank_all_by_centrality covers the ranking."""
        ids = self.id_map
        per_target = {
            str(int(ids[t])): {algo: secs for algo, secs in per_algo.items()}
            for t, per_algo in self.wall_seconds.items()
        }
        totals: dict[str, float] = dict(self.shared_seconds)
        for per_algo in self.wall_seconds.values():
            for algo, secs in per_algo.items():
                totals[algo] = totals.get(algo, 0.0) + secs
        per_step = {
            str(int(ids[t])): {algo: list(trace.step_seconds) for algo, trace in per_algo.items()}
            for t, per_algo in self.traces.items()
        }
        return {"seconds_per_target": per_target, "seconds_total": totals, "step_seconds": per_step}


def _deviation_flags(config: RunConfig) -> list[str]:
    flags = []
    if "approx" in config.algorithms:
        flags.extend(solver_deviation_notes(config.solver_spec()))
        if config.m_cap is not None:
            flags.append(
                f"estimator sample count capped at {config.m_cap}; the e^(+-eps) "
                "estimate guarantee is voided"
            )
        if config.sketch_constant != SKETCH_CONSTANT:
            flags.append(
                f"resistance sketch uses constant {config.sketch_constant} "
                f"instead of {SKETCH_CONSTANT:g}; "
                "the sketch accuracy guarantee is voided"
            )
    return flags


def _check_target_capacity(config: RunConfig, g: Graph, ids: np.ndarray, targets: list[int]) -> None:
    for v in targets:
        available = g.n - 1 - g.degree(v)
        if config.k > available:
            raise ConfigError(
                f"target {int(ids[v])}: k={config.k} exceeds the "
                f"{available} available candidate edges"
            )


def cmd_optimize(config: RunConfig) -> RunReport:
    config.validate()
    g, ids, label = _obtain_graph(config)
    targets = _resolve_targets(config, g, ids)
    _check_target_capacity(config, g, ids, targets)

    ranking = None
    shared: dict[str, float] = {}  # seconds of the work algorithms share
    if "top-cent" in config.algorithms:
        started = time.perf_counter()
        ranking = rank_all_by_centrality(g)
        shared["rank_all_by_centrality"] = time.perf_counter() - started
    inverse = _GraphInverse(g)
    traces: dict[int, dict[str, GreedyTrace]] = {}
    walls: dict[int, dict[str, float]] = {}
    for v in targets:
        target = _Target(g, v, config.weight, ranking, inverse)
        traces[v] = {}
        walls[v] = {}
        for algo in config.algorithms:
            m_seconds = target.m_seconds
            started = time.perf_counter()
            traces[v][algo] = run_algorithm(algo, target, config.k, config)
            # m's time, if this algorithm read it first, is shared
            walls[v][algo] = time.perf_counter() - started - (target.m_seconds - m_seconds)
        if target.m_seconds:
            shared["grounded_inverse"] = shared.get("grounded_inverse", 0.0) + target.m_seconds

    report = RunReport(config, label, ids, traces, walls, shared)
    report.deviation_flags = _deviation_flags(config)
    _write_optimize_outputs(report)
    return report


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return float.__repr__(x)  # an np.float64 too, without NumPy's own repr
    return "" if x is None else str(x)


def csv_text(header: typing.Sequence, rows: typing.Iterable[typing.Sequence]) -> str:
    """The one CSV format that the CLI and the scripts write: the header,
    then one line per row, each ended by a newline. A float cell is written
    by Python's float repr, so it reads back exactly; None is an empty
    cell; anything else is written by str."""
    return "".join(",".join(map(_csv_cell, line)) + "\n" for line in (header, *rows))


def trace_csv_lines(trace: GreedyTrace, ids: np.ndarray) -> str:
    """The trace's CSV text, in original ids; step 0 has no edge."""
    rows = [(0, None, None, trace.initial_resistance, trace.initial_centrality)]
    for i, s in enumerate(trace.steps, start=1):
        rows.append((i, int(ids[s.edge[0]]), int(ids[s.edge[1]]), s.resistance, s.centrality))
    return csv_text(("step", "edge_u", "edge_v", "R_v", "I_v"), rows)


def _write_optimize_outputs(report: RunReport) -> None:
    out = Path(report.config.out)
    out.mkdir(parents=True, exist_ok=True)
    ids = report.id_map
    if "json" in report.config.formats:
        (out / "report.json").write_text(
            json.dumps(report.payload(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if "csv" in report.config.formats:
        for target, per_algo in report.traces.items():
            for algo, trace in per_algo.items():
                name = f"trace_target{int(ids[target])}_{algo}.csv"
                (out / name).write_text(trace_csv_lines(trace, ids), encoding="utf-8")
        algos = report.config.algorithms
        for value, fname in (("resistance", "aggregate_resistance.csv"), ("centrality", "aggregate_centrality.csv")):
            series = report.aggregate_series(value)
            rows = ([step] + [series[a][step] for a in algos] for step in range(report.config.k + 1))
            (out / fname).write_text(csv_text(("step", *algos), rows), encoding="utf-8")
    (out / "timings.json").write_text(
        json.dumps(report.timings_payload(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_compare_perf(config: RunConfig) -> dict:
    config.validate()
    if set(config.algorithms) != {"exact", "approx"}:
        raise ConfigError("compare-perf requires both 'exact' and 'approx' algorithms and runs no "
                          f"other; got {', '.join(config.algorithms)}")
    g, ids, label = _obtain_graph(config)

    sampled = config
    if not (config.targets or config.random_targets):
        sampled = replace(config, random_targets=min(_PERF_TARGETS, g.n))
    targets = _resolve_targets(sampled, g, ids)
    _check_target_capacity(config, g, ids, targets)

    times = {"exact": [], "approx": []}
    traces = {"exact": [], "approx": []}
    for v in targets:
        for algo in ("approx", "exact"):
            started = time.perf_counter()
            traces[algo].append(run_algorithm(algo, _Target(g, v, config.weight), config.k, config))
            times[algo].append(time.perf_counter() - started)
    finals = {algo: [trace.final_centrality for trace in ts] for algo, ts in traces.items()}

    def mean(xs):
        return float(sum(xs)) / len(xs)

    row = {
        "graph": label,
        "n": g.n,
        "m": g.m,
        "k": config.k,
        "targets": len(targets),
        "mean_time_approx": mean(times["approx"]),
        "mean_time_exact": mean(times["exact"]),
        "time_ratio": mean(times["approx"]) / mean(times["exact"]),
        "mean_centrality_approx": mean(finals["approx"]),
        "mean_centrality_exact": mean(finals["exact"]),
        "centrality_ratio": mean(finals["approx"]) / mean(finals["exact"]),
        "deviation_flags": _deviation_flags(config),
    }

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    # full table includes wall-clock columns and is inherently run-dependent
    table_cols = ("graph", "mean_time_approx", "mean_time_exact", "time_ratio",
                  "mean_centrality_approx", "mean_centrality_exact", "centrality_ratio")
    (out / "perf_table.csv").write_text(csv_text(table_cols, [[row[c] for c in table_cols]]), encoding="utf-8")
    # deterministic companion: centrality columns only
    det_cols = ("graph", "n", "m", "k", "targets",
                "mean_centrality_approx", "mean_centrality_exact", "centrality_ratio")
    (out / "perf_results.csv").write_text(csv_text(det_cols, [[row[c] for c in det_cols]]), encoding="utf-8")
    return row


def cmd_gen(spec_tokens: list[str], out_path: str, seed: int = 0) -> Path:
    g, label, seed = parse_generator_spec(" ".join(spec_tokens), default_seed=seed)
    comments = [f"generated: {label} seed={seed}", f"n={g.n} m={g.m}"]
    return write_edge_list(g, out_path, comments=comments)


# -- argument parsing ------------------------------------------------------


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--graph", dest="graph_path", help="edge-list file to load")
    p.add_argument("--generate", help="generator spec, e.g. 'ws 1000 4 0.1' or 'ba 500 2'")
    p.add_argument("--target", dest="targets", type=int, action="append",
                   help="target node id (repeatable; ids from the input file)")
    p.add_argument("--random-targets", dest="random_targets", type=int,
                   help="sample this many distinct targets instead of naming them")
    p.add_argument("--k", type=int, help="number of edges to add")
    p.add_argument("--algo", dest="algorithms", action="append", choices=ALGORITHMS,
                   help="algorithm to run (repeatable)")
    p.add_argument("--epsilon", type=float, help="accuracy parameter for approx")
    p.add_argument("--weight", type=float, help="candidate edge weight")
    p.add_argument("--seed", type=int, help="master seed for all randomness")
    p.add_argument("--solver-mode", dest="solver_mode", choices=[PRACTICAL, PAPER_LITERAL])
    p.add_argument("--m-cap", dest="m_cap", type=int,
                   help="cap the estimator sample count (voids the accuracy guarantee)")
    p.add_argument("--sketch-constant", dest="sketch_constant", type=float,
                   help=f"leading constant of the resistance sketch size (default {SKETCH_CONSTANT:g})")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", dest="formats", action="append", choices=FORMATS,
                   help="output format (repeatable; default json and csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmax",
        description="maximize a node's information centrality by adding incident edges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run optimizers and write traces")
    _add_shared_flags(p_opt)

    p_perf = sub.add_parser("compare-perf", help="exact-vs-approx quality and runtime table")
    _add_shared_flags(p_perf)

    p_gen = sub.add_parser("gen", help="generate a benchmark graph file")
    p_gen.add_argument("spec", nargs="+",
                       help="generator spec tokens, e.g. ws 50 4 0.1 [seed=7]")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output edge-list path")
    return parser


def _config_from_args(args: argparse.Namespace, default_algorithms: tuple[str, ...]) -> RunConfig:
    """The RunConfig of one subcommand's parsed args, built and validated
    once by build_config: RunConfig's defaults <- the subcommand's
    default_algorithms <- the config file (--config) <- the flags. The
    default algorithms stand where neither the file nor the flags name one."""
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {key: getattr(args, key, None) for key in _FIELD_KINDS}
    if not (file_values.get("algorithms") or overrides["algorithms"]):
        overrides["algorithms"] = default_algorithms
    return build_config(file_values, overrides)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            path = cmd_gen(args.spec, args.out, seed=args.seed)
            print(path)
        elif args.command == "optimize":
            config = _config_from_args(args, default_algorithms=("exact",))
            report = cmd_optimize(config)
            for flag in report.deviation_flags:
                print(f"note: {flag}", file=sys.stderr)
            print(Path(config.out).resolve())
        else:
            config = _config_from_args(args, default_algorithms=("exact", "approx"))
            row = cmd_compare_perf(config)
            for flag in row["deviation_flags"]:
                print(f"note: {flag}", file=sys.stderr)
            print(
                f"{row['graph']}: centrality ratio {row['centrality_ratio']:.4f}, "
                f"time ratio {row['time_ratio']:.4f}"
            )
        return EXIT_OK
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # a ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
