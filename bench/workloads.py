"""The benchmark's four workloads: instance set-up, one timed pass, checks.

Every workload builds its inputs from an optional integer seed and hands
the optimizers only the generated graph, target and solver spec. Without a
seed it is the acceptance-test instance it is named after.

Optimizers are called through their module (``greedy.exact_sm``), never
through a name bound here, so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from icmax import cli, graphs, greedy, linalg, rand

from reference import GroundedInverse

EPSILON = 0.3
QUALITY_FLOOR = 0.98  # the ROADMAP gate for approx against exact greedy
RESISTANCE_RTOL = 1e-9
GREEDY_BOUND = 1.0 - 1.0 / math.e


@dataclass
class Attempt:
    """One optimizer call or CLI invocation inside a pass."""

    label: str
    edges: int = 0
    optimizer_s: float = 0.0
    output: object = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Quality:
    """Output-derived end-to-end values of a run (nan when nothing succeeded)."""

    quality_ratio: float = math.nan
    value_error: float = math.nan


def _attempt(label: str, call) -> Attempt:
    """Run call() -> (output, edges); an exception is a failed attempt."""
    attempt = Attempt(label)
    started = perf_counter()
    try:
        attempt.output, attempt.edges = call()
    except Exception:
        attempt.problems.append("raised:\n" + traceback.format_exc())
    attempt.optimizer_s = perf_counter() - started
    return attempt


def _check_selection(g, v: int, edges, k: int) -> list[str]:
    """k distinct new edges, each incident to v."""
    others = [a if b == v else b for a, b in edges]
    problems = []
    if len(edges) != k:
        problems.append(f"selected {len(edges)} edges, expected {k}")
    if any(v not in e for e in edges):
        problems.append(f"an edge of {edges} does not touch target {v}")
    if len(set(others)) != len(others) or any(g.has_edge(u, v) for u in others):
        problems.append(f"selection {edges} repeats an edge or adds an existing one")
    return problems


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@dataclass(frozen=True)
class Instance:
    g: object
    v: int
    candidates: list


@dataclass(frozen=True)
class GreedyWorkload:
    """One optimizer call on a fixed Watts-Strogatz graph.

    Without a seed the target and solver seed are those of the acceptance
    test the workload is named after. A seed draws both afresh on the same
    graph, so every seed does the same amount of work: between graph seeds
    the LU fill, which sets the cost of every sparse solve, varies by up
    to 20 %.
    """

    graph_seed: int
    n: int
    k: int
    acceptance_target: Callable  # graph -> target of the acceptance test
    approx: dict | None  # approxi_sm keyword options; None runs exact_sm
    acceptance_spec_seed: Callable | None = None  # target -> solver seed of the acceptance test
    expected_edges: tuple | None = None  # the acceptance test's selection

    def setup(self, seed: int | None) -> Instance:
        g = graphs.generate_ws(self.n, 4, 0.1, seed=self.graph_seed)
        if seed is None:
            v = self.acceptance_target(g)
        else:
            v = int(rand.seeded_rng(seed, 41).integers(g.n))
        return Instance(g, v, greedy.default_candidates(g, v))

    def spec_seed(self, seed: int | None, v: int) -> int:
        return self.acceptance_spec_seed(v) if seed is None else rand.child_seed(seed, 50, v)

    def run_pass(self, seed: int | None, out_dir: Path) -> list[Attempt]:
        inst = self.setup(seed)
        if self.approx is None:
            def call():
                trace = greedy.exact_sm(inst.g, inst.v, inst.candidates, self.k)
                return trace, len(trace.edges)
            return [_attempt("exact_sm", call)]

        spec = linalg.SolverSpec(seed=self.spec_seed(seed, inst.v))

        def call():
            trace = greedy.approxi_sm(inst.g, inst.v, inst.candidates, self.k, EPSILON, spec, **self.approx)
            return trace, len(trace.edges)
        return [_attempt("approxi_sm", call)]

    def check(self, seed: int | None, passes: list[list[Attempt]], out_dir: Path) -> Quality:
        inst = self.setup(seed)
        attempts = [a for p in passes for a in p if a.output is not None]
        if not attempts:
            return Quality()
        first = attempts[0].output
        for a in attempts[1:]:
            if a.output.to_dict() != first.to_dict():
                a.problems.append("pass differs from the first pass of the same seed")

        ref = GroundedInverse(inst.g, inst.v)
        others = [c.other for c in inst.candidates]
        weights = [c.weight for c in inst.candidates]
        _, _, _, best_resistance = ref.greedy(others, weights, self.k)
        chosen = [a if b == inst.v else b for a, b in first.edges]
        picked, gains, best, resistance = ref.greedy(others, weights, len(chosen), follow=chosen)
        exact_centrality = inst.g.n / resistance
        quality = Quality(
            quality_ratio=best_resistance / resistance,
            value_error=_rel(first.final_centrality, exact_centrality),
        )

        problems = _check_selection(inst.g, inst.v, first.edges, self.k)
        if self.approx is None:
            expected = self.expected_edges if seed is None else None
            if expected is not None and tuple(first.edges) != expected:
                problems.append(f"selected {first.edges}, stored expectation {expected}")
            for step, (u, gain, top) in enumerate(zip(picked, gains, best), start=1):
                if gain < top * (1.0 - RESISTANCE_RTOL):
                    problems.append(f"round {step}: edge to {u} gains {gain!r}, best is {top!r}")
            # reference.py grounds the augmented graph itself; a second dense
            # evaluation through icmax.centrality would add 8 s to every run
            if _rel(first.final_resistance, resistance) > RESISTANCE_RTOL:
                problems.append(f"final R_v {first.final_resistance!r} != reference {resistance!r}")
        elif quality.quality_ratio < QUALITY_FLOOR:
            problems.append(f"quality ratio {quality.quality_ratio:.4f} < {QUALITY_FLOOR}")
        for a in attempts:
            a.problems.extend(problems)
        return quality


@dataclass(frozen=True)
class CliWorkload:
    """Two in-process ``icmax optimize`` invocations per pass.

    The karate run is configs/karate_oracle.cfg as shipped. The second is
    the configs/ws_baselines.cfg instance without approx, at the seed if one
    is given (else at the config's own). The check invokes the karate
    config once more, untimed, and compares the two invocations' files byte
    for byte (timings.json aside, which holds wall-clock seconds); a second
    ws invocation would add its 15 s to every run.
    """

    KARATE_CONFIG = "configs/karate_oracle.cfg"
    WS_CONFIG = "configs/ws_baselines.cfg"
    WS_ALGOS = ("exact", "random", "top-degree", "top-cent")

    def argv(self, seed: int | None, out_dir: Path) -> dict[str, list[str]]:
        ws = ["optimize", "--config", self.WS_CONFIG]
        if seed is not None:
            ws += ["--seed", str(seed)]
        for algo in self.WS_ALGOS:
            ws += ["--algo", algo]
        return {
            "karate": ["optimize", "--config", self.KARATE_CONFIG, "--out", str(out_dir / "karate")],
            "ws": ws + ["--out", str(out_dir / "ws")],
        }

    def setup(self, seed: int | None) -> dict[str, tuple]:
        """What the CLI does before its first optimizer call, through its own
        code: parse the arguments and config, then load or generate the graph
        and keep its largest component. Gives each invocation's (graph, ids)."""
        parser = cli.build_parser()
        instances = {}
        for label, argv in self.argv(seed, Path(".bench_out")).items():
            config = cli._config_from_args(parser.parse_args(argv), ("exact",))
            g, ids, _ = cli._obtain_graph(config)
            instances[label] = (g, ids)
        return instances

    @staticmethod
    def _invoke(label: str, argv: list[str]) -> Attempt:
        """One invocation; the attempt's output is its files, read back."""
        out = Path(argv[-1])

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"icmax {' '.join(argv)} exited with {code}")
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            report = json.loads(files["report.json"])
            edges = sum(len(t["steps"]) for per in report["traces"].values() for t in per.values())
            return files, edges

        attempt = _attempt(label, call)
        if attempt.output is not None:
            timings = json.loads(attempt.output.pop("timings.json"))
            attempt.optimizer_s = sum(timings["seconds_total"].values())
        return attempt

    def run_pass(self, seed: int | None, out_dir: Path) -> list[Attempt]:
        return [self._invoke(label, argv) for label, argv in self.argv(seed, out_dir).items()]

    def check(self, seed: int | None, passes: list[list[Attempt]], out_dir: Path) -> Quality:
        instances = self.setup(seed)
        expect = {"karate": (20, ("exact", "oracle"), 3), "ws": (10, self.WS_ALGOS, 20)}
        firsts: dict[str, Attempt] = {}
        for attempt in (a for p in passes for a in p if a.output is not None):
            first = firsts.setdefault(attempt.label, attempt)
            if first is not attempt and attempt.output != first.output:
                attempt.problems.append("report.json or CSVs differ from the first same-seed invocation")
        if "karate" in firsts:
            # the same arguments, output directory included, as the timed pass
            again = self._invoke("karate", self.argv(seed, out_dir)["karate"])
            if again.problems or again.output != firsts["karate"].output:
                firsts["karate"].problems += again.problems or [
                    "report.json or CSVs differ from a second same-seed invocation"]
        ratios, errors = [], []
        for label, attempt in firsts.items():
            g, ids = instances[label]
            internal = {int(orig): i for i, orig in enumerate(ids)}
            report = json.loads(attempt.output["report.json"])
            n_targets, algos, k = expect[label]
            problems = []
            if len(report["traces"]) != n_targets:
                problems.append(f"{len(report['traces'])} targets, expected {n_targets}")
            for target, per_algo in report["traces"].items():
                v = internal[int(target)]
                ref = GroundedInverse(g, v)
                reductions = {}
                if set(per_algo) != set(algos):
                    problems.append(f"target {target}: algorithms {sorted(per_algo)}, expected {sorted(algos)}")
                for algo, trace in per_algo.items():
                    edges = [tuple(internal[x] for x in s["edge"]) for s in trace["steps"]]
                    problems += [f"target {target} {algo}: {p}" for p in _check_selection(g, v, edges, k)]
                    others = [a if b == v else b for a, b in edges]
                    resistance = ref.resistance_after(others, [s["weight"] for s in trace["steps"]])
                    errors.append(_rel(trace["steps"][-1]["centrality"], g.n / resistance))
                    reductions[algo] = ref.resistance0 - resistance
                if label == "karate" and "oracle" in reductions:
                    ratio = reductions["exact"] / reductions["oracle"]
                    ratios.append(ratio)
                    if ratio < GREEDY_BOUND:
                        problems.append(f"target {target}: greedy/oracle {ratio:.4f} < 1 - 1/e")
            attempt.problems.extend(problems)
        return Quality(
            quality_ratio=min(ratios) if ratios else math.nan,
            value_error=max(errors) if errors else math.nan,
        )


WORKLOADS = {
    "exact-ws5000": GreedyWorkload(
        graph_seed=11,
        n=5000,
        k=10,
        acceptance_target=lambda g: 17,
        approx=None,
        expected_edges=tuple((17, u) for u in (1436, 980, 2922, 3263, 4028, 334, 2367, 4895, 1572, 879)),
    ),
    "approx-ws5000": GreedyWorkload(
        graph_seed=11,
        n=5000,
        k=10,
        acceptance_target=lambda g: 17,
        approx={"m_cap": 256, "sketch_constant": 2.0},
        acceptance_spec_seed=lambda v: rand.child_seed(11, 5000),
    ),
    "approx-ws1000-literal": GreedyWorkload(
        graph_seed=23,
        n=1000,
        k=20,
        # the first of criterion 9's ten targets
        acceptance_target=lambda g: int(min(rand.seeded_rng(77, 41).choice(g.n, size=10, replace=False))),
        approx={},
        acceptance_spec_seed=lambda v: rand.child_seed(77, 50, v),
    ),
    "cli-mix": CliWorkload(),
}
