"""Outside-in tracing of icmax: module-level functions wrapped by name.

A hook names one function by its home module and attribute path. Installing
it replaces the function there and in every loaded ``icmax`` module
namespace that bound the same object by import (``from .linalg import
pseudoinverse`` makes ``icmax.greedy.pseudoinverse`` a second binding), so
calls through any of those names are seen. Nothing under ``src/`` changes.

Each call records a span (name, start, end, parent span) in memory. A
layer's self time is its spans' durations minus the durations of their
direct child spans. Hooks may also count work from the call's arguments or
result. A hook whose target no longer exists is reported absent instead of
failing the run, so deleting a function does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrapped function.

    prefix names its metrics (``linalg.cg`` gives ``linalg.cg.calls`` ...).
    after(stats, arguments, result) adds counts for one call and returns the
    result the caller receives (normally the same object).
    """

    prefix: str
    module: str
    attr: str
    after: Callable[[dict, dict, object], object] | None = None


def _sm_bytes(stats, args, result):
    n = args["pinv"].shape[0]
    stats["linalg.sherman_morrison_update"]["bytes"] += 2 * 8 * n * n
    return result


def _splu_fill(stats, args, result):
    stats["linalg.splu"]["fill_sum"] += result.L.nnz + result.U.nnz
    return result


def _count_preconditioner(stats, args, result):
    """Wrap the returned preconditioner so each application counts its columns."""
    if result is None:
        return None

    def apply(r):
        stats["linalg.cg"]["col_iters"] += r.shape[1] if r.ndim == 2 else 1
        return result(r)

    return apply


def _cg_cols(stats, args, result):
    stats["linalg.cg"]["cols"] += args["rhs"].shape[1]
    return result


def _gain_cols(stats, args, result):
    stats["greedy.exact_gains"]["cols"] += len(args["candidates"])
    return result


def _subsets(stats, args, result):
    stats["greedy.brute_force_optimum"]["subsets"] += math.comb(len(args["candidates"]), args["k"])
    return result


def _entries(stats, args, result):
    stats["rand.rademacher"]["entries"] += result.size
    return result


def _written_bytes(stats, args, result):
    out = Path(args["report"].config.out)
    stats["cli.write_outputs"]["bytes"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return result


HOOKS = (
    Hook("graphs.generate_ws", "icmax.graphs", "generate_ws"),
    Hook("graphs.load_edge_list", "icmax.graphs", "load_edge_list"),
    Hook("graphs.with_edges", "icmax.graphs", "Graph.with_edges"),
    Hook("linalg.build_laplacian", "icmax.linalg", "build_laplacian"),
    Hook("linalg.pseudoinverse", "icmax.linalg", "pseudoinverse"),
    Hook("linalg.sherman_morrison_update", "icmax.linalg", "sherman_morrison_update", _sm_bytes),
    Hook("linalg.splu", "scipy.sparse.linalg", "splu", _splu_fill),
    Hook("linalg.make_preconditioner", "icmax.linalg", "make_preconditioner", _count_preconditioner),
    Hook("linalg.cg", "icmax.linalg", "_cg_multi", _cg_cols),
    Hook("linalg.approx_eff_res", "icmax.linalg", "approx_eff_res"),
    Hook("greedy.exact_gains", "icmax.greedy", "_exact_gains", _gain_cols),
    Hook("greedy.vreff_comp", "icmax.greedy", "_vreff_comp_full"),
    Hook("greedy.brute_force_optimum", "icmax.greedy", "brute_force_optimum", _subsets),
    Hook("greedy.exact_sm", "icmax.greedy", "exact_sm"),
    Hook("greedy.approxi_sm", "icmax.greedy", "approxi_sm"),
    Hook("greedy.baseline_select", "icmax.greedy", "baseline_select"),
    Hook("greedy.insertion_trace", "icmax.greedy", "insertion_trace"),
    Hook("centrality.rank_all_by_centrality", "icmax.centrality", "rank_all_by_centrality"),
    Hook("rand.rademacher", "icmax.rand", "rademacher", _entries),
    Hook("cli.obtain_graph", "icmax.cli", "_obtain_graph"),
    Hook("cli.write_outputs", "icmax.cli", "_write_optimize_outputs", _written_bytes),
)


def _resolve(hook: Hook):
    """(owner object, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    return None if original is None else (owner, name, original)


class Tracer:
    """Installs HOOKS for the duration of a ``with`` block and aggregates spans."""

    def __init__(self):
        self.spans: list[list] = []  # [prefix, start, end, parent index or None]
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        for hook in HOOKS:
            found = _resolve(hook)
            if found is None:
                self.absent.add(hook.prefix)
                continue
            owner, name, original = found
            wrapper = self._wrap(hook, original)
            self._patch(owner, name, original, wrapper)
            if owner is sys.modules.get(hook.module):
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not (mod_name == "icmax" or mod_name.startswith("icmax.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        return False

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, hook: Hook, original):
        signature = inspect.signature(original) if hook.after else None
        stats = self.stats

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [hook.prefix, time.perf_counter(), math.nan, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stats[hook.prefix]["failures"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook.after is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    result = hook.after(stats, bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    # the call's shape changed; its counts are no longer measurable
                    self.absent.add(hook.prefix + ".counts")
            return result

        return wrapper

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per-prefix calls, seconds, self seconds and counts, with derived ratios."""
        child_s = [0.0] * len(self.spans)
        for prefix, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {prefix: dict(values) for prefix, values in self.stats.items()}
        for i, (prefix, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(prefix, {})
            entry["calls"] = entry.get("calls", 0.0) + 1
            entry["s"] = entry.get("s", 0.0) + (end - start)
            entry["self_s"] = entry.get("self_s", 0.0) + (end - start - child_s[i])
        sm = out.get("linalg.sherman_morrison_update", {})
        if sm.get("s"):
            sm["gbps_computed"] = sm["bytes"] / sm["s"] / 1e9
        lu = out.get("linalg.splu", {})
        if lu.get("calls"):
            lu["fill_nnz"] = lu["fill_sum"] / lu["calls"]
        cg = out.get("linalg.cg", {})
        if cg.get("cols"):
            cg["iters_per_col"] = cg.get("col_iters", 0.0) / cg["cols"]
        return out

    def value(self, metric: str, layers: dict) -> float | None:
        """``<prefix>.<stat>`` from layer_stats(); 0 when never called, None when absent."""
        prefix, stat = metric.rsplit(".", 1)
        if prefix in self.absent or (
            stat not in ("calls", "s", "self_s") and prefix + ".counts" in self.absent
        ):
            return None
        return float(layers.get(prefix, {}).get(stat, 0.0))
