"""Shared fixtures: the small closed-form graphs and a seeded random-graph
factory used by both the unit suites and the acceptance gate."""

import numpy as np
import pytest

from icmax import Graph
from icmax.rand import seeded_rng


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)])


def lollipop_graph(clique: int, path: int) -> Graph:
    """A clique on nodes 0..clique-1 and a path of `path` more nodes hanging
    off node clique-1, numbered as networkx.lollipop_graph numbers them."""
    edges = [(i, j, 1.0) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(i, i + 1, 1.0) for i in range(clique - 1, clique + path - 1)]
    return Graph.from_edges(clique + path, edges)


def add_to_factor(factor, u: int, w: float) -> float:
    """factor.add(u, w, x) with x = M e_u from the factor's own solve of
    e_u - e_v, zero at v, as the approximate greedy's drop solve gives it
    (less the residual check). Returns the R_v drop."""
    rhs = np.zeros((factor.n, 1))
    rhs[u], rhs[factor.v] = 1.0, -1.0
    return factor.add(u, w, factor.solve(rhs)[:, 0])


def counting_refine(monkeypatch) -> list[int]:
    """Patch linalg._refine to record the width of each block that reaches
    the long-double re-check; returns the list it appends to."""
    import icmax.linalg as linalg_mod

    refined, refine = [], linalg_mod._refine

    def counting(lap, rhs, *args):
        refined.append(rhs.shape[1])
        return refine(lap, rhs, *args)

    monkeypatch.setattr(linalg_mod, "_refine", counting)
    return refined


def random_connected_graph(seed: int, n: int | None = None, max_n: int = 40,
                           weighted: bool = False, extra: float = 1.0) -> Graph:
    """Random tree plus ~extra*n additional edges; connected by construction."""
    rng = seeded_rng(seed, 99)
    if n is None:
        n = int(rng.integers(2, max_n + 1))

    def w():
        return float(rng.uniform(0.5, 2.0)) if weighted else 1.0

    edges = {}
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges[(parent, i)] = w()
    budget = int(rng.integers(0, max(1, int(extra * n)) + 1))
    for _ in range(budget):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = w()
    return Graph.from_edges(n, [(u, v, wt) for (u, v), wt in edges.items()])


@pytest.fixture
def p2():
    return path_graph(2)


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def p4():
    return path_graph(4)


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def star4():
    return star_graph(3)


# acceptance tests record one line per criterion; the terminal-summary hook
# replays them so the pass/fail verdicts are visible in plain pytest output
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
