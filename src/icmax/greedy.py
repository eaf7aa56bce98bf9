"""Edge-selection optimizers.

Greedy maximization of a target node's information centrality by adding k
new incident edges: the exact dense greedy, the solver-and-sketch
approximate greedy, three non-adaptive baselines, and a brute-force oracle
for small instances.

Every candidate edge ends at the target v, so it only adds its weight to
one diagonal entry of the Laplacian grounded at v, whose inverse M has
trace R_v, and inserting (u, v, w) lowers R_v by w ||M e_u||^2 / (1 + w M_uu).
M is n x n in node order, zero in row and column v, so node u is row u.
The exact greedy and the fixed insertion orders (the baselines and the
oracle's replay) run one loop on a read-only M, with each accepted edge's
rank-1 correction kept as a column beside it; the oracle scores every
k-subset from the same M by the diagonal Woodbury identity. All of them
accept a caller's M (keyword m), and top-cent its centrality ranking
(keyword ranking): a run computes each once per target and once per
graph. The approximate greedy solves with a sparse factor of the same
matrix, reads its initial R_v from the factor's diagonal, and takes each
accepted edge's drop from one more solve on it.

All optimizers take an explicit list of CandidateEdge, checked once into
two arrays that every loop reads, the other endpoints and the weights
(_checked), and return a GreedyTrace holding the chosen edges and the
per-step resistance/centrality trajectory.
Randomized components draw every bit of randomness from the seed they are
handed, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sparse

from .graphs import Graph, _raise_first_fault
from .linalg import (
    SKETCH_CONSTANT,
    GroundedFactor,
    SolverSpec,
    _project_out_mean,
    _rademacher_block_solve,
    _require_epsilon,
    _require_sketch_constant,
    _verified_solve,
    approx_eff_res,
    build_laplacian,
    grounded_inverse,
    solver_tolerance,
)
from .centrality import (
    CentralityScore, _TIE_RTOL, _require_two_nodes, node_resistance_grounded, rank_all_by_centrality,
)
from .rand import child_seed, seeded_rng

# Relative residual of approxi_sm's per-step drop solves.
_DROP_TOLERANCE = 1e-12

_BRUTE_FORCE_GUARD = 1_000_000
_BRUTE_FORCE_CHUNK = 50_000  # subsets unranked and scored at a time
# Margin for a batched R_v's roundoff, relative to R_0. It is measured,
# not proven: against a long-double-refined Cholesky inverse, the largest
# error of the L D L^T values over every subset was 9.4e-14 R_0 over the
# oracle's small test cases (R_0 / R_v(S) up to 1,100) and 1.0e-14 R_0 on
# 100-node graphs with weights over 1e-2..1e2; on an inverse regrounded
# from target to target (reground), k = 1..3, it was 8.7e-16 R_0 on all 34
# karate targets in one chain and 5.6e-14 R_0 on those 100-node graphs
# after 30 regrounds each. Pivoted LU solves of the same k x k systems
# gave the same four figures, so M's own error dominates them.
_BATCH_ROUNDOFF = 3e-13
# Where roundoff could decide a tie, the values within this of the best
# are rescored before the tie rule: the oracle's batched values, from
# scratch, where _BATCH_ROUNDOFF allows it, and the exact greedy's tracked
# gains, which drifted by up to 5.3e-13 of the best over 291 rounds, from
# the current grounded inverse's columns.
_RESCORE_RTOL = 1e-9
# Columns per block of that rescoring. A block of 32 columns of n = 2,000
# stays in cache: ten rounds at a leaf of a 2,000-leaf star, 1,998 ties
# each, took 0.16 s against 0.25 s with blocks of 256 (one BLAS thread).
_RESCORE_BLOCK = 32


# A checked candidate set: its other endpoints (int64) and weights (float64).
Checked = tuple[np.ndarray, np.ndarray]


class CandidateEdge(NamedTuple):
    other: int
    target: int
    weight: float


class GainEstimate(NamedTuple):
    edge: CandidateEdge
    gain: float


class TraceStep(NamedTuple):
    edge: tuple[int, int]
    weight: float
    gain: float
    resistance: float
    centrality: float


@dataclass(frozen=True)
class GreedyTrace:
    """Outcome of one optimizer run.

    steps[i].resistance is R_v after inserting the first i+1 edges;
    initial_resistance is R_v of the untouched graph.
    """

    algorithm: str
    target: int
    seed: int
    initial_resistance: float
    initial_centrality: float
    steps: tuple[TraceStep, ...]
    step_seconds: tuple[float, ...]

    def __post_init__(self):
        if len(self.step_seconds) != len(self.steps):
            raise ValueError("one timing entry per step required")
        prev = self.initial_resistance
        for step in self.steps:
            if not step.resistance < prev:
                raise ValueError(
                    f"resistance must decrease along the trace; got {prev} -> {step.resistance}"
                )
            prev = step.resistance

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(step.edge for step in self.steps)

    @property
    def final_resistance(self) -> float:
        return self.steps[-1].resistance if self.steps else self.initial_resistance

    @property
    def final_centrality(self) -> float:
        return self.steps[-1].centrality if self.steps else self.initial_centrality

    def to_dict(self) -> dict:
        """Serializable algorithmic content. Timings are reported separately
        so that identical (input, seed) runs produce identical payloads."""
        return {
            "algorithm": self.algorithm,
            "target": self.target,
            "seed": self.seed,
            "initial_resistance": self.initial_resistance,
            "initial_centrality": self.initial_centrality,
            "steps": [
                {
                    "edge": list(step.edge),
                    "weight": step.weight,
                    "gain": step.gain,
                    "resistance": step.resistance,
                    "centrality": step.centrality,
                }
                for step in self.steps
            ],
        }


def default_candidates(g: Graph, v: int, weight: float = 1.0) -> list[CandidateEdge]:
    """One candidate per non-neighbor of v, all at the given weight, by id."""
    if not 0 <= v < g.n:
        raise ValueError(f"node id {v} out of range for n={g.n}")
    _require_weight(weight)
    us, vs, _ = g.edge_arrays
    free = np.ones(g.n, dtype=bool)
    free[us[vs == v]] = free[vs[us == v]] = free[v] = False
    # tuple.__new__ skips CandidateEdge's own __new__, a Python function
    # call per edge: 1.1 ms against 2.1 ms for 4,995 candidates
    return [tuple.__new__(CandidateEdge, (u, v, weight)) for u in np.flatnonzero(free).tolist()]


def _require_weight(weight: float) -> None:
    """Refuse a candidate weight that is not positive and finite."""
    if not 0.0 < weight < math.inf:
        raise ValueError("candidate weight must be positive and finite")


def _check_candidates(g: Graph, v: int, candidates: Sequence[CandidateEdge], k: int) -> Checked:
    """The candidates, checked by _checked, for choosing k of them, sorted
    by other endpoint: taking the first of the tied best gains then
    realizes the global lexicographic edge tie-break."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds the {len(candidates)} available candidates")
    others, weights = _checked(g, v, candidates)
    order = np.argsort(others)
    return others[order], weights[order]


def _checked(g: Graph, v: int, candidates: Sequence[CandidateEdge]) -> Checked:
    """The candidates' other endpoints (int64) and weights (float64), in
    their order, once each is checked to be a new edge (other, v) of
    positive finite weight, with no other endpoint twice. Every check runs
    on the whole arrays; the first faulty candidate raises the message of
    the first check it fails, in the order below."""
    if not 0 <= v < g.n:
        raise ValueError(f"node id {v} out of range for n={g.n}")
    columns = tuple(zip(*candidates)) or ((), (), ())  # NumPy reads a flat tuple fast
    others, targets = (np.array(column, dtype=np.int64) for column in columns[:2])
    weights = np.array(columns[2], dtype=np.float64)
    repeated = np.ones(len(others), dtype=bool)
    repeated[np.unique(others, return_index=True)[1]] = False  # not an earlier candidate's other
    checks = (
        (targets != v, "candidate {c} does not target node {v}"),
        (others == v, "candidate would form a self-loop"),
        ((others < 0) | (others >= g.n), "candidate endpoint {u} out of range"),
        (np.isin(others, g.neighbors(v)), "candidate ({u}, {v}) already exists in the graph"),
        (repeated, "duplicate candidate endpoint {u}"),
        (~(weights > 0.0) | ~np.isfinite(weights), "candidate weight must be positive and finite"),
    )
    _raise_first_fault(checks, lambda i: dict(
        c=CandidateEdge(int(others[i]), int(targets[i]), float(weights[i])), u=int(others[i]), v=v))
    return others, weights


def _exact_gains(
    sq_norms: np.ndarray, diag: np.ndarray, candidates: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Marginal R_v drops w ||M e_u||^2 / (1 + w M_uu) for the candidates,
    an array of their other endpoints u, at their weights, from the
    grounded inverse M's squared column norms and diagonal."""
    return weights * sq_norms[candidates] / (1.0 + weights * diag[candidates])


def exact_sm(
    g: Graph, v: int, candidates: Sequence[CandidateEdge], k: int, *, m: np.ndarray | None = None
) -> GreedyTrace:
    """Exact greedy: k rounds of best-marginal-gain selection (_rank1_trace)
    on the grounded inverse m, O(n^3 + k n^2). A fresh m (grounded_inverse)
    is the sparse factor's solves of the n unit columns, which are the
    O(n^3) term. The selection is within a (1 - 1/e) factor of the
    optimal reduction."""
    others, weights = _check_candidates(g, v, candidates, k)
    return _rank1_trace(g, v, m, others, weights, k, "exact", 0, by_gain=True)


class VReffResult(NamedTuple):
    """Gain estimates, one per candidate in order, plus the literal and the
    used trace sample counts M."""

    gains: np.ndarray
    m_literal: int
    m_used: int


def _vreff_comp_full(
    g: Graph,
    v: int,
    others: np.ndarray,
    weights: np.ndarray,
    epsilon: float,
    spec: SolverSpec,
    *,
    lap: sparse.csr_matrix,
    m_cap: int | None = None,
    sketch_constant: float = SKETCH_CONSTANT,
    factor: GroundedFactor,
) -> VReffResult:
    """Estimates for the edges (others[i], v) at weights[i] on g, whose
    Laplacian is lap; factor, a GroundedFactor of lap at v, serves every
    solve of the round."""
    n = g.n
    tol1 = solver_tolerance(spec, epsilon, n, g.w_max, power=8)
    tol2 = solver_tolerance(spec, epsilon, n, g.w_max, power=9)

    m_literal = math.ceil(432.0 * epsilon**-2 * math.log(2.0 * n))
    m_used = m_literal if m_cap is None else min(m_literal, int(m_cap))

    if not len(others):
        return VReffResult(np.zeros(0), m_literal, m_used)

    # (1/M) sum_i (b_e^T y_i)^2 accumulated blockwise
    t_sums = _rademacher_block_solve(
        lap, seeded_rng(spec.seed, 10), (n, m_used), _project_out_mean,
        tol1, factor.solve, others, np.array([v]),
    )

    e_v = np.zeros(n, dtype=np.float64)
    e_v[v] = 1.0
    rhs = (e_v - e_v.mean())[:, None]
    x = _verified_solve(lap, rhs, tol2, factor.solve)[:, 0]
    x -= x.mean()

    r_vec = approx_eff_res(
        g,
        np.column_stack((others, np.full_like(others, v))),
        epsilon / 3.0,
        spec=replace(spec, seed=child_seed(spec.seed, 11)),
        sketch_constant=sketch_constant,
        solve=factor.solve,
        lap=lap,
    )

    alpha = (x[others] - x[v]) ** 2
    gains = weights * (n * alpha + t_sums / m_used) / (1.0 + weights * r_vec)
    return VReffResult(gains, m_literal, m_used)


def _require_budget(m_cap: int | None, sketch_constant: float) -> None:
    """Refuse an m_cap that is not a whole number of trace samples, at
    least 1, or a sketch_constant that draws no usable sketch."""
    if m_cap is not None and not (1 <= m_cap < math.inf and m_cap == int(m_cap)):
        raise ValueError(f"m_cap must be a whole number, finite and at least 1; got {m_cap}")
    _require_sketch_constant(sketch_constant)


def vreff_comp(
    g: Graph,
    v: int,
    candidates: Sequence[CandidateEdge],
    epsilon: float,
    spec: SolverSpec = SolverSpec(),
    *,
    m_cap: int | None = None,
    sketch_constant: float = SKETCH_CONSTANT,
) -> list[GainEstimate]:
    """Estimated marginal resistance drops for every candidate.

    Hybrid estimator: the numerator combines a direct solve against e_v with
    a Rademacher trace estimate over M = ceil(432 eps^-2 ln(2n)) samples; the
    denominator resistance comes from the sketch route at accuracy eps/3.
    With the literal M each estimate is within a factor e^{+-eps} of the
    exact gain with high probability. m_cap truncates M below the literal
    count, voiding that guarantee but keeping the estimator usable when M is
    impractically large. g must be connected.
    """
    if not 0.0 < epsilon <= 1.5:
        raise ValueError("epsilon must be in (0, 3/2]")
    _require_budget(m_cap, sketch_constant)
    others, weights = _check_candidates(g, v, candidates, 0)
    _require_two_nodes(g.n)
    lap = build_laplacian(g)
    gains = _vreff_comp_full(
        g, v, others, weights, epsilon, spec, lap=lap, m_cap=m_cap, sketch_constant=sketch_constant,
        factor=GroundedFactor(lap, v),
    ).gains
    items = zip(others.tolist(), weights.tolist(), gains.tolist())
    return [GainEstimate(CandidateEdge(u, int(v), w), gain) for u, w, gain in items]


def approxi_sm(
    g: Graph,
    v: int,
    candidates: Sequence[CandidateEdge],
    k: int,
    epsilon: float,
    spec: SolverSpec = SolverSpec(),
    *,
    m_cap: int | None = None,
    sketch_constant: float = SKETCH_CONSTANT,
) -> GreedyTrace:
    """Approximate greedy: k rounds of estimated-gain selection.

    Each round re-estimates all live candidates on the current working graph
    at accuracy argument 3*epsilon (the estimator's own literal calling
    convention) and inserts the argmax. Per-round randomness is split off
    the spec seed, so the whole run is reproducible from (inputs, seed).

    Solves: the Laplacian grounded at v is factored once; each inserted
    edge only changes its diagonal at the new neighbour, which the factor
    keeps as a rank-1 correction. Every solve is verified against the
    working graph's Laplacian.

    Trace values: the initial R_v is the sum of the factor's diagonal
    (GroundedFactor.diagonal), and each accepted (u, v, w) lowers it by
    exactly w ||M e_u||^2 / (1 + w M_uu), from one more solve against
    e_u - e_v, whose M e_u is also the factor's correction
    (GroundedFactor.add), so one formula serves both.
    """
    _require_epsilon(epsilon)
    _require_budget(m_cap, sketch_constant)
    others, weights = _check_candidates(g, v, candidates, k)
    _require_two_nodes(g.n)
    lap = build_laplacian(g)
    factor = GroundedFactor(lap, v)
    r0 = r_prev = float(factor.diagonal().sum())
    working = g
    steps: list[TraceStep] = []
    times: list[float] = []
    for round_idx in range(k):
        started = time.perf_counter()
        if round_idx:
            lap = build_laplacian(working)
        round_spec = replace(spec, seed=child_seed(spec.seed, 20, round_idx))
        result = _vreff_comp_full(
            working, v, others, weights, 3.0 * epsilon, round_spec,
            lap=lap, m_cap=m_cap, sketch_constant=sketch_constant, factor=factor,
        )
        best = int(np.argmax(result.gains))
        u, w = int(others[best]), float(weights[best])
        others, weights = np.delete(others, best), np.delete(weights, best)
        rhs = np.zeros((g.n, 1))
        rhs[u], rhs[v] = 1.0, -1.0
        # the grounded solution, zero at v, is M e_u, so x[u] = M_uu
        x = _verified_solve(lap, rhs, _DROP_TOLERANCE, factor.solve)[:, 0]
        r = r_prev - factor.add(u, w, x)
        working = working.with_edges([(u, v, w)])
        times.append(time.perf_counter() - started)
        steps.append(TraceStep((min(u, v), max(u, v)), w, float(result.gains[best]), r, g.n / r))
        r_prev = r
    return GreedyTrace("approx", v, spec.seed, r0, g.n / r0, tuple(steps), tuple(times))


BASELINE_STRATEGIES = ("random", "top-degree", "top-cent")


def baseline_select(
    g: Graph,
    v: int,
    candidates: Sequence[CandidateEdge],
    k: int,
    strategy: str,
    seed: int = 0,
    *,
    m: np.ndarray | None = None,
    ranking: Sequence[CentralityScore] | None = None,
) -> GreedyTrace:
    """Non-adaptive baselines: pick k candidates up front, insert them all.

    random samples uniformly without replacement; top-degree prefers
    candidates whose other endpoint has the largest original-graph degree;
    top-cent prefers the highest information-centrality endpoints, in the
    order of ranking, rank_all_by_centrality(g) (computed when not given).
    Ties fall back to ascending node id. The trace still records exact R_v
    per step, from m as insertion_trace takes it.
    """
    others, weights = _check_candidates(g, v, candidates, k)
    if strategy not in BASELINE_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {BASELINE_STRATEGIES}")
    if strategy == "random":
        order = seeded_rng(seed, 30).permutation(len(others))
    else:  # by a key over the nodes, ties to the ascending id
        if strategy == "top-degree":
            key = -np.bincount(np.concatenate(g.edge_arrays[:2]), minlength=g.n)
        else:
            ranking = rank_all_by_centrality(g) if ranking is None else ranking
            key = np.full(g.n, g.n)
            key[[score.node for score in ranking]] = np.arange(len(ranking))
        order = np.lexsort((others, key[others]))
    picked = order[:k]
    return _rank1_trace(g, v, m, others[picked], weights[picked], k, strategy, seed, by_gain=False)


def _grounded_m(g: Graph, v: int, m: np.ndarray | None) -> np.ndarray:
    """The caller's m, which is only read, or a fresh grounded_inverse of
    g's Laplacian at v when m is None."""
    if m is None:
        return grounded_inverse(build_laplacian(g), v)
    if m.shape != (g.n, g.n):
        raise ValueError(f"m has shape {m.shape}; the Laplacian grounded at {v} gives {(g.n, g.n)}")
    return m


def insertion_trace(
    g: Graph,
    v: int,
    picked: Sequence[CandidateEdge],
    algorithm: str,
    seed: int = 0,
    *,
    m: np.ndarray | None = None,
) -> GreedyTrace:
    """Trace from inserting a fixed candidate sequence in the given order,
    each checked as _check_candidates does, with exact per-step values from
    the grounded inverse m (_rank1_trace)."""
    others, weights = _checked(g, v, picked)
    return _rank1_trace(g, v, m, others, weights, len(others), algorithm, seed, by_gain=False)


def _rank1_trace(
    g: Graph, v: int, m: np.ndarray | None, others: np.ndarray, weights: np.ndarray, k: int,
    algorithm: str, seed: int, *, by_gain: bool,
) -> GreedyTrace:
    """k insertions of the edges (others[i], v) at weights[i]: each round
    takes the first remaining one, by_gain the first within _TIE_RTOL of the
    best gain. Each step's gain is its realized drop.

    m, the grounded inverse M at v (computed here when None), is only
    read: the accepted edges' corrections c stay as the columns of W (see
    _correction), and R_v = tr(M) - sum ||c||^2. Scoring keeps the current
    M's squared column norms s and diagonal d by s <- s - 2 c o (M c) +
    ||c||^2 c o c and d <- d - c o c, M c = m c - W (W^T c). The roundoff
    of s grows over the rounds, so where more than one gain is within
    _RESCORE_RTOL of the best, the tie rule reads their drops instead.
    """
    _require_two_nodes(g.n)
    m = _grounded_m(g, v, m)
    r0 = r = float(np.trace(m))
    corrections = np.empty((m.shape[0], k), order="F")
    if by_gain:
        sq_norms, diag = np.einsum("ij,ij->j", m, m), m.diagonal().copy()
    steps: list[TraceStep] = []
    times: list[float] = []
    for round_idx in range(k):
        started = time.perf_counter()
        done = corrections[:, :round_idx]
        best = 0
        if by_gain:
            gains = _exact_gains(sq_norms, diag, others, weights)
            near = np.flatnonzero(gains >= gains.max() * (1.0 - _RESCORE_RTOL))
            if near.size > 1:
                drops = _drops(m, done, others[near], weights[near])
                near = near[drops >= drops.max() * (1.0 - _TIE_RTOL)]
            best = int(near[0])
        u, w = int(others[best]), float(weights[best])
        others, weights = np.delete(others, best), np.delete(weights, best)
        c = corrections[:, round_idx] = _correction(m, done, u, w)
        drop = float(c @ c)
        if by_gain:
            sq_norms -= c * (2.0 * (m @ c - done @ (done.T @ c)) - drop * c)
            diag -= c * c
        r -= drop
        times.append(time.perf_counter() - started)
        steps.append(TraceStep((min(u, v), max(u, v)), w, drop, r, g.n / r))
    return GreedyTrace(algorithm, v, seed, r0, g.n / r0, tuple(steps), tuple(times))


def _drops(m: np.ndarray, done: np.ndarray, others: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """R_v drops w ||M e_u||^2 / (1 + w M_uu) of the candidate edges to
    others at weights on the current grounded inverse M = m - W W^T, W the
    earlier corrections done, from M's columns _RESCORE_BLOCK at a time:
    M e_u is row u of m^T less W[u] W^T."""
    drops = np.empty(len(others))
    for s in range(0, len(others), _RESCORE_BLOCK):
        at, w = others[s : s + _RESCORE_BLOCK], weights[s : s + _RESCORE_BLOCK]
        cols = m.T[at]  # m's columns at, each row contiguous for a Fortran-order m
        cols -= done[at] @ done.T
        diag = cols[np.arange(len(at)), at]
        drops[s : s + _RESCORE_BLOCK] = w * np.einsum("ij,ij->i", cols, cols) / (1.0 + w * diag)
    return drops


def _correction(m: np.ndarray, done: np.ndarray, u: int, w: float) -> np.ndarray:
    """c = sqrt(w / (1 + w M_uu)) M e_u for inserting (u, v, w) into the
    current grounded inverse M = m - W W^T, W the earlier corrections done:
    M - c c^T is the inverse after it, and ||c||^2 is its R_v drop."""
    col = m[:, u] - done @ done[u]
    return col * math.sqrt(w / (1.0 + w * col[u]))


def _lexicographic_subsets(p: int, k: int):
    """A function from ranks, an int64 array, to the k-subsets of range(p)
    at those ranks in itertools.combinations(range(p), k)'s lexicographic
    order, one ascending int64 row each. It unranks in the combinatorial
    number system: the rank r of (c_0, ..., c_{k-1}) has C(p, k) - 1 - r
    equal to the sum of C(p-1-c_i, k-i), so each c_i is read off the
    largest such term within what remains. The terms for position i are
    C(k-i-1+j, k-i) at j = 0..p-k, each at most C(p, k)."""
    last = math.comb(p, k) - 1
    tables = [np.arange(p - k + 1, dtype=np.int64)]  # C(j, 1)
    for _ in range(k - 1):  # C(m-1+j, m) is the sum of C(m-1+t, m-1) over t < j
        tables.append(np.concatenate(([0], np.cumsum(tables[-1][1:]))))
    tables = tables[::-1][:k]

    def rows(ranks: np.ndarray) -> np.ndarray:
        rest = last - ranks
        out = np.empty((len(rest), k), dtype=np.int64, order="F")  # each position contiguous
        for i, table in enumerate(tables):
            j = np.searchsorted(table, rest, side="right") - 1
            rest -= table[j]
            out[:, i] = p - k + i - j
        return out

    return rows


def _woodbury_drops(cap: list[list[np.ndarray]], sq: list[list[np.ndarray]]) -> np.ndarray:
    """tr(C^-1 B) for a stack of symmetric k x k pairs, C positive
    definite, each given by its lower triangle as cap[i][j] and sq[i][j]
    (j <= i), arrays holding entry (i, j) of every pair. cap is
    overwritten. C = L D L^T needs no pivoting (Higham 2002, sec. 10.1);
    with g_i row i of the unit triangle L^-1, tr(C^-1 B) is the sum of
    g_i^T B g_i / d_i. Each step is one NumPy operation across the stack."""
    k = len(cap)
    tmp = np.empty_like(cap[0][0]) if k else None
    for j in range(k):  # column j of L, below d_j = cap[j][j]
        scaled = [cap[j][t] * cap[t][t] for t in range(j)]  # L_jt d_t
        for i in range(j, k):
            for t in range(j):
                cap[i][j] -= np.multiply(cap[i][t], scaled[t], out=tmp)
        for i in range(j + 1, k):
            cap[i][j] /= cap[j][j]
    inv: list[list[np.ndarray]] = []  # L^-1 below its unit diagonal
    traces = 0.0
    for i in range(k):
        row = []
        for j in range(i):  # G_ij = -L_ij - sum over j < t < i of L_it G_tj
            g = -cap[i][j]
            for t in range(j + 1, i):
                g -= np.multiply(cap[i][t], inv[t][j], out=tmp)
            row.append(g)
        inv.append(row)
        # g^T B g = B_ii + sum over a < i of g_a (B_ia + B_ia + sum over b < i of B_ab g_b)
        q = sq[i][i].copy()
        for a in range(i):
            w = 2.0 * sq[i][a]
            for b in range(i):
                w += np.multiply(sq[max(a, b)][min(a, b)], row[b], out=tmp)
            q += np.multiply(row[a], w, out=tmp)
        traces = traces + q / cap[i][i]
    return traces


def brute_force_optimum(
    g: Graph,
    v: int,
    candidates: Sequence[CandidateEdge],
    k: int,
    *,
    m: np.ndarray | None = None,
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Exhaustive search over all k-subsets of candidates.

    Returns the lexicographically first subset whose R_v is within
    _TIE_RTOL of the least, so that roundoff does not decide between tied
    subsets, and its resistance. A subset S only adds its weights w_S to
    the grounded diagonal at its rows, so by the Woodbury identity
    R_v(S) = tr(M) - tr((diag(1/w_S) + M[S,S])^-1 (M^2)[S,S]), for the
    grounded inverse M (m, only read; computed here when not given).

    The subsets are int64 index rows in itertools.combinations'
    lexicographic order, unranked _BRUTE_FORCE_CHUNK at a time
    (_lexicographic_subsets), so beside one value per subset only one
    chunk's rows and entries are held. Both k x k blocks' lower triangles
    are gathered, for a chunk, from M's candidate columns, and each trace
    comes from an L D L^T of its capacitance matrix, one NumPy operation
    per entry across the chunk (_woodbury_drops). On karate's 906,192
    6-subsets at a 32-candidate target that took 0.28 s at a tracemalloc
    peak of 39 MB, against 1.8 s and 58 MB for one pivoted LU solve per
    subset (one BLAS thread). The first subset within the tie rule, the
    near ties and the result are read back by their ranks.

    A value's roundoff is relative to tr(M), not to R_v(S); the measured
    margin _BATCH_ROUNDOFF tr(M) stands for it. Where twice that could
    pass _TIE_RTOL of the least value, the subsets within _RESCORE_RTOL of
    the least are rescored from scratch, by the route every other R_v
    takes: node_resistance_grounded on g with the subset's edges, the
    trace of a fresh sparse factor's grounded inverse, read under its
    probe rule. The tie rule and the returned R_v use those values.
    Elsewhere, as at a leaf of a star where every subset ties, the
    batched values stand. Guarded to C(|candidates|, k) <= 1e6 subsets.
    """
    others, weights = _check_candidates(g, v, candidates, k)
    _require_two_nodes(g.n)
    p = len(others)
    total = math.comb(p, k)
    if total > _BRUTE_FORCE_GUARD:
        raise ValueError(f"{total} subsets exceed the {_BRUTE_FORCE_GUARD} enumeration guard")

    m = _grounded_m(g, v, m)
    r0 = float(np.trace(m))
    inv_weights = 1.0 / weights
    m_cols = m[:, others]
    m_block, m2_block = m_cols[others], m_cols.T @ m_cols
    subsets = _lexicographic_subsets(p, k)
    resistances = np.empty(total)
    for start in range(0, total, _BRUTE_FORCE_CHUNK):
        rows = subsets(np.arange(start, min(start + _BRUTE_FORCE_CHUNK, total)))
        cap, sq = [], []  # the lower triangles of diag(1/w_S) + M[S,S] and (M^2)[S,S]
        for i in range(k):
            offset = rows[:, i] * p
            at = [offset + rows[:, j] for j in range(i + 1)]  # flat offsets into both blocks
            cap.append([m_block.take(ij) for ij in at])
            cap[i][i] += inv_weights[rows[:, i]]
            sq.append([m2_block.take(ij) for ij in at])
        resistances[start : start + len(rows)] = r0 - _woodbury_drops(cap, sq)

    least = resistances.min()
    if 2.0 * _BATCH_ROUNDOFF * r0 <= _TIE_RTOL * least:
        best = int(np.flatnonzero(resistances <= least * (1.0 + _TIE_RTOL))[0])
        value = resistances[best]
    else:
        near = np.flatnonzero(resistances <= least * (1.0 + _RESCORE_RTOL))
        rescored = np.empty(len(near))
        for start in range(0, len(near), _BRUTE_FORCE_CHUNK):
            rows = subsets(near[start : start + _BRUTE_FORCE_CHUNK])
            for i, row in enumerate(rows, start):
                added = [(u, v, w) for u, w in zip(others[row].tolist(), weights[row].tolist())]
                rescored[i] = node_resistance_grounded(g.with_edges(added), v).value
        pick = int(np.flatnonzero(rescored <= rescored.min() * (1.0 + _TIE_RTOL))[0])
        best, value = int(near[pick]), rescored[pick]
    (subset,) = subsets(np.array([best]))
    edges = tuple((min(u, v), max(u, v)) for u in others[subset].tolist())
    return edges, float(value)
