"""Reference routes the tests check the package against.

The optimizers run only on the Laplacian grounded at the target. These are
the independent routes to the same quantities: the dense pseudoinverse via
(L + J/n) with its rank-1 edge update and closed-form marginal gain,
resistances read off the pseudoinverse, the pairwise throughput through
B = L + J, and the Hutchinson sample count. They share no arithmetic with
the grounded route beyond building the Laplacian. Three exceptions work
on the grounded Laplacian too, which they form by deleting v's row and
column from the Laplacian, not through the package's grounded_laplacian:
its dense inverse by a Cholesky solve against the identity, padded with
zeros at v; its trace alone, ||C^-1||_F^2 for its dense Cholesky factor C
(LAPACK dpotrf and dtrtri, _cholesky_inverse; the package runs no dense
factorization); and the exhaustive k-subset search, which takes that trace
for every subset from scratch instead of updating one factor. The last
three functions but one are the block pipeline of the approximate greedy
as first written, with fresh arrays at every step: the Rademacher draw,
the grounded factor's solve by a fresh SuperLU factor of the graph with
its added edges, and the block solve. The last, hutchinson_trace, is a
Hutchinson trace estimate composed of the package's draw and verified
solve, which no optimizer reads. Graph construction has its own
reference: the per-edge check loop Graph.from_edges was first written as.
"""

from __future__ import annotations

import math
from itertools import combinations, islice
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from icmax.centrality import _TIE_RTOL, NodeResistance, _check_node, _require_two_nodes
from icmax.graphs import Graph, is_connected
from icmax.greedy import _BRUTE_FORCE_GUARD, CandidateEdge, _check_candidates
from icmax.linalg import (
    _BLOCK,
    DENSE_NODE_LIMIT,
    GroundedFactor,
    _project_out_mean,
    _refine,
    _require_connected,
    _verified_solve,
    build_laplacian,
)
from icmax.rand import rademacher


def _require_dense(lap: sparse.csr_matrix, what: str) -> None:
    """Refuse a dense route beyond DENSE_NODE_LIMIT or on a disconnected graph."""
    n = lap.shape[0]
    if n > DENSE_NODE_LIMIT:
        raise ValueError(f"dense {what} refused for n={n} > {DENSE_NODE_LIMIT}; use the solver/estimator path")
    _require_connected(lap, what)


def graph_edges_reference(n: int, edges) -> tuple[tuple[int, int, float], ...]:
    """The edges Graph.from_edges(n, edges) holds, checked one at a time:
    (u, v, w) with u < v, sorted, or the ValueError of the first faulty
    edge, at its first failed check."""
    if n < 1:
        raise ValueError("graph needs at least one node")
    canonical = []
    seen = set()
    for item in edges:
        edge = _canonical_edge(n, item)
        key = edge[:2]
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        canonical.append(edge)
    return tuple(sorted(canonical))


def _canonical_edge(n: int, item: Sequence) -> tuple[int, int, float]:
    """One checked edge of an n-node graph as (u, v, w) with u < v."""
    u, v, w = int(item[0]), int(item[1]), float(item[2])
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    if not np.isfinite(w) or w <= 0.0:
        raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
    return (u, v, w) if u < v else (v, u, w)


def pseudoinverse(lap: sparse.csr_matrix) -> np.ndarray:
    """Dense Moore-Penrose pseudoinverse, exact via (L + J/n)^-1 - J/n.

    Requires a connected underlying graph; (L + J/n) is then symmetric
    positive definite and a Cholesky factorization applies.
    """
    _require_dense(lap, "pseudoinverse")
    n = lap.shape[0]
    shifted = lap.toarray() + 1.0 / n
    factor = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
    pinv = scipy.linalg.cho_solve(factor, np.eye(n), check_finite=False)
    pinv -= 1.0 / n
    return (pinv + pinv.T) / 2.0


def sherman_morrison_update(pinv: np.ndarray, e, w: float) -> np.ndarray:
    """Pseudoinverse of the graph after adding edge e = (u, v) with weight w.

    Rank-1 correction pinv - w (pinv b)(pinv b)^T / (1 + w b^T pinv b) with
    b = e_u - e_v; O(n^2) and exact up to roundoff. The denominator is
    strictly positive for any w > 0 because pinv is PSD.
    """
    u, v = int(e[0]), int(e[1])
    if u == v:
        raise ValueError("edge endpoints must differ")
    if w <= 0.0:
        raise ValueError("edge weight must be positive")
    col = pinv[:, u] - pinv[:, v]
    denom = 1.0 + w * (col[u] - col[v])
    updated = pinv - np.outer(col, col) * (w / denom)
    return (updated + updated.T) / 2.0


def hutchinson_sample_count(epsilon: float, delta: float, rank: int) -> int:
    """Sample count sufficient for an epsilon-approximation with prob 1-delta."""
    if not (0.0 < epsilon <= 0.5):
        raise ValueError("epsilon must be in (0, 1/2]")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    return math.ceil(24.0 * epsilon**-2 * math.log(2.0 * rank / delta))


def resistance_pair(p: np.ndarray, u: int, v: int) -> float:
    """Effective resistance between u and v from the pseudoinverse."""
    n = p.shape[0]
    u = _check_node(n, u)
    v = _check_node(n, v)
    return float(p[u, u] + p[v, v] - 2.0 * p[u, v])


def node_resistance(p: np.ndarray, v: int) -> NodeResistance:
    """R_v = sum_u R_uv, evaluated as n * p_vv + trace(p)."""
    n = p.shape[0]
    v = _check_node(n, v)
    return NodeResistance(v, float(n * p[v, v] + np.trace(p)))


def marginal_gain_exact(p: np.ndarray, e, w: float, v: int, n: int | None = None) -> float:
    """Exact drop in R_v from inserting edge e = (u, v) with weight w.

    Closed form w * (n * (p b)_v^2 + ||p b||^2) / (1 + w * b^T p b) with
    b = e_u - e_v; avoids forming the updated pseudoinverse. The edge must be
    incident to the target v.
    """
    if n is None:
        n = p.shape[0]
    a, b = int(e[0]), int(e[1])
    a = _check_node(n, a)
    b = _check_node(n, b)
    v = _check_node(n, v)
    if a == b:
        raise ValueError("edge endpoints must differ")
    if v not in (a, b):
        raise ValueError(f"edge ({a}, {b}) is not incident to target {v}")
    if w <= 0.0 or not math.isfinite(w):
        raise ValueError("edge weight must be positive and finite")
    col = p[:, a] - p[:, b]
    denom = 1.0 + w * (col[a] - col[b])
    return float(w * (n * col[v] ** 2 + col @ col) / denom)


def information_matrix_inverse(g: Graph) -> np.ndarray:
    """Inverse of B = L + J (J the all-ones matrix), dense and symmetric.

    B is positive definite exactly when g is connected.
    """
    if not is_connected(g):
        raise ValueError("B = L + J is singular for a disconnected graph")
    b = build_laplacian(g).toarray() + 1.0
    factor = scipy.linalg.cho_factor(b, lower=True, check_finite=False)
    inv = scipy.linalg.cho_solve(factor, np.eye(g.n), check_finite=False)
    return (inv + inv.T) / 2.0


def information_centrality_via_B(g: Graph, u: int, v: int, b_inv: np.ndarray | None = None) -> float:
    """Pairwise throughput I_uv = 1 / (B^-1_uu + B^-1_vv - 2 B^-1_uv).

    Returns +inf for u == v, so the reciprocal self-term of the harmonic
    aggregation n / sum_u (1/I_uv) vanishes. Pass a precomputed b_inv when
    evaluating many pairs.
    """
    u = _check_node(g.n, u)
    v = _check_node(g.n, v)
    if u == v:
        return math.inf
    if b_inv is None:
        b_inv = information_matrix_inverse(g)
    denom = float(b_inv[u, u] + b_inv[v, v] - 2.0 * b_inv[u, v])
    return 1.0 / denom


def _without(a: np.ndarray, v: int) -> np.ndarray:
    """The dense a with row and column v deleted, in Fortran order."""
    keep = np.arange(a.shape[0]) != v
    return np.asfortranarray(a[np.ix_(keep, keep)])


def grounded_inverse_reference(lap: sparse.csr_matrix, v: int, *, refined: bool = False) -> np.ndarray:
    """Inverse of the Laplacian with v's row and column deleted, by
    cho_factor and cho_solve against the identity, without the triangular
    inverse T, padded with a zero row and column at v.

    refined adds two steps of refinement on the same Cholesky factor, each
    residual I - A X evaluated in long double, for the truth to about
    float64's rounding: on lollipop(30, 500) at its path's end the Cholesky
    solve alone is off by 1.8e-12 of the largest entry."""
    _require_dense(lap, "grounded inverse")
    n = lap.shape[0]
    factor = scipy.linalg.cho_factor(_without(lap.toarray(), v), lower=True, overwrite_a=True, check_finite=False)
    keep = np.arange(n) != v
    x = scipy.linalg.cho_solve(factor, np.eye(n - 1), overwrite_b=True, check_finite=False)
    if refined:
        wide = lap[keep][:, keep].astype(np.longdouble)
        for _ in range(2):
            res = np.eye(n - 1, dtype=np.longdouble) - wide @ x.astype(np.longdouble)
            x += scipy.linalg.cho_solve(factor, res.astype(np.float64), check_finite=False)
    inv = np.zeros((n, n), order="F")
    inv[np.ix_(keep, keep)] = x
    return inv


def _cholesky_inverse(a: np.ndarray) -> np.ndarray:
    """C^-1, lower triangular, for the lower Cholesky factor C of the
    symmetric positive definite a, computed in a's storage when a is a
    Fortran-ordered float64 array. Raises LinAlgError when LAPACK reports
    a failure, which it does through its info code and not by raising."""
    c, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (LAPACK dpotrf info={info})")
    t, info = scipy.linalg.lapack.dtrtri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular inverse failed (LAPACK dtrtri info={info})")
    return t


def _inverse_trace(a: np.ndarray) -> float:
    """tr(a^-1) = ||C^-1||_F^2 for the Cholesky factor C of the symmetric
    positive definite, Fortran-ordered a, in a's storage."""
    flat = _cholesky_inverse(a).ravel(order="K")
    return float(flat @ flat)


def _refined_inverse_trace(a: np.ndarray) -> float:
    """tr(a^-1) for the symmetric positive definite, Fortran-ordered a, as
    the trace of X = T^T T, T = C^-1 for its Cholesky factor C, after one
    step of refinement on that factor, X += T^T T (I - a X), the residual
    evaluated in long double from a's nonzeros; a is kept. On the 6-node
    weighted graphs of the oracle's test cases the unrefined trace was off
    by up to 7.4e-13 of R_v before insertion and this one by 2.2e-16,
    against a 40-digit inverse; a second step changed no worst case."""
    rows, cols = np.nonzero(a)  # by rows, each row holding its diagonal
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    entries = a[rows, cols].astype(np.longdouble)[:, None]
    t = _cholesky_inverse(a.copy(order="F"))
    x = t.T @ t
    res = np.eye(len(a), dtype=np.longdouble)
    res -= np.add.reduceat(entries * x.astype(np.longdouble)[cols], starts, axis=0)
    x += t.T @ (t @ res.astype(np.float64))
    return math.fsum(np.diagonal(x))


def grounded_trace_reference(lap: sparse.csr_matrix, v: int) -> float:
    """R_v, the trace of the inverse of the Laplacian with v's row and
    column deleted, as ||C^-1||_F^2 for its dense Cholesky factor C. The
    dense matrix is made straight from the sparse one, and factored and
    inverted in its own storage: one n x n array, against three for
    grounded_inverse_reference."""
    _require_dense(lap, "grounded trace")
    keep = np.arange(lap.shape[0]) != v
    return _inverse_trace(lap[keep][:, keep].toarray(order="F"))


def brute_force_optimum_from_scratch(
    g: Graph, v: int, candidates: Sequence[CandidateEdge], k: int
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Exhaustive search over all k-subsets of candidates.

    Returns the lexicographically first subset whose R_v is within
    _TIE_RTOL of the least, so that roundoff does not decide between tied
    subsets, and its resistance. Every subset is evaluated from scratch as
    the trace of its grounded Laplacian's inverse by that matrix's own
    Cholesky factor, refined in long double (_refined_inverse_trace),
    independent of the batched and update-based optimizers. Guarded to
    C(|candidates|, k) <= 1e6 subsets.
    """
    others, weights = _check_candidates(g, v, candidates, k)
    _require_two_nodes(g.n)
    if not is_connected(g):
        raise ValueError("brute force requires a connected graph")
    total = math.comb(len(others), k)
    if total > _BRUTE_FORCE_GUARD:
        raise ValueError(f"{total} subsets exceed the {_BRUTE_FORCE_GUARD} enumeration guard")

    base = build_laplacian(g).toarray()
    resistances = np.empty(total)
    for i, subset in enumerate(combinations(range(len(others)), k)):
        lap = base.copy()
        for j in subset:
            lap[others[j], others[j]] += weights[j]  # edge (other, v): only this entry survives grounding
        resistances[i] = _refined_inverse_trace(_without(lap, v))
    best = int(np.flatnonzero(resistances <= resistances.min() * (1.0 + _TIE_RTOL))[0])
    best_subset = next(islice(combinations(range(len(others)), k), best, None))
    edges = tuple((min(int(others[j]), v), max(int(others[j]), v)) for j in best_subset)
    return edges, float(resistances[best])


def rademacher_reference(rng: np.random.Generator, shape) -> np.ndarray:
    """+-1 entries by the float formula 2x - 1 on the integer draw."""
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


def grounded_factor_solve_reference(lap: sparse.csr_matrix, v: int, r: np.ndarray) -> np.ndarray:
    """A GroundedFactor's solve(r) by np.delete of row v, a SuperLU solve
    of the C-order result, and np.insert of the zero row.

    lap is the Laplacian with every edge the factor added, factored here
    afresh with SuperLU's default pivot threshold, which swaps rows of some
    weighted graphs' factors.
    """
    keep = np.arange(lap.shape[0]) != v
    lu = sparse.linalg.splu(
        lap[keep][:, keep].tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
    )
    out = np.empty_like(r)  # laid out as r is
    out[...] = np.insert(lu.solve(np.delete(r, v, axis=0)), v, 0.0, axis=0)
    return out


def rademacher_block_solve_reference(
    lap: sparse.csr_matrix,
    rng: np.random.Generator,
    shape: tuple[int, int],
    to_rhs,
    tol: float,
    factor: GroundedFactor,
    us: np.ndarray,
    vs: np.ndarray,
) -> np.ndarray:
    """linalg._rademacher_block_solve with solve = factor's solve, and
    fresh arrays in every block: the reference draw, a new right-hand side
    to_rhs(z), the factor's solve into a fresh array, the residual check
    with its refinement, and y[us] - y[vs]."""
    solve = factor.solve
    rows, count = shape
    sq_dists = np.zeros(len(us), dtype=np.float64)
    produced = 0
    while produced < count:
        width = min(_BLOCK, count - produced)
        z = rademacher_reference(rng, (rows, width))
        rhs = to_rhs(z)
        y = solve(rhs)
        res = lap @ y
        res -= rhs
        res_sq = np.einsum("ij,ij->j", res, res)
        b_sq = np.einsum("ij,ij->j", rhs, rhs)
        failed = np.flatnonzero(~(res_sq <= tol**2 * np.where(b_sq > 0.0, b_sq, 1.0)))
        if failed.size:
            y[:, failed] = _refine(lap, rhs[:, failed], y[:, failed], tol, solve)
        diff = y[us, :] - y[vs, :]
        sq_dists += np.einsum("ij,ij->i", diff, diff)
        produced += width
    return sq_dists


def hutchinson_trace(lap: sparse.csr_matrix, rng: np.random.Generator, count: int, tol: float, solve) -> float:
    """Hutchinson's estimate (1/count) sum_j z_j^T y_j of tr(pinv(L)) over
    count Rademacher columns z_j, drawn _BLOCK at a time by the package's
    draw (rand.rademacher): y is the verified solve (_verified_solve, with
    solve) of L y = z less its column means, itself less its column
    means."""
    n = lap.shape[0]
    total = 0.0
    produced = 0
    while produced < count:
        width = min(_BLOCK, count - produced)
        z = rademacher(rng, (n, width))
        y = _verified_solve(lap, _project_out_mean(z), tol, solve)
        y -= y.mean(axis=0, keepdims=True)
        total += float(np.einsum("ij,ij->", z, y))
        produced += width
    return total / count
