"""Resistance distance and information centrality.

Three interchangeable routes to a node's resistance R_v (pairwise sum,
pseudoinverse diagonal + trace, grounded-Laplacian trace), the pairwise
information throughput I_uv through B = L + J, and the closed-form marginal
gain of inserting one edge incident to v.

The grounded trace is the one-node evaluator the optimizers share, and one
grounded Cholesky inverse ranks every node at once; the other routes serve
as oracles. Everything here is exact dense linear algebra. Gains are framed
as resistance reductions, with I_v = n/R_v derived for display.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .graphs import Graph, is_connected
from .linalg import build_laplacian, grounded_cholesky_inverse, grounded_inverse

_TIE_RTOL = 1e-12  # exact values this close, relatively, are ties


class NodeResistance(NamedTuple):
    node: int
    value: float


class CentralityScore(NamedTuple):
    node: int
    value: float


def _check_node(n: int, v: int) -> int:
    v = int(v)
    if not 0 <= v < n:
        raise ValueError(f"node id {v} out of range for n={n}")
    return v


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


def node_resistance_grounded(g: Graph, v: int) -> NodeResistance:
    """R_v as the trace of the inverse grounded Laplacian (row/col v deleted).

    Independent of the pseudoinverse route; the dense optimizers use the
    same grounded_inverse.
    """
    v = _check_node(g.n, v)
    return NodeResistance(v, float(np.trace(grounded_inverse(build_laplacian(g), v))))


def information_centrality(g: Graph, v: int) -> CentralityScore:
    """I_v = n / R_v."""
    v = _check_node(g.n, v)
    if g.n == 1:
        raise ValueError("information centrality is undefined for a single node")
    r = node_resistance_grounded(g, v).value
    return CentralityScore(v, g.n / r)


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


def rank_all_by_centrality(g: Graph) -> list[CentralityScore]:
    """All nodes by descending I_v. Scores within _TIE_RTOL of the first of
    their run are ties: they rank by ascending id and share its value, so
    that roundoff does not order interchangeable nodes.

    One Cholesky inverse T grounded at node 0 serves every node. With
    M = T^T T padded by a zero row and column at node 0,
    R_v = sum_u R_uv = n M_vv - 2 (M 1)_v + tr(M), where diag(M) holds the
    squared column norms of T and M 1 = T^T (T 1).
    """
    if g.n == 1:
        raise ValueError("information centrality is undefined for a single node")
    t = grounded_cholesky_inverse(build_laplacian(g), 0)
    diag = np.zeros(g.n)
    diag[1:] = np.einsum("ij,ij->j", t, t)
    sums = np.zeros(g.n)
    sums[1:] = t.T @ t.sum(axis=1)
    scores = g.n / (g.n * diag - 2.0 * sums + diag.sum())
    order = np.argsort(-scores, kind="stable")
    ranked: list[CentralityScore] = []
    start = 0
    for i in range(1, g.n + 1):
        lead = float(scores[order[start]])
        if i == g.n or scores[order[i]] < lead * (1.0 - _TIE_RTOL):
            ranked += [CentralityScore(int(v), lead) for v in sorted(order[start:i])]
            start = i
    return ranked
