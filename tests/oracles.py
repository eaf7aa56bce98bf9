"""Reference routes the tests check the package against.

The optimizers run only on the Laplacian grounded at the target. These are
the independent routes to the same quantities: the dense pseudoinverse via
(L + J/n) with its rank-1 edge update and closed-form marginal gain,
resistances read off the pseudoinverse, the pairwise throughput through
B = L + J, and the Hutchinson sample count. They share no arithmetic with
the grounded route beyond building the Laplacian.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from icmax.centrality import NodeResistance, _check_node
from icmax.graphs import Graph, is_connected
from icmax.linalg import _require_dense, build_laplacian


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
