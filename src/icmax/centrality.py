"""Resistance distance and information centrality.

A node's resistance R_v = sum_u R_uv is the trace of the inverse Laplacian
grounded at v, read from the triangular inverse T of its Cholesky factor
as ||T||_F^2; one T grounded at node 0 ranks every node at once. All of
it is exact dense linear algebra. Gains are framed as resistance
reductions, with I_v = n/R_v derived for display.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import Graph
from .linalg import build_laplacian, grounded_cholesky_inverse

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


def _require_two_nodes(n: int) -> None:
    """R_v is 0 on a single node, where I_v = n / R_v is undefined."""
    if n == 1:
        raise ValueError("information centrality is undefined for a single node")


def node_resistance_grounded(g: Graph, v: int) -> NodeResistance:
    """R_v as the trace of the inverse grounded Laplacian (row/col v deleted),
    ||T||_F^2 for its Cholesky inverse T."""
    v = _check_node(g.n, v)
    flat = grounded_cholesky_inverse(build_laplacian(g), v).ravel(order="K")
    return NodeResistance(v, float(flat @ flat))


def information_centrality(g: Graph, v: int) -> CentralityScore:
    """I_v = n / R_v."""
    v = _check_node(g.n, v)
    _require_two_nodes(g.n)
    r = node_resistance_grounded(g, v).value
    return CentralityScore(v, g.n / r)


def rank_all_by_centrality(g: Graph) -> list[CentralityScore]:
    """All nodes by descending I_v. Scores within _TIE_RTOL of the first of
    their run are ties: they rank by ascending id and share its value, so
    that roundoff does not order interchangeable nodes.

    One Cholesky inverse T grounded at node 0 serves every node. With
    M = T^T T padded by a zero row and column at node 0,
    R_v = sum_u R_uv = n M_vv - 2 (M 1)_v + tr(M), where diag(M) holds the
    squared column norms of T and M 1 = T^T (T 1).
    """
    _require_two_nodes(g.n)
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
