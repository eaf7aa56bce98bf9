"""Resistance distance and information centrality.

A node's resistance R_v = sum_u R_uv is the trace of the inverse Laplacian
grounded at v, summed from the diagonal that its sparse factor gives
(GroundedFactor.diagonal); one factor grounded at node 0 ranks every node
at once. Every value is read under the factor's probe rule, so all of it
is exact up to roundoff. Gains are framed as resistance reductions, with
I_v = n/R_v derived for display.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import Graph
from .linalg import GroundedFactor, build_laplacian

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
    the sum of its sparse factor's diagonal; 0 on a single node."""
    v = _check_node(g.n, v)
    if g.n == 1:
        return NodeResistance(v, 0.0)
    return NodeResistance(v, float(GroundedFactor(build_laplacian(g), v).diagonal().sum()))


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

    One sparse factor grounded at node 0 serves every node. With its
    inverse M, zero in row and column 0 (GroundedFactor),
    R_v = sum_u R_uv = n M_vv - 2 (M 1)_v + tr(M), for diag(M) from
    GroundedFactor.diagonal and M 1 from one solve: the right-hand side
    1 - n e_0 sums to zero, and its grounded part is 1, so the solve gives
    M 1, zero at node 0, refined as the diagonal is where the probe misses
    (GroundedFactor.factored_solve), so that a cycle's nodes still tie.
    """
    _require_two_nodes(g.n)
    factor = GroundedFactor(build_laplacian(g), 0)
    diag = factor.diagonal()
    rhs = np.ones((g.n, 1))
    rhs[0] = 1.0 - g.n
    sums = factor.factored_solve(rhs)[:, 0]
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
