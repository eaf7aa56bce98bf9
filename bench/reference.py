"""Independent exact evaluator for the benchmark's output checks.

Every candidate edge (u, v) touches the target v, so in the Laplacian
grounded at v (row and column v deleted) it only adds its weight to the
diagonal entry of u. R_v is the trace of the grounded inverse M, and adding
an edge is the symmetric rank-1 update M - c m m^T with m = M e_u and
c = w / (1 + w M_uu), which lowers R_v by c ||m||^2. The updates are kept
as a low-rank correction of the first inverse, so k rounds cost one dense
factorization plus k matrix-vector products.

This shares no code with icmax beyond reading the graph's edge list: no
pseudoinverse, no Sherman-Morrison helper, no gain formula.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class GroundedInverse:
    """Exact R_v of one graph and target under any sequence of edges at v."""

    def __init__(self, g, v: int):
        n = g.n
        self.v = v
        us, vs, ws = (np.asarray(a) for a in g.edge_arrays)
        lap = np.zeros((n, n))
        np.add.at(lap, (us, vs), -ws)
        np.add.at(lap, (vs, us), -ws)
        np.add.at(lap, (us, us), ws)
        np.add.at(lap, (vs, vs), ws)
        keep = np.arange(n) != v
        grounded = np.ascontiguousarray(lap[np.ix_(keep, keep)])
        del lap
        factor, info = scipy.linalg.lapack.dpotrf(grounded, lower=1, clean=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"grounded Laplacian is not positive definite (info {info})")
        inv, info = scipy.linalg.lapack.dpotri(factor, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"grounded inverse failed (info {info})")
        inv += np.tril(inv, -1).T
        self.m0 = inv
        self.resistance0 = float(np.trace(inv))
        self._col_sq = np.einsum("ij,ij->j", inv, inv)

    def _index(self, u: int) -> int:
        if u == self.v:
            raise ValueError("an edge at the target cannot end at the target")
        return u - 1 if u > self.v else u

    def greedy(self, others, weights, k: int, follow=None):
        """k greedy rounds over candidate endpoints ``others`` (ascending ids).

        With follow=None each round takes the first maximum gain, the same
        tie rule as the optimizers. With follow, a sequence of endpoints,
        round j takes follow[j] instead. Returns (picked endpoints, the gain
        of each pick, the best gain available in each round, final R_v).
        """
        others = np.asarray(others, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        idx = np.array([self._index(int(u)) for u in others], dtype=np.int64)
        sq = self._col_sq[idx].copy()
        diag = np.diag(self.m0)[idx].copy()
        live = np.ones(len(others), dtype=bool)
        position = {int(u): i for i, u in enumerate(others)}
        factors: list[tuple[float, np.ndarray]] = []
        picked, gains, best = [], [], []
        resistance = self.resistance0
        for step in range(k):
            score = np.where(live, weights * sq / (1.0 + weights * diag), -np.inf)
            j = int(np.argmax(score)) if follow is None else position[int(follow[step])]
            if not live[j]:
                raise ValueError(f"endpoint {int(others[j])} picked twice")
            u = idx[j]
            m = self.m0[:, u].copy()
            for c_i, m_i in factors:
                m -= c_i * m_i[u] * m_i
            c = weights[j] / (1.0 + weights[j] * m[u])
            mm = self.m0 @ m
            for c_i, m_i in factors:
                mm -= c_i * float(m_i @ m) * m_i
            norm_sq = float(m @ m)
            sq += -2.0 * c * m[idx] * mm[idx] + c * c * m[idx] ** 2 * norm_sq
            diag -= c * m[idx] ** 2
            factors.append((c, m))
            live[j] = False
            picked.append(int(others[j]))
            gains.append(c * norm_sq)
            best.append(float(score.max()))
            resistance -= c * norm_sq
        return picked, gains, best, resistance

    def resistance_after(self, others, weights) -> float:
        """Exact R_v after adding the edges (other, v) with the given weights."""
        return self.greedy(others, weights, len(others), follow=others)[3]
