"""Laplacian linear algebra.

Every optimizer works on the Laplacian grounded at a target v, formed in
one place: grounded_laplacian replaces v's row and column with e_v's, so
an edge (u, v) only adds its weight at (u, u). Both routes invert that
matrix and zero v's entry, so M, the grounded inverse, is n x n in node
order with a zero row and column v, and node u is row u of every array.
Sparse: GroundedFactor solves level by level on a read-only schedule of
the grounded matrix's sparse factor L D L^T, one CSR product per level
of rows on the whole block of right-hand sides plus one dense product
with the inverse of the last separator's triangle, less the rank-1
corrections of the edges inserted at v since it was built. The forward
half of that schedule, run on unit columns, gives T = D^-1/2 L^-1, the
inverse triangle, whose squared column norms are diag(M), and so
R_v = tr(M); for every consumer that needs only those, diag(M) is read
by parts, its sparse levels' rows from the forward half over those
levels alone and the tail's rows from the backward half on the tail's
unit columns. Each factor probes its own forward error once, as it is
built (GroundedFactor.forward_error); where it misses 1e-12, every exact
value read from it is refined on it (GroundedFactor.factored_solve). A
factor that is not L D L^T raises, naming the check it failed, and only a
factor checks that the graph is connected. Dense: grounded_inverse fills
M with the same factor's solves of the unit columns, through
factored_solve, for the optimizers that read M; no dense factorization
runs here. reground moves M to another ground node in place, at O(n^2)
cost. Verified solves apply the factor and check each column's residual;
a column that misses is checked again in long double, refined on the
factor, and passed at a backward error of a few units of roundoff. On
them runs the Rademacher block solve, whose per-candidate sums serve
approx's trace term and the sketch effective-resistance estimator. The
dense route is exact and O(n^3) and refuses graphs beyond
DENSE_NODE_LIMIT nodes; larger ones go through the solver and
estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import blas, lapack
from scipy.sparse._sparsetools import csr_matvecs
from scipy.sparse.csgraph import connected_components

from .graphs import Graph
from .rand import rademacher, seeded_rng

DENSE_NODE_LIMIT = 20_000

PRACTICAL = "practical"
PAPER_LITERAL = "paper-literal"

# c in the sketch size q = c ln(n) / eps^2 of Spielman and Srivastava (SIAM J. Comput. 2011)
SKETCH_CONSTANT = 24.0

# Floor for the literal tolerance formulas, which underflow even at modest n.
_TOLERANCE_FLOOR = 1e-14

_BLOCK = 256
# Columns per step of grounded_inverse's solves, of the mirror copy that
# follows them (_mirror_upper) and of reground, whose temporaries are
# _PANEL x n. At n=5000, with one BLAS thread, grounded_inverse took 0.69 s
# (median of 6) on panels of 64 columns, against 0.68 s at 32, 0.78 s at
# 128 and 0.81 s at 256, at tracemalloc peaks of 211.6 MB against 207.7,
# 219.3 and 234.6 MB (M itself is 200 MB).
_PANEL = 64

# Largest relative forward error that a factor's probe
# (GroundedFactor.forward_error) may show before the values read from it
# are refined on it (GroundedFactor.factored_solve).
_FORWARD_ERROR_TARGET = 1e-12
# The probe's random columns, and the key of their stream (seeded_rng(0,
# _PROBE_KEY)), which no other consumer draws.
_PROBE_COLUMNS = 4
_PROBE_KEY = 60


class SolverConvergenceError(RuntimeError):
    """A column still missed its target, or was NaN, after
    _REFINEMENT_STEPS steps of refinement on the factor: a verified
    solve's relative residual, evaluated in long double (see
    _verified_solve), or a refined column's estimated forward error (see
    GroundedFactor.factored_solve)."""

    def __init__(self, target: float, achieved: float, steps: int, measure: str = "relative residual"):
        self.target = target
        self.achieved = achieved
        self.steps = steps
        super().__init__(
            f"solver stopped after {steps} refinement steps at {measure} "
            f"{achieved:.3e} (target {target:.3e})"
        )


@dataclass(frozen=True)
class SolverSpec:
    """How tight to solve Laplacian systems and where the randomness comes from.

    mode selects the estimator-accuracy-to-residual mapping every solve is
    held to (see solver_tolerance); seed roots the estimators' randomness.
    """

    mode: str = PRACTICAL
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (PRACTICAL, PAPER_LITERAL):
            raise ValueError(f"unknown solver mode {self.mode!r}")


def solver_tolerance(spec: SolverSpec, epsilon: float, n: int, w_max: float, power: int = 8) -> float:
    """Relative-residual target for one estimator solve at accuracy epsilon.

    paper-literal applies the eps * n^-power * w_max^-4 / 72 rule (power 8 for
    trace-sample solves, 9 for the basis-vector solve), clamped below at
    1e-14 where it would underflow float64. practical uses
    min(epsilon/10, 1e-8).
    """
    if spec.mode == PAPER_LITERAL:
        return max(epsilon * float(n) ** (-power) * float(w_max) ** (-4.0) / 72.0, _TOLERANCE_FLOOR)
    return min(epsilon / 10.0, 1e-8)


def build_laplacian(g: Graph) -> sparse.csr_matrix:
    """Weighted Laplacian L = D - A as sparse CSR."""
    us, vs, ws = g.edge_arrays
    rows = np.concatenate([us, vs, us, vs])
    cols = np.concatenate([vs, us, us, vs])
    data = np.concatenate([-ws, -ws, ws, ws])
    return sparse.coo_matrix((data, (rows, cols)), shape=(g.n, g.n)).tocsr()


def _require_connected(lap: sparse.csr_matrix, what: str) -> None:
    """Refuse a Laplacian whose graph is disconnected."""
    # L's sparsity pattern is the graph plus self-loops, which keep components
    if connected_components(lap, directed=False, return_labels=False) != 1:
        raise ValueError(f"{what} requires a connected graph")


def grounded_laplacian(lap: sparse.csr_matrix, v: int) -> sparse.csr_matrix:
    """lap with row and column v replaced by e_v, as CSR with sorted
    indices and no stored zeros: a stored zero in v's row would change the
    fill-reducing order that GroundedFactor's factorization picks. On a
    connected graph's Laplacian it is positive definite, and its inverse
    is the grounded inverse with a 1 at (v, v)."""
    a = lap.tocoo()
    off = (a.row != v) & (a.col != v)
    rows, cols = np.append(a.row[off], v), np.append(a.col[off], v)
    return sparse.csr_matrix((np.append(a.data[off], 1.0), (rows, cols)), shape=lap.shape)


def grounded_inverse(lap: sparse.csr_matrix, v: int) -> np.ndarray:
    """The inverse M of the Laplacian grounded at v, n x n in node order
    with an exactly zero row and column v, so R_v = tr(M), exactly
    symmetric and in Fortran order.

    Its columns are the solves of the unit columns by the sparse factor
    of grounded_laplacian(lap, v), _PANEL at a time, written into M
    itself (GroundedFactor.factored_solve, refined where the factor's probe
    is above _FORWARD_ERROR_TARGET); the upper triangle is then copied into
    the lower one (_mirror_upper). The factor, probed as it is built, exists
    before the n x n array is allocated."""
    n = lap.shape[0]
    if n > DENSE_NODE_LIMIT:
        raise ValueError(
            f"dense grounded inverse refused for n={n} > {DENSE_NODE_LIMIT}; use the solver/estimator path"
        )
    if n == 1:
        return np.zeros((1, 1), order="F")  # v alone: its row and column are all of M
    factor = GroundedFactor(lap, v)
    m = np.empty((n, n), order="F")
    store = np.empty(n * min(n, _PANEL))
    for s in range(0, n, _PANEL):
        width = min(_PANEL, n - s)
        factor.factored_solve(_unit_block(store, n, s, width), m[:, s : s + width])
    _mirror_upper(m)
    m[v, :] = m[:, v] = 0.0
    return m


def reground(m: np.ndarray, w: int, v: int) -> None:
    """Turn m = grounded_inverse(lap, w) into grounded_inverse(lap, v) in
    m's own storage, at O(n^2) cost and with no n x n temporary.

    With zero rows and columns at their ground nodes, the inverse grounded
    at v is G_v[a, b] = G_w[a, b] - c[a] - c[b] + gamma for the column
    c = G_w e_v and gamma = c[v] (Klein and Randic, J. Math. Chem. 1993).
    So every entry takes that rank-2 term, one _PANEL of columns at a time,
    and row and column v, zero but for roundoff, are zeroed. c[a] + c[b]
    is summed before it is subtracted, so m stays exactly symmetric."""
    if w == v:
        raise ValueError(f"the inverse is already grounded at {v}")
    c = m[:, v].copy()
    gamma = c[v]
    for s in range(0, m.shape[0], _PANEL):
        panel = m[:, s : s + _PANEL]
        panel -= c[:, None] + c[s : s + _PANEL]
        panel += gamma
    m[v, :] = m[:, v] = 0.0


def _project_out_mean(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x less its column means, written into out when given."""
    return np.subtract(x, x.mean(axis=0, keepdims=True), out=out)


# Largest entry of U - D L^T, relative to U's, in a symmetric factorization.
_SYMMETRY_RTOL = 1e-12


class _LevelSchedule:
    """Forward and back substitution with the LU factors of a grounded
    Laplacian (grounded_laplacian), one level of rows at a time.

    A SuperLU factorization under SymmetricMode that made no row
    interchanges (perm_r == perm_c) is P A P^T = L D L^T with U = D L^T.
    Row i of the unit triangle L waits for the rows of its off-diagonal
    entries, so its dependency level is one more than theirs: the height
    of i in L's elimination tree. With the rows renumbered by level, the
    rows of one level form a CSR block over the rows before them, and the
    forward substitution is one sparse product per level; the back
    substitution with L^T is one per level in reverse, after scaling by
    D^-1 (Anderson and Saad 1989; Saltz 1990). The last levels that hold
    one row each, the ordering's final separator, form one dense unit
    triangle, the tail, unless that triangle would hold more entries than
    L: it is then mostly zeros, and its rows stay sparse levels. The tail
    is inverted once, in its own storage (LAPACK dtrtri), and both halves
    multiply by that inverse (BLAS dtrmm): at n=5000, on a 548-row tail
    and 256 columns with one BLAS thread, 1.33-1.40 ms forward and
    1.27-1.31 ms back (quartiles of 15), against 2.68-2.78 and 2.63-2.68
    ms for triangular solves (dtrsm) with the tail itself. Every product
    adds into the rows of the one array that holds the solution in level
    order.

    The schedule pays a fixed cost per level, so against SuperLU's solve
    it loses on narrow blocks and wins on wide ones. With one BLAS thread,
    on graphs of 34 to 5,000 nodes with 1 to 109 rows per level, a single
    column took 1.4 to 56 times SuperLU's time and 256 columns 0.18 to
    0.76 times it; the one loss at 256 columns, 1.11 times, was a
    500-node path hanging off a clique, one row per level. The
    approximate greedy solves mostly wide blocks, and took 0.55 to 0.91
    of its time on SuperLU's solve on seven of those graphs, cycles and
    paths included, so the schedule serves every factor.
    """

    def __init__(self, lu):
        """The schedule for lu, a factorization of a grounded Laplacian.
        Raises RuntimeError, naming the check, when lu is not of the form
        above."""
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise RuntimeError("no level schedule: SuperLU made row interchanges (perm_r != perm_c)")
        lower, upper = lu.L, lu.U  # CSC, kept by lu
        d = upper.diagonal()
        if not np.all(d > 0.0):
            raise RuntimeError("no level schedule: the factor has a pivot that is not positive")
        _require_d_lt(lower, upper, d)
        n = lower.shape[0]
        rows = lower.indices
        cols = np.repeat(np.arange(n, dtype=rows.dtype), np.diff(lower.indptr))
        strict = rows > cols
        rows, cols, vals = rows[strict], cols[strict], lower.data[strict]
        # heights in the elimination tree, whose parent of column j is its
        # least row below the diagonal; parents follow their children
        starts = np.searchsorted(cols, np.arange(n))
        nonempty = starts < np.append(starts[1:], len(cols))
        parent = np.full(n, n)
        parent[nonempty] = np.minimum.reduceat(rows, starts[nonempty])
        height = [0] * (n + 1)
        for j, p in enumerate(parent.tolist()):
            if height[p] <= height[j]:
                height[p] = height[j] + 1
        level = np.array(height[:n], dtype=rows.dtype)
        if not np.all(level[rows] > level[cols]):
            raise RuntimeError("no level schedule: L's pattern is not a filled graph's")
        counts = np.bincount(level)
        shared = np.flatnonzero(counts > 1)
        first_tail = int(shared[-1]) + 1 if shared.size else 0
        tail = len(counts) - first_tail  # rows, one per level
        if tail * (tail + 1) > 2 * lower.nnz:
            # a triangle with more entries than L is mostly zeros, a long
            # sparse chain (as in a narrow grid): its rows stay sparse
            first_tail = len(counts)
        order = np.argsort(level, kind="stable")  # factor row at each position
        pos = np.empty(n, dtype=rows.dtype)
        pos[order] = np.arange(n, dtype=rows.dtype)
        bounds = np.concatenate(([0], np.cumsum(counts[:first_tail]))).tolist()
        self._t0 = t0 = bounds[-1]
        rows, cols = pos[rows], pos[cols]
        in_tail = cols >= t0
        self._tail = np.zeros((n - t0, n - t0), order="F")
        self._tail[rows[in_tail] - t0, cols[in_tail] - t0] = vals[in_tail]
        if t0 < n:
            # the tail's inverse, in the tail's own storage; its stored
            # diagonal stays zero, and every product with it (dtrmm, diag=1)
            # takes the unit diagonal as given
            _, info = lapack.dtrtri(self._tail, lower=1, unitdiag=1, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"triangular inverse failed (LAPACK dtrtri info={info})")
        # the sparse part, negated, so that each product adds -L y to its
        # rows; a level's block is a slice of the rows' pointers
        keep = ~in_tail
        below = sparse.csr_matrix((-vals[keep], (rows[keep], cols[keep])), shape=(n, n))
        above = below.T.tocsr()
        self._below, self._above = (below.indices, below.data), (above.indices, above.data)
        levels = list(zip(bounds[:-1], bounds[1:]))
        self._forward = [
            (s, e, ptr) for s, e in levels + [(t0, n)] if (ptr := below.indptr[s : e + 1])[-1] > ptr[0]
        ]
        self._backward = [
            (s, e, ptr) for s, e in reversed(levels) if (ptr := above.indptr[s : e + 1])[-1] > ptr[0]
        ]
        self._d = d[order][:, None]
        node = np.empty(n, dtype=np.int64)
        node[lu.perm_c] = np.arange(n)  # node of each factor row
        self._src = node[order]  # node of each position
        self._back = np.empty(n, dtype=np.int64)
        self._back[self._src] = np.arange(n)

    def solve(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A^-1 r for an n x k block r and the factored matrix A, written
        into out in node order."""
        n, k = r.shape
        y = np.empty((n, k))
        # mode "clip" lets take write into its out without a buffer; the
        # indices are in range by construction
        np.take(r, self._src, axis=0, out=y, mode="clip")
        self._forward_half(y)
        y /= self._d
        self._backward_half(y)
        return np.take(y, self._back, axis=0, out=out, mode="clip")

    def _forward_half(self, y: np.ndarray, start: int = 0) -> None:
        """y <- L^-1 y in y's storage, for a block y in level order whose
        rows before position start are zero. Those rows stay zero, and so
        does every product that reads only them: the levels up to start's,
        and the tail's rows before start (the trailing block of the tail's
        inverse is the inverse of the tail's trailing block). y has n rows,
        or only the t0 rows of the sparse levels: L^-1's leading t0 x t0
        block is the inverse of L's, so the sparse levels alone give those
        rows, and neither the tail's rows' product nor the tail runs."""
        rows, k = y.shape
        # each product reads y's rows of other levels and adds into its own
        idx, val = self._below
        for s, e, ptr in self._forward:
            if start < s < rows:
                csr_matvecs(e - s, rows, k, ptr, idx, val, y, y[s:e])
        # dtrmm multiplies the tail's rows in place as the Fortran-order y^T
        first = max(start, self._t0)
        if first < rows:
            tail = self._tail[first - self._t0 :, first - self._t0 :]
            blas.dtrmm(1.0, tail, y[first:].T, side=1, lower=1, trans_a=1, diag=1, overwrite_b=1)

    def _backward_half(self, y: np.ndarray) -> None:
        """y <- L^-T y in y's storage, for an n x k block y in level order:
        the tail's rows by the transposed inverse triangle, then the sparse
        levels in reverse, each product adding into its own rows."""
        n, k = y.shape
        t0 = self._t0
        if t0 < n:
            blas.dtrmm(1.0, self._tail, y[t0:].T, side=1, lower=1, trans_a=0, diag=1, overwrite_b=1)
        idx, val = self._above
        for s, e, ptr in self._backward:
            csr_matvecs(e - s, n, k, ptr, idx, val, y, y[s:e])

    def diagonal(self, v: int) -> np.ndarray:
        """diag(A^-1) in node order, but zero at node v: the grounded
        inverse is zero there. A^-1 is P^T L^-T D^-1 L^-1 P, so in level
        order diag(A^-1)_p = sum_r (L^-1)_rp^2 / d_r, read from the factor
        in two parts split at the tail (reading part of a sparse inverse
        from its factor, Erisman and Tinney 1975):
        - rows r in the sparse levels: the forward half over those levels
          alone, on t0-row blocks of the sparse unit columns, _BLOCK at a
          time, each block from the level of its first column; the tail's
          unit columns have no such rows;
        - rows r in the tail: row r of L^-1 is L^-T e_r, the backward half
          on the tail's unit columns, _BLOCK at a time, whose squares,
          weighted by 1/d_r, add into every p.
        No block is larger than n x _BLOCK."""
        n, t0 = len(self._src), self._t0
        diag = np.zeros(n)  # in level order
        inv_d = 1.0 / self._d[:, 0]
        store = np.empty(n * min(n, _BLOCK))  # one array for every block
        # einsum, not a BLAS product: threaded BLAS on these narrow products
        # ran 10 times slower than one thread on 2 vCPUs
        for s in range(0, t0, _BLOCK):
            y = _unit_block(store, t0, s, min(_BLOCK, t0 - s))
            self._forward_half(y, s)
            below = np.square(y[s:], out=y[s:])
            diag[s : s + y.shape[1]] = np.einsum("ij,i->j", below, inv_d[s:t0])
        for s in range(t0, n, _BLOCK):
            y = _unit_block(store, n, s, min(_BLOCK, n - s))
            self._backward_half(y)
            diag += np.einsum("ij,j->i", np.square(y, out=y), inv_d[s : s + y.shape[1]])
        diag = diag[self._back]
        diag[v] = 0.0
        return diag


def _unit_block(store: np.ndarray, rows: int, s: int, width: int) -> np.ndarray:
    """The unit columns e_s to e_(s + width - 1), with rows entries each,
    written into store's front as a C-order rows x width block."""
    y = _prefix(store, rows, width)
    y.fill(0.0)
    y[s + np.arange(width), np.arange(width)] = 1.0
    return y


def _mirror_upper(m: np.ndarray) -> None:
    """Copy the upper triangle of the square Fortran-order m into its
    lower one, _PANEL columns at a time, so that m is exactly symmetric."""
    for s in range(0, m.shape[0], _PANEL):
        e = s + _PANEL
        m[e:, s:e] = m[s:e, e:].T
        m[s:e, s:e] = np.triu(m[s:e, s:e]) + np.triu(m[s:e, s:e], 1).T


def _require_d_lt(lower: sparse.csc_matrix, upper: sparse.csc_matrix, d: np.ndarray) -> None:
    """Refuse (RuntimeError) the CSC factors of an LU unless U = D L^T with
    D = diag(d), in pattern and to _SYMMETRY_RTOL of U's largest entry.
    Sorts upper's indices in place."""
    by_rows = lower.tocsr()  # the columns of L^T
    by_rows.sort_indices()
    upper.sort_indices()
    if not (
        np.array_equal(by_rows.indptr, upper.indptr)
        and np.array_equal(by_rows.indices, upper.indices)
    ):
        raise RuntimeError("no level schedule: U's pattern is not that of D L^T")
    gap = d[upper.indices]
    gap *= by_rows.data
    gap -= upper.data
    largest = max(upper.data.max(), -upper.data.min())
    if not max(gap.max(), -gap.min()) <= _SYMMETRY_RTOL * largest:
        raise RuntimeError(
            f"no level schedule: U is off D L^T by more than {_SYMMETRY_RTOL:g} of its largest entry"
        )


class GroundedFactor:
    """Inverse of a connected graph's Laplacian grounded at node v, kept
    across insertions of edges at v. It refuses a disconnected graph
    (ValueError), where the grounded matrix is singular.

    Factors A = grounded_laplacian(lap, v) once, as a sparse LU with a
    symmetric minimum-degree ordering (A is SPD, and v, alone in its row
    and column, adds one entry to the factor). SuperLU keeps the diagonal
    pivots (a threshold of 0; its default swaps rows of many weighted
    graphs' factors), so the factor is P A P^T = L D L^T: its solves run
    on a read-only _LevelSchedule, in node order, their row v zeroed, so
    a solve against e_u - e_v gives M's column u, row for row; SuperLU's
    own factor is released. A factor that is not of that form is refused
    (RuntimeError, naming the schedule's check it failed).

    Inserting an edge (u, v, w) only adds w to A's diagonal at u, so the
    current inverse M loses one rank-1 term, M - c c^T with c = s M e_u
    and s = sqrt(w / (1 + w M_uu)). add() appends c, from the caller's
    M e_u, as a column of W (node rows). A solve is the schedule's
    y = A^-1 r less W coef, where coef_j = c_j^T r is
    s_j (y[u_j] - sum_{i<j} W[u_j, i] coef_i): one lower-triangular solve
    with tril(W[rows], -1) + diag(1/s), built up by add().

    A factor measures its own accuracy once, when it is built: the probe
    (forward_error, a float) estimates the relative forward error of the
    schedule's solves from 4 random columns, at two more solves. Where it
    is above _FORWARD_ERROR_TARGET (1e-12), as when the fill-reducing
    order leaves a small last pivot, diagonal(), grounded_inverse and the
    ranking's M 1 read refined solves (factored_solve); elsewhere they
    read the factor as it is. At n=5000 (ws5000, target 17) the probe
    reads 4.2e-14 and costs 4-7 ms; on a 500-node path hanging off a
    30-node clique, grounded at the path's far end, it reads 3.7e-11,
    where the diagonal read by parts, unrefined, was off by 3.7e-11.
    """

    def __init__(self, lap: sparse.csr_matrix, v: int):
        n = lap.shape[0]
        if not (0 <= v < n and n >= 2):
            raise ValueError(f"cannot ground node {v} of a {n}-node Laplacian")
        _require_connected(lap, "a grounded factor")
        self.n = n
        self.v = v
        self._grounded = grounded_laplacian(lap, v)  # A, for the residuals of refinement
        self._levels = _LevelSchedule(sparse.linalg.splu(
            self._grounded.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ))
        self._rows = np.zeros(0, dtype=np.int64)  # the node u_j of each correction
        self._w = np.zeros((n, 0), order="F")
        self._tri = np.zeros((0, 0))
        # The probe: an estimate of the schedule's relative forward error in
        # solving A x = b. _PROBE_COLUMNS random columns b, from a stream
        # that nothing else draws, are solved, and the correction of one
        # refinement step (factored_solve's) stands for each solution's
        # error: the probe is the largest ||correction|| / ||x|| over them.
        b = seeded_rng(0, _PROBE_KEY).standard_normal((n, _PROBE_COLUMNS))
        x = self._levels.solve(b, np.empty_like(b))
        self.forward_error = float(np.max(_norm_ratio(self._correction(b, x), x)))

    def add(self, u: int, w: float, x: np.ndarray) -> float:
        """Account for a new edge (u, v) of weight w, given x = M e_u for
        the current inverse M, in node rows with zero at v. Returns the
        edge's R_v drop ||c||^2 = w ||x||^2 / (1 + w x_u)."""
        if u == self.v or not 0 <= u < self.n:
            raise ValueError(f"edge ({u}, {self.v}) is not a new edge at the grounded node")
        if not 0.0 < w < math.inf:
            raise ValueError("edge weight must be positive and finite")
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}; expected ({self.n},)")
        s = math.sqrt(w / (1.0 + w * x[u]))
        c = x * s
        j = len(self._rows)
        tri = np.zeros((j + 1, j + 1))
        tri[:j, :j] = self._tri
        tri[j, :j] = self._w[u]
        tri[j, j] = 1.0 / s
        self._tri = tri
        # Fortran order, like the solves it updates in place
        self._w = np.asfortranarray(np.column_stack([self._w, c]))
        self._rows = np.append(self._rows, u)
        return float(c @ c)

    def solve(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M r for an n x k block r of zero-sum columns, M the grounded
        inverse of the factored Laplacian L' plus every added edge: the
        solution of L' x = r that is zero at v. It is written into out when
        given, an array of r's shape that does not overlap r."""
        if out is None:
            out = np.empty_like(r)
        self._levels.solve(r, out)
        out[self.v] = 0.0
        if self._rows.size:
            coef = blas.dtrsm(1.0, self._tri, out[self._rows], lower=1)
            # out -= W coef, as out^T -= coef^T W^T in out's storage
            fixed = blas.dgemm(-1.0, coef, self._w, 1.0, out.T, trans_a=1, trans_b=1, overwrite_c=True)
            if not out.flags.c_contiguous:  # dgemm solved a copy
                out[...] = fixed.T
        return out

    def diagonal(self) -> np.ndarray:
        """diag(M) of the current inverse M, in node order with zero at v:
        the schedule's diagonal less c o c for each correction c. Its sum
        is R_v = tr(M). Where the probe (forward_error) is above
        _FORWARD_ERROR_TARGET, the schedule's diagonal is read from refined
        solves of the unit columns (factored_solve), _BLOCK at a time,
        instead of by parts (_LevelSchedule.diagonal)."""
        n = self.n
        if self.forward_error <= _FORWARD_ERROR_TARGET:
            diag = self._levels.diagonal(self.v)
        else:
            diag = np.zeros(n)
            others = np.delete(np.arange(n), self.v)
            for s in range(0, n - 1, _BLOCK):
                at = others[s : s + _BLOCK]
                unit = np.zeros((n, len(at)))
                unit[at, np.arange(len(at))] = 1.0
                diag[at] = self.factored_solve(unit)[at, np.arange(len(at))]
        diag -= np.einsum("ij,ij->i", self._w, self._w)
        return diag

    def factored_solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A^-1 b for an n x k block b in node order and the factored
        matrix A, without add()'s corrections, zero in row v, written into
        out when given (an array of b's shape apart from b): the probe rule,
        written once. Where the probe is above _FORWARD_ERROR_TARGET, each
        step adds the correction, the schedule's solve of b - A x with that
        residual in long double (iterative refinement on the factor, Moler
        1967). A step shrinks x's error by about the probe's factor, so the
        error left after a correction d is about forward_error ||d||; the
        steps end once that is within the target of ||x|| in every column.
        Raises SolverConvergenceError when _REFINEMENT_STEPS steps fall
        short, or a column is NaN."""
        x = self._levels.solve(b, np.empty_like(b) if out is None else out)
        left, steps = self.forward_error, 0
        while not left <= _FORWARD_ERROR_TARGET:  # NaN included
            if steps == _REFINEMENT_STEPS:
                raise SolverConvergenceError(_FORWARD_ERROR_TARGET, left, steps, "estimated forward error")
            correction = self._correction(b, x)
            x += correction
            left = self.forward_error * float(np.max(_norm_ratio(correction, x)))
            steps += 1
        x[self.v] = 0.0
        return x

    def _correction(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The schedule's solve of b - A x, that residual evaluated in long
        double and rounded to float64."""
        res = (b - self._grounded.astype(np.longdouble) @ x.astype(np.longdouble)).astype(np.float64)
        return self._levels.solve(res, np.empty_like(res))


def _norm_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_j|| / ||b_j|| for each column j (NaN where b_j is zero)."""
    return np.sqrt(np.einsum("ij,ij->j", a, a) / np.einsum("ij,ij->j", b, b))


# Steps of refinement on the factor for a column whose residual misses its
# target in long double too.
_REFINEMENT_STEPS = 2
# A column that still misses its target after them passes at a normwise
# backward error ||r|| / (||L|| ||x|| + ||b||) within 8 u (u = 2^-53): no
# float64 x has a residual much below u ||L|| ||x|| (Rigal and Gaches 1967;
# Higham 2002, section 7.1). Approx on cycle(5000) and paper-literal
# approx at n=5000 end at 0.29 u and 0.18 u there.
_BACKWARD_ERROR_BOUND = 8 * 2.0**-53


def _verified_solve(
    lap: sparse.csr_matrix,
    rhs: np.ndarray,
    tol: float,
    solve,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Solve L x = rhs for zero-sum columns to relative residual tol each.

    solve is a direct solve (a GroundedFactor's), called as solve(rhs, out);
    out, an array of rhs's shape or None, is where it writes x. Its answer
    stands for every column with ||rhs - L x|| <= tol ||rhs|| in float64.
    That residual carries an error of about eps ||L|| ||x|| of its own, so
    a column that misses is checked again with its residual evaluated in
    np.longdouble, and refined where it misses there too (_refine). Where
    np.longdouble is float64 (MSVC, some ARM builds), the re-check is no
    stronger than the first. A NaN column is never accepted.
    """
    x = solve(rhs, out)
    res = lap @ x
    res -= rhs
    failed = np.flatnonzero(~_within(res, rhs, tol))
    if failed.size:
        x[:, failed] = _refine(lap, rhs[:, failed], x[:, failed], tol, solve)
    return x


def _within(res: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """Whether each column of res is at most tol times its rhs column in
    2-norm (tol alone for a zero rhs); NaN is not."""
    res_sq = np.einsum("ij,ij->j", res, res)
    b_sq = np.einsum("ij,ij->j", rhs, rhs)
    return res_sq <= tol**2 * np.where(b_sq > 0.0, b_sq, 1.0)


def _refine(lap: sparse.csr_matrix, rhs: np.ndarray, x: np.ndarray, tol: float, solve) -> np.ndarray:
    """x, with each column whose residual r = rhs - L x, in long double,
    misses tol refined by up to _REFINEMENT_STEPS steps x += solve(r)
    (iterative refinement on the factor, Moler 1967), or passed by its
    backward error (_BACKWARD_ERROR_BOUND, ||L||_inf = 2 max L_ii). Raises
    SolverConvergenceError for a column that still misses, or is NaN."""
    wide = lap.astype(np.longdouble)
    b = rhs.astype(np.longdouble)
    step = 0
    while True:
        res = b - wide @ x.astype(np.longdouble)
        missed = np.flatnonzero(~_within(res, b, tol))
        if not missed.size:
            return x
        if step == _REFINEMENT_STEPS:
            res, b, wx = res[:, missed], b[:, missed], x[:, missed].astype(np.longdouble)
            r, b_norm, x_norm = (np.sqrt(np.einsum("ij,ij->j", a, a)) for a in (res, b, wx))
            refused = ~(r <= _BACKWARD_ERROR_BOUND * (2.0 * lap.diagonal().max() * x_norm + b_norm))
            if not refused.any():
                return x
            rel = r[refused] / np.where(b_norm[refused] > 0.0, b_norm[refused], 1.0)
            raise SolverConvergenceError(tol, float(rel[np.argmax(rel)]), step)  # a NaN, if any
        x[:, missed] += solve(res[:, missed].astype(np.float64))
        step += 1


def _prefix(store: np.ndarray, height: int, width: int) -> np.ndarray:
    """The first height * width entries of the flat store as a C-order
    height x width array."""
    return store[: height * width].reshape(height, width)


def _rademacher_block_solve(
    lap: sparse.csr_matrix,
    rng: np.random.Generator,
    shape: tuple[int, int],
    to_rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float,
    solve,
    us: np.ndarray,
    vs: np.ndarray,
) -> np.ndarray:
    """Solve L y = to_rhs(z, out) for a Rademacher z of the given
    (rows, count) shape, drawn and solved _BLOCK columns at a time by
    _verified_solve with solve. to_rhs must return zero-sum columns, and may
    build them in out, an n x width array. Returns
    sum_j (y[u, j] - y[v, j])^2 for each u, v in zip(us, vs) (a single v
    broadcasts): approx's per-candidate sums, for its trace term and for
    the resistance sketch.

    Where the single v's row of a block is exactly zero, as it is for a
    solve grounded at v (both of approx's calls), the block adds its own
    rows' sums of squares at us, with the same bits and without gathering
    y[us] - y[v]; elsewhere (distinct v's, or a v that is not the ground)
    it gathers the differences.
    """
    rows, count = shape
    n = lap.shape[0]
    for idx in (us, vs):
        if idx.size and not 0 <= idx.min() <= idx.max() < n:
            raise IndexError(f"row indices must lie in [0, {n})")
    sq_dists = np.zeros(len(us), dtype=np.float64)
    produced = 0
    while produced < count:
        width = min(_BLOCK, count - produced)
        z = rademacher(rng, (rows, width))
        if not produced:
            # Each block's right-hand side, solution and gathered rows are
            # written into three arrays allocated once, after the first draw
            # (the other order raised the peak RSS of an n=5000 run by 11 MB),
            # and reused by every block until this call returns: fresh
            # n x _BLOCK temporaries per block cost page faults. The rows us
            # overwrite the right-hand side, which is dead once its block is
            # solved. A block views the C-contiguous prefix of each that its
            # width needs (_prefix), never a strided column slice, whose sums
            # NumPy may order differently.
            rhs_store, y_store, far_store = (
                np.empty(h * width) for h in (max(n, len(us)), n, len(vs))
            )
        rhs = to_rhs(z, _prefix(rhs_store, n, width))
        del z  # unread from here on; the sketch's is its largest array
        y = _verified_solve(lap, rhs, tol, solve, _prefix(y_store, n, width))
        if len(vs) == 1 and not y[vs[0]].any():
            # y[u] - 0.0 is y[u] up to the sign of a zero, which squaring
            # drops, so the sums of y's own rows have the bits of the
            # gathered differences' (a grounded solve is zero at v)
            sq_dists += np.einsum("ij,ij->i", y, y)[us]
        else:
            # mode "clip" lets take write into its out without a buffer; the
            # indices were checked above
            near = np.take(y, us, axis=0, out=_prefix(rhs_store, len(us), width), mode="clip")
            near -= np.take(y, vs, axis=0, out=_prefix(far_store, len(vs), width), mode="clip")
            sq_dists += np.einsum("ij,ij->i", near, near)
        produced += width
    return sq_dists


def _signed_incidence_transpose(g: Graph) -> sparse.csr_matrix:
    """n x m matrix whose column for edge (u, v, w) is sqrt(w) (e_u - e_v)."""
    us, vs, ws = g.edge_arrays
    m = len(ws)
    root = np.sqrt(ws)
    rows = np.concatenate([us, vs])
    cols = np.concatenate([np.arange(m), np.arange(m)])
    data = np.concatenate([root, -root])
    return sparse.coo_matrix((data, (rows, cols)), shape=(g.n, m)).tocsr()


def _require_epsilon(epsilon: float) -> None:
    """Refuse an epsilon outside (0, 1/2], where the estimators are analysed."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must be in (0, 1/2]")


def _require_sketch_constant(sketch_constant: float) -> None:
    """Refuse a sketch constant, the scale of q, that is not positive and finite."""
    if not 0.0 < sketch_constant < math.inf:
        raise ValueError(f"sketch_constant must be positive and finite; got {sketch_constant}")


def approx_eff_res(
    g: Graph,
    pairs: np.ndarray | Sequence[tuple[int, int]],
    epsilon: float,
    *,
    spec: SolverSpec = SolverSpec(),
    sketch_constant: float = SKETCH_CONSTANT,
    solve=None,
    lap: sparse.csr_matrix | None = None,
) -> np.ndarray:
    """Sketch-based effective-resistance estimates, in pair order, for the
    pairs, a (p, 2) array of node ids (a list of (u, v) tuples converts).

    Builds q = ceil(sketch_constant * ln(n) / epsilon^2) random +-1 signed
    aggregations of the weighted incidence structure, drawn from spec's
    seed, resolves each with one Laplacian solve, and reads R(u, v) off as
    the squared distance between sketch columns u and v. With the default
    constant each estimate is an epsilon-approximation of the true
    resistance with high probability.
    g must be connected, which the factor checks. solve is a direct solve
    for g's Laplacian to share with other calls (default: a fresh factor),
    and lap is g's Laplacian (default: built here). A caller that passes
    solve or lap holds a factor of g, which has already checked g. Every
    solve is verified either way.
    """
    _require_epsilon(epsilon)
    _require_sketch_constant(sketch_constant)
    n = g.n
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if outside.size:
        raise ValueError("pair ({}, {}) out of range".format(*pairs[outside[0]].tolist()))
    if n == 1:
        return np.zeros(len(pairs))

    if lap is None:
        lap = build_laplacian(g)
    if solve is None:
        solve = GroundedFactor(lap, 0).solve
    tol = solver_tolerance(spec, epsilon, n, g.w_max, power=8)
    q = math.ceil(sketch_constant * math.log(n) / epsilon**2)
    # the sketch is inc_t @ (block * (1 / sqrt(q))); with block's entries
    # +-1, scaling inc_t once instead gives every product, hence every sum,
    # the same bits
    inc_t = _signed_incidence_transpose(g) * (1.0 / math.sqrt(q))
    us, vs = pairs[:, 0], pairs[:, 1]
    if vs.size and np.all(vs == vs[0]):
        vs = vs[:1]  # one shared endpoint, as the greedy's pairs have, broadcasts

    def sketch(block: np.ndarray, out: np.ndarray) -> np.ndarray:
        # inc_t @ block, written into out by the kernel that product runs,
        # onto zeros as it does; its columns are in range(L), hence zero-sum
        out.fill(0.0)
        csr_matvecs(n, g.m, block.shape[1], inc_t.indptr, inc_t.indices, inc_t.data, block, out)
        return out

    return _rademacher_block_solve(lap, seeded_rng(spec.seed, 4), (g.m, q), sketch, tol, solve, us, vs)


def solver_deviation_notes(spec: SolverSpec) -> list[str]:
    """Human-readable flags for every departure from the literal tolerances."""
    notes = []
    if spec.mode == PRACTICAL:
        notes.append(
            "solver tolerances use the practical mapping min(eps/10, 1e-8) "
            "instead of the literal eps*n^-8/72 and eps*n^-9/72 rules"
        )
    else:
        notes.append(
            f"paper-literal solver tolerances are clamped below at {_TOLERANCE_FLOOR:g} "
            "where the literal formulas underflow float64"
        )
    return notes
