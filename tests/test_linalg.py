"""Laplacian algebra: the grounded inverse and factor, verified solves and
their refinement, the Rademacher trace sum and the resistance sketch, plus the
pseudoinverse oracle and its rank-1 edge update."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from icmax.graphs import Graph, generate_ba, generate_ws, load_edge_list
from icmax.linalg import (
    DENSE_NODE_LIMIT,
    PAPER_LITERAL,
    PRACTICAL,
    GroundedFactor,
    SolverConvergenceError,
    SolverSpec,
    _BLOCK,
    _BACKWARD_ERROR_BOUND,
    _REFINEMENT_STEPS,
    _LevelSchedule,
    _project_out_mean,
    _rademacher_block_solve,
    _signed_incidence_transpose,
    _verified_solve,
    approx_eff_res,
    build_laplacian,
    grounded_inverse,
    grounded_laplacian,
    reground,
    solver_deviation_notes,
    solver_tolerance,
)
from icmax.rand import seeded_rng

from conftest import (
    add_to_factor,
    complete_graph,
    counting_refine,
    cycle_graph,
    lollipop_graph,
    path_graph,
    random_connected_graph,
)
from oracles import (
    _cholesky_inverse,
    grounded_factor_solve_reference,
    grounded_inverse_reference,
    hutchinson_sample_count,
    pseudoinverse,
    rademacher_block_solve_reference,
    sherman_morrison_update,
)

# Exact pseudoinverse of the 3-path 0-1-2 with unit weights.
P3_PINV = np.array(
    [
        [5.0, -1.0, -4.0],
        [-1.0, 2.0, -1.0],
        [-4.0, -1.0, 5.0],
    ]
) / 9.0

# Pseudoinverse of the unit triangle: (1/3) I - (1/9) J.
K3_PINV = np.eye(3) / 3.0 - np.ones((3, 3)) / 9.0


# ---------------------------------------------------------------------------
# Laplacian construction


def test_laplacian_structure():
    g = Graph.from_edges(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 0.5), (0, 3, 1.5)])
    lap = build_laplacian(g).toarray()
    assert np.array_equal(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert lap[0, 1] == -2.0 and lap[2, 3] == -0.5
    assert lap[0, 0] == 3.5  # weighted degree of node 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_laplacian_row_sums_vanish(seed):
    g = random_connected_graph(seed, max_n=25, weighted=True)
    lap = build_laplacian(g).toarray()
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(lap, lap.T)


# ---------------------------------------------------------------------------
# Dense pseudoinverse


def test_pseudoinverse_path3_exact():
    pinv = pseudoinverse(build_laplacian(path_graph(3)))
    assert np.allclose(pinv, P3_PINV, atol=1e-12)


def test_pseudoinverse_triangle_exact():
    pinv = pseudoinverse(build_laplacian(complete_graph(3)))
    assert np.allclose(pinv, K3_PINV, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pseudoinverse_properties(seed):
    g = random_connected_graph(seed, max_n=20, weighted=True)
    lap = build_laplacian(g)
    pinv = pseudoinverse(lap)
    dense = lap.toarray()
    assert np.allclose(dense @ pinv @ dense, dense, atol=1e-8)
    assert np.allclose(pinv, pinv.T, atol=1e-12)
    assert np.allclose(pinv @ np.ones(g.n), 0.0, atol=1e-9)
    assert np.allclose(pinv, scipy.linalg.pinv(dense), atol=1e-8)


def test_pseudoinverse_rejects_disconnected():
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="connected"):
        pseudoinverse(build_laplacian(g))


def test_pseudoinverse_refuses_oversize():
    g = path_graph(DENSE_NODE_LIMIT + 1)
    with pytest.raises(ValueError, match="solver"):
        pseudoinverse(build_laplacian(g))


# ---------------------------------------------------------------------------
# Dense grounded inverse


@pytest.mark.parametrize("seed", range(4))
def test_grounded_inverse_matches_dense_inverse(seed):
    # the inverse of L with v's row and column replaced by e_v, less its
    # 1 at (v, v)
    g = random_connected_graph(seed, n=25, weighted=True)
    v = seed * 7 % g.n
    grounded = build_laplacian(g).toarray()
    grounded[v, :] = grounded[:, v] = 0.0
    grounded[v, v] = 1.0
    ref = np.linalg.inv(grounded)
    ref[v, v] = 0.0
    inv = grounded_inverse(build_laplacian(g), v)
    assert inv.shape == (g.n, g.n)
    assert np.allclose(inv, ref, rtol=1e-10, atol=1e-12)


_DENSE_FAMILIES = {
    "rand60w": lambda: random_connected_graph(2, n=60, weighted=True),
    "rand300w": lambda: random_connected_graph(9, n=300, weighted=True),
    "ba700": lambda: generate_ba(700, 2, seed=4),
}


@pytest.mark.parametrize(
    "name, v",
    [
        ("rand60w", 0), ("rand60w", 31), ("rand300w", 7), ("rand300w", 299), ("ba700", 0), ("ba700", 350),
        ("lollipop", 0), ("lollipop", 529),
    ],
)
def test_grounded_inverse_from_t_matches_the_cholesky_solve(name, v):
    # wider than one panel of the mirror copy at 300 and 700 nodes. The
    # lollipop's factor at its path's end has a probe of 3.7e-11, so M's
    # columns are refined solves there (T^T T unrefined was off by
    # 3.5e-11); at both of its ends M is held to a long-double-refined
    # truth, since the Cholesky solve alone is off by 1.8e-12 and 1.3e-13
    # of the largest entry
    if name == "lollipop":
        lap = build_laplacian(lollipop_graph(30, 500))
        ref, rtol = grounded_inverse_reference(lap, v, refined=True), 1e-12
        assert (GroundedFactor(lap, v).forward_error > 1e-12) == (v == 529)
    else:
        lap = build_laplacian(_DENSE_FAMILIES[name]())
        ref, rtol = grounded_inverse_reference(lap, v), 1e-13
    inv = grounded_inverse(lap, v)
    assert inv.flags.f_contiguous
    assert np.array_equal(inv, inv.T)
    assert not inv[v].any() and not inv[:, v].any()
    assert np.abs(inv - ref).max() <= rtol * np.abs(ref).max()


def test_grounded_inverse_path3_row_layout():
    # P3 grounded at the middle node: both ends hang off it by unit edges
    inv = grounded_inverse(build_laplacian(path_graph(3)), 1)
    assert np.allclose(inv, np.diag([1.0, 0.0, 1.0]), atol=1e-14)
    # grounded at node 0: node u sits at row u, and row 0 is zero
    inv = grounded_inverse(build_laplacian(path_graph(3)), 0)
    assert np.allclose(inv, [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0]], atol=1e-14)


def test_grounded_inverse_of_one_node_is_zero():
    inv = grounded_inverse(build_laplacian(Graph.from_edges(1, [])), 0)
    assert inv.shape == (1, 1) and inv[0, 0] == 0.0 and inv.flags.f_contiguous


def test_grounded_inverse_rejects_disconnected():
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="connected"):
        grounded_inverse(build_laplacian(g), 0)


def test_grounded_inverse_refuses_oversize():
    g = path_graph(DENSE_NODE_LIMIT + 1)
    with pytest.raises(ValueError, match="solver"):
        grounded_inverse(build_laplacian(g), 0)


def _grounded_cholesky_inverse(lap, v: int) -> np.ndarray:
    """T = C^-1 for the lower Cholesky factor C of grounded_laplacian(lap,
    v), as the dense oracles form it for ||T||_F^2."""
    return _cholesky_inverse(grounded_laplacian(lap, v).toarray(order="F"))


@pytest.mark.parametrize("seed", range(4))
def test_grounded_cholesky_inverse_factors_the_grounded_inverse(seed):
    g = random_connected_graph(seed, n=25, weighted=True)
    v = seed * 7 % g.n
    t = _grounded_cholesky_inverse(build_laplacian(g), v)
    inv = grounded_inverse_reference(build_laplacian(g), v)
    assert t.shape == (g.n, g.n)
    assert np.array_equal(t, np.tril(t))
    # v's row and column of the grounded matrix are e_v's, and so are T's
    assert t[v, v] == 1.0 and np.count_nonzero(t[v]) == np.count_nonzero(t[:, v]) == 1
    t[v, v] = 0.0
    assert np.allclose(t.T @ t, inv, rtol=1e-10, atol=1e-12)
    assert np.sum(t * t) == pytest.approx(np.trace(inv), rel=1e-12)


def test_grounded_cholesky_inverse_path3():
    # grounded at node 0: L_{-0} = [[2, -1], [-1, 1]] = C C^T with
    # C = [[sqrt 2, 0], [-1/sqrt 2, 1/sqrt 2]], and node 0 keeps a 1
    t = _grounded_cholesky_inverse(build_laplacian(path_graph(3)), 0)
    root = math.sqrt(2.0)
    assert np.allclose(t, [[1.0, 0.0, 0.0], [0.0, 1.0 / root, 0.0], [0.0, 1.0 / root, root]], atol=1e-14)


def _ws300(weighted: bool) -> Graph:
    """A 300-node small world, with unit weights or weights log-uniform
    over 1e-2..1e2."""
    g = generate_ws(300, 4, 0.1, seed=5)
    if not weighted:
        return g
    us, vs, _ = g.edge_arrays
    spread = 10.0 ** seeded_rng(5, 2).uniform(-2.0, 2.0, size=len(us))
    return Graph.from_edges(g.n, [(int(a), int(b), float(w)) for a, b, w in zip(us, vs, spread)])


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize(
    "w, v", [(3, 200), (200, 3), (41, 42), (42, 41), (0, 299), (299, 0), (0, 1), (299, 298), (10, 139)]
)
def test_reground_matches_a_fresh_grounded_inverse(w, v, weighted):
    # across panel boundaries, to adjacent nodes, and from or to the first
    # and last node
    lap = build_laplacian(_ws300(weighted))
    m = grounded_inverse(lap, w)
    reground(m, w, v)
    ref = grounded_inverse_reference(lap, v)
    assert m.flags.f_contiguous
    assert np.array_equal(m, m.T)
    assert np.abs(m - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("weight", [1.0, 0.01, 100.0])
def test_reground_path2(weight):
    lap = build_laplacian(Graph.from_edges(2, [(0, 1, weight)]))
    m = grounded_inverse(lap, 0)
    reground(m, 0, 1)
    assert m == pytest.approx(grounded_inverse_reference(lap, 1), rel=1e-15)
    with pytest.raises(ValueError, match="already grounded at 1"):
        reground(m, 1, 1)


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_reground_chain_keeps_its_accuracy(weighted):
    # 31 steps in one chain end within 1e-12 of a fresh inverse
    lap = build_laplacian(_ws300(weighted))
    chain = [int(u) for u in seeded_rng(6, 3).choice(300, size=32, replace=False)]
    m = grounded_inverse(lap, chain[0])
    for w, v in zip(chain, chain[1:]):
        reground(m, w, v)
    ref = grounded_inverse_reference(lap, chain[-1])
    assert np.abs(m - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(m, m.T)


@pytest.mark.parametrize("w, v", [(0, 999), (999, 0), (400, 401)])
def test_reground_makes_no_square_temporary(w, v):
    m = grounded_inverse(build_laplacian(generate_ws(1000, 4, 0.1, seed=3)), w)
    tracemalloc.start()
    try:
        reground(m, w, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 8


def test_cholesky_inverse_raises_on_lapack_failure():
    # LAPACK reports a non-positive pivot through info; it must not pass
    with pytest.raises(np.linalg.LinAlgError, match="dpotrf info=2"):
        _cholesky_inverse(np.asfortranarray([[1.0, 2.0], [2.0, 1.0]]))


# ---------------------------------------------------------------------------
# Rank-1 update


def test_sherman_morrison_path_to_triangle():
    # closing the 3-path into a triangle has a known closed form
    updated = sherman_morrison_update(P3_PINV, (0, 2), 1.0)
    assert np.allclose(updated, K3_PINV, atol=1e-12)


def test_sherman_morrison_path_to_cycle():
    p4 = pseudoinverse(build_laplacian(path_graph(4)))
    c4 = pseudoinverse(build_laplacian(cycle_graph(4)))
    assert np.allclose(sherman_morrison_update(p4, (0, 3), 1.0), c4, atol=1e-12)


def test_sherman_morrison_rejects_bad_edges():
    with pytest.raises(ValueError, match="differ"):
        sherman_morrison_update(P3_PINV, (1, 1), 1.0)
    with pytest.raises(ValueError, match="positive"):
        sherman_morrison_update(P3_PINV, (0, 2), 0.0)
    with pytest.raises(ValueError, match="positive"):
        sherman_morrison_update(P3_PINV, (0, 2), -2.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), w=st.floats(0.1, 4.0))
def test_sherman_morrison_matches_fresh_factorization(seed, w):
    g = random_connected_graph(seed, max_n=15, weighted=True)
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    if not non_edges:
        return
    e = non_edges[seed % len(non_edges)]
    updated = sherman_morrison_update(pseudoinverse(build_laplacian(g)), e, w)
    fresh = pseudoinverse(build_laplacian(g.with_edges([(e[0], e[1], w)])))
    assert np.allclose(updated, fresh, atol=1e-9)


# ---------------------------------------------------------------------------
# Solver configuration


def test_solver_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        SolverSpec(mode="exactish")


def test_solver_tolerance_practical_mapping():
    spec = SolverSpec(mode=PRACTICAL)
    assert solver_tolerance(spec, 0.3, 1000, 5.0, power=8) == 1e-8
    assert solver_tolerance(spec, 1e-8, 2, 1.0, power=9) == 1e-9
    # independent of n, w_max and power
    assert solver_tolerance(spec, 0.3, 7, 2.0, power=9) == 1e-8


def test_solver_tolerance_literal_mapping():
    spec = SolverSpec(mode=PAPER_LITERAL)
    assert solver_tolerance(spec, 0.72, 2, 1.0, power=8) == pytest.approx(3.90625e-5, rel=1e-12)
    assert solver_tolerance(spec, 0.72, 2, 1.0, power=9) == pytest.approx(1.953125e-5, rel=1e-12)
    # w_max enters at the fourth power
    assert solver_tolerance(spec, 0.72, 2, 2.0, power=8) == pytest.approx(
        3.90625e-5 / 16.0, rel=1e-12
    )
    # the formula underflows fast in n; the floor keeps the target attainable
    assert solver_tolerance(spec, 0.3, 1000, 1.0, power=8) == 1e-14


def test_solver_deviation_notes_name_the_active_mapping():
    assert any("practical" in s for s in solver_deviation_notes(SolverSpec(mode=PRACTICAL)))
    assert any("clamped" in s for s in solver_deviation_notes(SolverSpec(mode=PAPER_LITERAL)))


# ---------------------------------------------------------------------------
# Verified solves


def _direct_solve(lap):
    return GroundedFactor(lap, 0).solve


def _wrong_factor(g, lap, w):
    """A factor of g grounded at 0, plus an edge (u, 0) of weight w that g
    does not have."""
    wrong = GroundedFactor(lap, 0)
    add_to_factor(wrong, next(u for u in range(1, g.n) if not g.has_edge(u, 0)), w)
    return wrong


def test_verified_solve_matches_pseudoinverse_column():
    g = random_connected_graph(3, n=30, weighted=True)
    lap = build_laplacian(g)
    pinv = pseudoinverse(lap)
    z = np.zeros((g.n, 1))
    z[4], z[11] = 1.0, -1.0
    y = _verified_solve(lap, z, 1e-12, _direct_solve(lap))
    assert not y[0].any()  # the grounded solution, zero at the factor's node 0
    assert np.allclose(_project_out_mean(y), pinv @ z, atol=1e-9)


def test_verified_solve_zero_rhs():
    lap = build_laplacian(path_graph(5))
    assert np.array_equal(_verified_solve(lap, np.zeros((5, 1)), 1e-8, _direct_solve(lap)), np.zeros((5, 1)))


def test_verified_solve_residual_contract():
    g = random_connected_graph(12, n=40, weighted=True)
    lap = build_laplacian(g)
    rhs = _project_out_mean(seeded_rng(6).normal(size=(g.n, 3)))
    tol = 1e-10
    y = _verified_solve(lap, rhs, tol, _direct_solve(lap))
    assert np.all(np.linalg.norm(lap @ y - rhs, axis=0) <= tol * np.linalg.norm(rhs, axis=0))


def test_convergence_error_reports_residual():
    # a factor wrong by an edge of weight 0.5 is too far off for the
    # refinement steps to reach the target
    g = random_connected_graph(5, n=40, weighted=True)
    lap = build_laplacian(g)
    rhs = _project_out_mean(seeded_rng(3).normal(size=(g.n, 6)))
    with pytest.raises(SolverConvergenceError) as exc:
        _verified_solve(lap, rhs, 1e-12, _wrong_factor(g, lap, 0.5).solve)
    err = exc.value
    assert err.steps == _REFINEMENT_STEPS
    assert err.target == 1e-12
    assert math.isfinite(err.achieved) and err.achieved > err.target
    assert "relative residual" in str(err)


def test_refine_accepts_columns_at_float64s_backward_error():
    # a residual target of 1e-20 is below what any float64 x attains, about
    # u ||L|| ||x|| / ||b||: every column still misses it after the
    # refinement steps, and passes at a normwise backward error within
    # 8 u; a factor wrong by an edge of weight 0.5 still raises there
    g = random_connected_graph(5, n=40, weighted=True)
    lap = build_laplacian(g)
    rhs = _project_out_mean(seeded_rng(3).normal(size=(g.n, 6)))
    tol = 1e-20
    x = _verified_solve(lap, rhs, tol, GroundedFactor(lap, 0).solve)
    res = rhs - lap.astype(np.longdouble) @ x.astype(np.longdouble)
    wx = x.astype(np.longdouble)

    def norms(a):
        return np.sqrt(np.einsum("ij,ij->j", a, a))

    assert np.all(norms(res) > tol * norms(rhs))
    backward = norms(res) / (2.0 * lap.diagonal().max() * norms(wx) + norms(rhs))
    assert np.all(backward <= _BACKWARD_ERROR_BOUND)
    with pytest.raises(SolverConvergenceError, match="relative residual"):
        _verified_solve(lap, rhs, tol, _wrong_factor(g, lap, 0.5).solve)


def test_preconditioner_inverts_on_zero_sum_subspace():
    g = random_connected_graph(14, n=25, weighted=True)
    lap = build_laplacian(g)
    pre = _direct_solve(lap)
    r = seeded_rng(2).normal(size=(g.n, 3))
    r -= r.mean(axis=0, keepdims=True)
    out = pre(r)
    assert not out[0].any()  # the grounded solution, zero at the factor's node 0
    assert np.allclose(lap @ out, r, atol=1e-8)


def test_preconditioner_unavailable_for_single_node():
    lap = build_laplacian(Graph.from_edges(1, []))
    with pytest.raises(ValueError, match="cannot ground"):
        GroundedFactor(lap, 0)


# ---------------------------------------------------------------------------
# Grounded factor and verified solves


@pytest.mark.parametrize("seed", range(4))
def test_grounded_factor_tracks_pseudoinverse_across_additions(seed):
    g = random_connected_graph(seed, n=30, weighted=True)
    rng = seeded_rng(seed, 7)
    v = int(rng.integers(g.n))
    others = [u for u in range(g.n) if u != v and not g.has_edge(u, v)]
    picks = rng.choice(others, size=min(5, len(others)), replace=False)
    factor = GroundedFactor(build_laplacian(g), v)
    centring = np.eye(g.n) - 1.0 / g.n  # column i: e_i projected to zero sum
    added = []
    for j in range(len(picks) + 1):
        pinv = pseudoinverse(build_laplacian(g.with_edges(added)))
        # the solve is zero at v; centred, it is the pseudoinverse's column
        solved = _project_out_mean(factor.solve(centring))
        assert np.abs(solved - pinv).max() <= 1e-10, f"after {j} additions"
        if j < len(picks):
            u, w = int(picks[j]), float(rng.uniform(0.1, 5.0))
            drop = add_to_factor(factor, u, w)
            added.append((u, v, w))
            # the returned drop is the grounded inverse's loss of trace
            after = grounded_inverse_reference(build_laplacian(g.with_edges(added)), v)
            before = grounded_inverse_reference(build_laplacian(g.with_edges(added[:-1])), v)
            assert drop == pytest.approx(np.trace(before) - np.trace(after), rel=1e-10)


def test_grounded_factor_validation():
    lap = build_laplacian(path_graph(4))
    with pytest.raises(ValueError, match="ground"):
        GroundedFactor(lap, 4)
    factor = GroundedFactor(lap, 1)
    x = np.zeros(4)
    with pytest.raises(ValueError, match="new edge"):
        factor.add(1, 1.0, x)
    with pytest.raises(ValueError, match="positive"):
        factor.add(3, 0.0, x)
    with pytest.raises(ValueError, match="shape"):
        factor.add(3, 1.0, np.zeros((4, 1)))


def _grid(rows: int, cols: int) -> Graph:
    ids = np.arange(rows * cols).reshape(rows, cols)
    pairs = np.concatenate([
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
    ])
    return Graph.from_edges(rows * cols, [(int(a), int(b), 1.0) for a, b in pairs])


_SCHEDULED_GRAPHS = {
    "ws1000": lambda: generate_ws(1000, 4, 0.1, seed=23),
    "ws2000": lambda: generate_ws(2000, 4, 0.1, seed=11),
    "ba1000": lambda: generate_ba(1000, 2, seed=1),
    # one dense triangle and no sparse level (and no new edge to add)
    "complete30": lambda: complete_graph(30),
    # about 1,000 levels of one or two rows
    "cycle2000": lambda: cycle_graph(2000),
    # a long chain of one-row levels, too sparse for a dense tail at v = 0
    # and n/2, and a tail of 29 rows at n - 1
    "grid10x100": lambda: _grid(10, 100),
    "rand50": lambda: random_connected_graph(8, n=50, weighted=True),
    # SuperLU's default pivot threshold swaps rows of this one's factors
    "rand50pivoted": lambda: random_connected_graph(3, n=50, weighted=True),
}


@pytest.mark.parametrize("adds", [0, 3])
@pytest.mark.parametrize("name", sorted(_SCHEDULED_GRAPHS))
def test_level_schedule_solves_as_superlu_does(name, adds):
    # the schedule's sums run in another order than SuperLU's, so the
    # answers agree to roundoff, not bit for bit. With edges added, the
    # reference factors the augmented matrix, another factorization than
    # the schedule's plus rank-1 corrections: the two differ by up to
    # 6.4e-13 of the largest entry on the cycle, whose grounded matrix is
    # the worst conditioned here, as much as a Woodbury update of the
    # schedule's factor with its capacitance did
    rtol = 1e-12 if adds else 1e-13
    g = _SCHEDULED_GRAPHS[name]()
    lap = build_laplacian(g)
    for v in (0, g.n // 2, g.n - 1):
        factor = GroundedFactor(lap, v)
        assert factor._levels is not None
        added = [(u, v, 0.7) for u in range(g.n) if u != v and not g.has_edge(u, v)][:adds]
        for u, _, w in added:
            add_to_factor(factor, u, w)
        augmented = build_laplacian(g.with_edges(added))
        for width in (1, 17, 256):
            r = _project_out_mean(seeded_rng(v, width).normal(size=(g.n, width)))
            ref = grounded_factor_solve_reference(augmented, v, r)
            tol = rtol * np.abs(ref).max()
            assert np.abs(factor.solve(r) - ref).max() <= tol, (v, width)
            out = np.empty_like(r)
            assert factor.solve(r, out) is out
            assert np.abs(out - ref).max() <= tol, (v, width)
        # Fortran-order blocks take the same path through copies
        r = np.asfortranarray(r)
        assert np.abs(factor.solve(r) - ref).max() <= tol


def test_level_schedule_solves_a_grounded_graph_in_pieces():
    # a leaf and a two-node path hang on v alone, so the grounded matrix
    # falls apart into three blocks and L's elimination tree into a forest
    us, vs, ws = generate_ws(1000, 4, 0.1, seed=23).edge_arrays
    v = 4
    edges = [(int(a), int(b), float(w)) for a, b, w in zip(us, vs, ws)]
    g = Graph.from_edges(1003, edges + [(1000, v, 1.5), (1001, v, 0.5), (1002, 1001, 1.0)])
    lap = build_laplacian(g)
    factor = GroundedFactor(lap, v)
    assert factor._levels is not None
    added = [(10, v, 0.7), (1002, v, 0.7)]
    for u, _, w in added:
        add_to_factor(factor, u, w)
    augmented = build_laplacian(g.with_edges(added))
    for width in (1, 256):
        r = _project_out_mean(seeded_rng(v, width).normal(size=(g.n, width)))
        ref = grounded_factor_solve_reference(augmented, v, r)
        assert np.abs(factor.solve(r) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_level_schedule_serves_every_factor_superlu_did_not_pivot():
    for g, v in (
        (generate_ws(1000, 4, 0.1, seed=23), 4),
        (generate_ws(5000, 4, 0.1, seed=11), 17),
        (cycle_graph(2000), 666),
        (path_graph(2000), 666),
        (random_connected_graph(8, n=50, weighted=True), 16),
        # SuperLU made row interchanges on this weighted graph's factor
        # under its default pivot threshold
        (random_connected_graph(3, n=50, weighted=True), 16),
    ):
        factor = GroundedFactor(build_laplacian(g), v)
        assert factor._levels is not None and not hasattr(factor, "_lu")
    # the narrow grid's last one-row levels would make a triangle with more
    # entries than L: they stay sparse levels, and no dense tail is left
    levels = GroundedFactor(build_laplacian(_grid(10, 100)), 0)._levels
    assert levels._t0 == len(levels._src) and levels._tail.size == 0


def _solved_diagonal(factor: GroundedFactor) -> np.ndarray:
    """diag(A^-1) from the schedule's full solve of the unit columns, in
    blocks, in node order with zero at v."""
    n, v = factor.n, factor.v
    diag = np.zeros(n)
    for s in range(0, n, 256):
        cols = np.arange(s, min(s + 256, n))
        unit = np.zeros((n, len(cols)))
        unit[cols, np.arange(len(cols))] = 1.0
        diag[cols] = factor._levels.solve(unit, np.empty_like(unit))[cols, np.arange(len(cols))]
    diag[v] = 0.0
    return diag


# factors with both sparse levels and a dense tail, which diagonal() reads
# in two parts: every target of the weighted 60-node graph (5 to 9 tail
# rows) and three of a 2,000-node small world (150 to 210)
_SPLIT_FAMILIES = ("rand60w", "ws2000")
_DIAGONAL_CASES = [
    (name, end)
    for name in sorted(_DENSE_FAMILIES) + ["grid10x100", "complete300", "lollipop", "path2"]
    for end in ("first", "last")
] + [("rand60w", v) for v in range(1, 59)] + [("ws2000", v) for v in (17, 1000, 1999)]


@pytest.mark.parametrize("name, end", _DIAGONAL_CASES)
def test_grounded_factor_diagonal_matches_the_dense_inverse(name, end):
    # grounded at its first node, the narrow grid keeps no dense tail; the
    # complete graph's factor is all tail, so its second block of unit
    # columns starts inside it; the lollipop's has one row per level
    g = {
        **_DENSE_FAMILIES,
        "grid10x100": lambda: _grid(10, 100),
        "complete300": lambda: complete_graph(300),
        "lollipop": lambda: lollipop_graph(30, 500),
        "path2": lambda: Graph.from_edges(2, [(0, 1, 0.3)]),
        "ws2000": lambda: generate_ws(2000, 4, 0.1, seed=11),
    }[name]()
    v = {"first": 0, "last": g.n - 1}.get(end, end)
    lap = build_laplacian(g)
    # the one grounded matrix both routes invert: v's row is e_v's, and
    # no zero is stored in it
    grounded = grounded_laplacian(lap, v)
    assert grounded.data.all() and grounded[v].indices.tolist() == [v]
    factor = GroundedFactor(lap, v)
    if name in _SPLIT_FAMILIES:
        assert 0 < factor._levels._t0 < g.n
    diag = factor.diagonal()
    # at 2,000 nodes the long-double refinement takes 5 s, and the Cholesky
    # solve alone is within 5.1e-15 of the refined truth there
    m = grounded_inverse_reference(lap, v, refined=name != "ws2000")
    ref = np.diag(m)
    assert diag.shape == (g.n,) and diag[v] == 0.0
    # the diagonal by parts reads what the schedule's own full solve gives
    assert np.abs(factor._levels.diagonal(v) - _solved_diagonal(factor)).max() <= 1e-12 * ref.max()
    # Against the refined dense inverse, both routes' roundoff shows.
    # Grounded at the far end of the lollipop's path, the sparse factor's
    # last pivot is 2e-3: its probe reads 3.7e-11, so its diagonal comes
    # from refined full solves (read by parts it is off by 3.7e-11 there,
    # and the Cholesky solve by 1.8e-12); every other case's probe is
    # below 1e-12, and its diagonal by parts agrees to 3e-13.
    assert (factor.forward_error > 1e-12) == ((name, end) == ("lollipop", "last"))
    np.testing.assert_allclose(diag, ref, rtol=1e-12, atol=0.0)
    assert diag.sum() == pytest.approx(ref.sum(), rel=1e-12)
    # the dense inverse in the same layout: zero row and column v, the
    # factor's solve against e_u - e_v, zero at v, as column u (unrefined,
    # off by 3.5e-11 of the largest entry on the lollipop's far end)
    assert not m[v].any() and not m[:, v].any()
    unit = np.eye(g.n)
    unit[v] -= 1.0
    cols = factor.solve(unit)
    assert not cols[v].any()
    solve_rtol = 1e-10 if (name, end) == ("lollipop", "last") else 1e-12
    assert np.abs(cols - m).max() <= solve_rtol * np.abs(m).max()


def test_grounded_factor_diagonal_makes_no_tail_wide_block():
    # ws5000's factor at target 17 has a 548-row tail, over two blocks of
    # unit columns: a t0 x tail block of the diagonal's sparse part, let
    # alone an n x tail one of its tail part, would not fit under the bound
    factor = GroundedFactor(build_laplacian(generate_ws(5000, 4, 0.1, seed=11)), 17)
    t0 = factor._levels._t0
    assert t0 * (factor.n - t0) > 1.5 * factor.n * _BLOCK
    tracemalloc.start()
    try:
        factor.diagonal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * factor.n * _BLOCK * 8


def test_grounded_factor_diagonal_follows_its_corrections():
    g = _DENSE_FAMILIES["rand60w"]()
    factor = GroundedFactor(build_laplacian(g), 0)
    added = [(u, 0, 0.5 + u / 10) for u in range(1, g.n) if not g.has_edge(u, 0)][:3]
    for u, _, w in added:
        add_to_factor(factor, u, w)
    ref = grounded_inverse_reference(build_laplacian(g.with_edges(added)), 0)
    assert factor.diagonal() == pytest.approx(np.diag(ref), rel=1e-12)


def test_probe_is_below_target_on_the_acceptance_and_bench_instances():
    # criterion 8's graphs at target 17 (the ws5000 one is exact-ws5000's
    # and approx-ws5000's), criterion 9's ten targets (the first is
    # approx-ws1000-literal's) and the karate network at every node read
    # their diagonal by parts and the unrefined product, as
    # before the probe; the largest probe here was 4.2e-14, at n=5000
    cases = [(generate_ws(n, 4, 0.1, seed=11), [17]) for n in (500, 2000, 5000)]
    g = generate_ws(1000, 4, 0.1, seed=23)
    cases.append((g, sorted(int(t) for t in seeded_rng(77, 41).choice(g.n, size=10, replace=False))))
    karate, _ = load_edge_list(Path(__file__).resolve().parents[1] / "data" / "karate.txt")
    cases.append((karate, range(karate.n)))
    for g, targets in cases:
        lap = build_laplacian(g)
        for v in targets:
            assert GroundedFactor(lap, v).forward_error <= 1e-12, (g.n, v)


def test_refine_refuses_a_factor_that_does_not_converge():
    # a factor whose solves are for a matrix a third off the one it refines
    # against: the probe reads the gap, and two steps, each shrinking the
    # error by about that much, cannot reach 1e-12
    g = random_connected_graph(3, n=30, weighted=True)
    factor = GroundedFactor(build_laplacian(g), 0)
    factor._grounded = factor._grounded * 1.5
    assert factor.forward_error > 0.1
    b = np.eye(g.n)[:, 1:4]
    with pytest.raises(SolverConvergenceError, match="estimated forward error"):
        factor.factored_solve(b)
    with pytest.raises(SolverConvergenceError, match="estimated forward error"):
        factor.diagonal()


def test_weighted_factors_keep_their_diagonal_pivots():
    # every grounded weighted Laplacian gets a schedule, with weights over
    # 0.5..2 and over 1e-4..1e4 alike
    for seed in range(12):
        g = random_connected_graph(seed, n=100 if seed % 2 else 500, weighted=True)
        if seed >= 6:
            us, vs, _ = g.edge_arrays
            spread = 10.0 ** seeded_rng(seed, 1).uniform(-4.0, 4.0, size=len(us))
            g = Graph.from_edges(g.n, [(int(a), int(b), float(w)) for a, b, w in zip(us, vs, spread)])
        for v in (0, g.n // 3):
            assert GroundedFactor(build_laplacian(g), v)._levels is not None, (seed, v)


def test_level_schedule_refuses_factors_that_are_not_symmetric():
    import scipy.sparse.linalg
    from types import SimpleNamespace

    g = generate_ws(1000, 4, 0.1, seed=23)
    lu = scipy.sparse.linalg.splu(
        grounded_laplacian(build_laplacian(g), 4).tocsc(),
        permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True},
    )
    assert _LevelSchedule.of(lu) is not None
    # a row interchange
    swapped = lu.perm_r.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    pivoted = SimpleNamespace(perm_r=swapped, perm_c=lu.perm_c, L=lu.L, U=lu.U)
    assert _LevelSchedule.of(pivoted) is None
    # one entry of U off D L^T by 1 %
    upper = lu.U.copy()
    cols = np.repeat(np.arange(g.n), np.diff(upper.indptr))
    upper.data[np.flatnonzero(upper.indices != cols)[0]] *= 1.01
    skewed = SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c, L=lu.L, U=upper)
    assert _LevelSchedule.of(skewed) is None


def test_factor_without_a_schedule_is_refused(monkeypatch):
    monkeypatch.setattr(_LevelSchedule, "of", classmethod(lambda cls, lu: None))
    with pytest.raises(RuntimeError, match="schedule"):
        GroundedFactor(build_laplacian(generate_ws(200, 4, 0.1, seed=2)), 5)


def test_csr_matvecs_adds_a_row_block_product_into_its_output():
    # SciPy's private CSR x dense kernel, which the level schedule and the
    # sketch call directly, without SciPy's shape checks: a SciPy release
    # that changes its arguments or its sums fails here
    import icmax.linalg as linalg_mod
    import scipy.sparse

    rng = seeded_rng(3)
    a = scipy.sparse.random(9, 6, density=0.4, format="csr", random_state=4)
    x, y0 = rng.normal(size=(6, 5)), rng.normal(size=(9, 5))
    y = np.zeros((9, 5))
    linalg_mod.csr_matvecs(9, 6, 5, a.indptr, a.indices, a.data, x, y)
    assert y.tobytes() == (a @ x).tobytes()
    # rows 2..6 alone, through a slice of the row pointers, added onto y0
    y = y0.copy()
    linalg_mod.csr_matvecs(5, 6, 5, a.indptr[2:8], a.indices, a.data, x, y[2:7])
    want = y0.copy()
    want[2:7] += a.toarray()[2:7] @ x
    assert np.array_equal(y[:2], y0[:2]) and np.array_equal(y[7:], y0[7:])
    assert np.allclose(y, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("wrong", [False, True], ids=["factor", "wrong-factor"])
@pytest.mark.parametrize("trace", [True, False], ids=["trace", "sketch"])
def test_block_solve_reuses_buffers_with_the_bits_of_fresh_blocks(monkeypatch, trace, wrong):
    refined = counting_refine(monkeypatch)
    count = 2 * 256 + 17  # two full blocks and a partial one
    # seed 0's factor SuperLU pivots under its default threshold, seed 5's not
    for seed in (0, 5):
        g = random_connected_graph(seed, n=40, weighted=True)
        lap = build_laplacian(g)
        # a factor wrong by an edge of weight 1e-5 fails every column's
        # residual check, in float64 and in long double, and is refined
        # (at 1e-9 to 1e-6 a few of the columns pass the first check)
        factor = _wrong_factor(g, lap, 1e-5) if wrong else GroundedFactor(lap, 0)
        assert factor._levels is not None
        solves = []

        def solve(r, out=None):
            solves.append(r.shape[1])
            return factor.solve(r, out)

        if trace:
            rows, us, vs = g.n, np.arange(1, g.n), np.array([0])
            to_rhs, ref_rhs = _project_out_mean, _project_out_mean
        else:  # approx_eff_res's sketch, at arbitrary pairs
            rows = g.m
            us, vs = seeded_rng(2).integers(0, g.n, size=(2, 25))
            inc_t, scale = _signed_incidence_transpose(g), 1.0 / math.sqrt(count)
            scaled = inc_t * scale

            def to_rhs(z, _):
                return scaled @ z

            def ref_rhs(z):
                return inc_t @ (z * scale)

        refined.clear()
        got = _rademacher_block_solve(
            lap, seeded_rng(7), (rows, count), to_rhs, 1e-12, solve, us, vs, trace=trace
        )
        if wrong:
            assert sum(refined) == count and len(solves) > len(refined)
        else:
            assert not refined and solves == [256, 256, 17]
        ref = rademacher_block_solve_reference(
            lap, seeded_rng(7), (rows, count), ref_rhs, 1e-12, factor, us, vs, trace=trace
        )
        assert got[0].tobytes() == ref[0].tobytes(), seed
        assert got[1] == ref[1], seed


def test_block_solve_checks_its_row_indices():
    g = path_graph(5)
    lap = build_laplacian(g)
    for us, vs in (([1, 5], [0]), ([1, 2], [-1])):
        with pytest.raises(IndexError):
            _rademacher_block_solve(
                lap, seeded_rng(1), (g.n, 3), _project_out_mean, 1e-10,
                _direct_solve(lap), np.array(us), np.array(vs),
            )


def test_verified_solve_resolves_columns_a_wrong_factor_misses(monkeypatch):
    # a factor of the graph plus an edge of weight 1e-9 that the graph does
    # not have: every column misses its residual check, and refinement on
    # that factor brings each one within its bound
    refined = counting_refine(monkeypatch)
    g = random_connected_graph(5, n=40, weighted=True)
    lap = build_laplacian(g)
    wrong = _wrong_factor(g, lap, 1e-9)
    rhs = _project_out_mean(seeded_rng(3).normal(size=(g.n, 6)))
    tol = 1e-12
    assert np.all(np.linalg.norm(rhs - lap @ wrong.solve(rhs), axis=0) > tol * np.linalg.norm(rhs, axis=0))
    x = _verified_solve(lap, rhs, tol, wrong.solve)
    assert refined == [6]
    res = np.linalg.norm(rhs - lap @ x, axis=0)
    assert np.all(res <= tol * np.linalg.norm(rhs, axis=0))


def test_verified_solve_keeps_direct_answers_that_pass(monkeypatch):
    import icmax.linalg as linalg_mod

    def no_refine(*args, **kwargs):
        raise AssertionError("re-check of a column the factor solved")

    monkeypatch.setattr(linalg_mod, "_refine", no_refine)
    g = random_connected_graph(6, n=40, weighted=True)
    lap = build_laplacian(g)
    factor = GroundedFactor(lap, 3)
    rhs = seeded_rng(4).normal(size=(g.n, 5))
    rhs -= rhs.mean(axis=0, keepdims=True)
    x = _verified_solve(lap, rhs, 1e-10, factor.solve)
    assert np.array_equal(x, factor.solve(rhs))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps,
    reason="np.longdouble is float64 here, so the re-check is no stronger than the float64 check",
)
def test_long_double_recheck_accepts_what_the_float64_residual_misses(monkeypatch):
    # on a clique with a 500-node path hanging off it, the factor's unit
    # solves less their column means (still solutions, as L 1 = 0) have a
    # float64 residual that, for many of them, misses 1e-12 by its own
    # roundoff; in long double every one of them passes, with no refinement
    # step
    refined = counting_refine(monkeypatch)
    g = lollipop_graph(30, 500)
    lap = build_laplacian(g)
    factor = GroundedFactor(lap, 0)
    rhs = np.zeros((g.n, g.n - 1))
    rhs[np.arange(1, g.n), np.arange(g.n - 1)] = 1.0
    rhs[0] = -1.0

    def centred(r, out=None):
        x = factor.solve(r, out)
        x -= np.add.reduce(x, axis=0) / g.n
        return x

    direct = centred(rhs)
    res = np.linalg.norm(lap @ direct - rhs, axis=0)
    assert np.sum(res > 1e-12 * np.linalg.norm(rhs, axis=0)) > 100
    solves = []

    def solve(r, out=None):
        solves.append(r.shape[1])
        return centred(r, out)

    x = _verified_solve(lap, rhs, 1e-12, solve)
    assert refined and solves == [g.n - 1]
    assert np.array_equal(x, direct)


def test_verified_solve_never_accepts_a_nan_column():
    g = random_connected_graph(6, n=40, weighted=True)
    lap = build_laplacian(g)
    rhs = _project_out_mean(seeded_rng(4).normal(size=(g.n, 4)))
    factor, calls = GroundedFactor(lap, 3), []

    def once_nan(r, out=None):
        # the direct answer has a NaN column; the refinement steps' do not
        x = factor.solve(r, out)
        if not calls:
            x[:, 2] = math.nan
        calls.append(r.shape[1])
        return x

    tol = 1e-12
    with pytest.raises(SolverConvergenceError) as raised:
        _verified_solve(lap, rhs, tol, once_nan)
    assert math.isnan(raised.value.achieved)
    assert calls == [4] + [1] * _REFINEMENT_STEPS  # the NaN column alone is refined

    def always_nan(r, out=None):
        return np.full_like(r, math.nan)

    with pytest.raises(SolverConvergenceError):
        _verified_solve(lap, rhs, tol, always_nan)
    # and a NaN right-hand side is never solved
    rhs[5, 1] = math.nan
    with pytest.raises(SolverConvergenceError):
        _verified_solve(lap, rhs, tol, factor.solve)


# ---------------------------------------------------------------------------
# Trace estimation


def test_hutchinson_deterministic_and_converging():
    # the trace sum approx's R_v estimate reads: (1/M) sum_j z_j^T pinv(L) z_j
    g = random_connected_graph(17, n=12)
    lap = build_laplacian(g)
    nowhere = np.zeros(0, dtype=np.int64)

    def estimate(seed):
        _, total = _rademacher_block_solve(
            lap, seeded_rng(seed), (g.n, 4000), _project_out_mean, 1e-10,
            _direct_solve(lap), nowhere, nowhere, trace=True,
        )
        return total / 4000

    a = estimate(42)
    assert a == estimate(42)
    assert a == pytest.approx(np.trace(pseudoinverse(lap)), rel=0.1)


def test_hutchinson_sample_count_values():
    assert hutchinson_sample_count(0.3, 0.1, 39) == 1776
    assert hutchinson_sample_count(0.5, 0.5, 1) == math.ceil(96.0 * math.log(4.0))
    with pytest.raises(ValueError, match="epsilon"):
        hutchinson_sample_count(0.6, 0.1, 10)
    with pytest.raises(ValueError, match="epsilon"):
        hutchinson_sample_count(0.0, 0.1, 10)
    with pytest.raises(ValueError, match="delta"):
        hutchinson_sample_count(0.3, 0.0, 10)


# ---------------------------------------------------------------------------
# Sketched effective resistances


def _in_eps_relation(est: float, truth: float, eps: float) -> bool:
    return math.exp(-eps) * truth <= est <= math.exp(eps) * truth


def test_sketch_single_edge():
    g = path_graph(2)
    est = approx_eff_res(g, [(0, 1)], 0.1, spec=SolverSpec(seed=0))
    assert _in_eps_relation(est[0], 1.0, 0.1)


def test_sketch_path_endpoints():
    g = path_graph(3)
    est = approx_eff_res(g, [(0, 2), (0, 1)], 0.2, spec=SolverSpec(seed=0))
    assert _in_eps_relation(est[0], 2.0, 0.2)
    assert _in_eps_relation(est[1], 1.0, 0.2)


def test_sketch_deterministic():
    g = random_connected_graph(33, n=20, weighted=True)
    pairs = [(0, 5), (3, 9), (1, 1)]
    a = approx_eff_res(g, pairs, 0.25, spec=SolverSpec(seed=7))
    b = approx_eff_res(g, pairs, 0.25, spec=SolverSpec(seed=7))
    assert np.array_equal(a, b)
    c = approx_eff_res(g, pairs, 0.25, spec=SolverSpec(seed=8))
    assert not np.array_equal(a, c)


def test_sketch_same_node_pair_is_zero():
    est = approx_eff_res(path_graph(3), [(1, 1)], 0.3, spec=SolverSpec(seed=0))
    assert est[0] == pytest.approx(0.0, abs=1e-18)


def test_sketch_validation():
    g = path_graph(3)
    with pytest.raises(ValueError, match="epsilon"):
        approx_eff_res(g, [(0, 1)], 0.6)
    with pytest.raises(ValueError, match="epsilon"):
        approx_eff_res(g, [(0, 1)], 0.0)
    with pytest.raises(ValueError, match="out of range"):
        approx_eff_res(g, [(0, 3)], 0.3)


def test_sketch_trivial_graph():
    g = Graph.from_edges(1, [])
    assert approx_eff_res(g, [(0, 0)], 0.3).tolist() == [0.0]


def test_sketch_accepts_the_callers_laplacian():
    g = random_connected_graph(45, n=18, weighted=True)
    pairs = [(0, 4), (2, 7), (9, 3)]
    spec = SolverSpec(seed=2)
    assert np.array_equal(
        approx_eff_res(g, pairs, 0.3, spec=spec, lap=build_laplacian(g)), approx_eff_res(g, pairs, 0.3, spec=spec)
    )


def test_sketch_accepts_shared_preconditioner():
    g = random_connected_graph(44, n=18, weighted=True)
    solve = _direct_solve(build_laplacian(g))
    pairs = [(0, 4), (2, 7)]
    spec = SolverSpec(seed=1)
    assert np.array_equal(
        approx_eff_res(g, pairs, 0.3, spec=spec, solve=solve), approx_eff_res(g, pairs, 0.3, spec=spec)
    )
