"""Resistance and information-centrality values against closed forms, plus
agreement between the three independent evaluation routes."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmax.centrality import (
    CentralityScore,
    NodeResistance,
    information_centrality,
    node_resistance_grounded,
    rank_all_by_centrality,
)
from icmax.graphs import Graph, load_edge_list
from icmax.greedy import default_candidates, exact_sm
from icmax.linalg import build_laplacian

from conftest import complete_graph, path_graph, random_connected_graph, star_graph
from oracles import (
    information_centrality_via_B,
    information_matrix_inverse,
    marginal_gain_exact,
    node_resistance,
    pseudoinverse,
    resistance_pair,
    sherman_morrison_update,
)


def _pinv(g: Graph) -> np.ndarray:
    return pseudoinverse(build_laplacian(g))


# ---------------------------------------------------------------------------
# Pairwise and per-node resistance


def test_resistance_pair_closed_forms(p2, p3, k3):
    assert resistance_pair(_pinv(p2), 0, 1) == pytest.approx(1.0, abs=1e-12)
    assert resistance_pair(_pinv(k3), 0, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)
    p = _pinv(p3)
    assert resistance_pair(p, 0, 1) == pytest.approx(1.0, abs=1e-12)
    assert resistance_pair(p, 0, 2) == pytest.approx(2.0, abs=1e-12)
    assert resistance_pair(p, 1, 1) == pytest.approx(0.0, abs=1e-12)


def test_resistance_pair_range_check(p3):
    p = _pinv(p3)
    with pytest.raises(ValueError, match="out of range"):
        resistance_pair(p, 0, 3)
    with pytest.raises(ValueError, match="out of range"):
        resistance_pair(p, -1, 0)


def test_node_resistance_closed_forms(p2, p3, k3):
    assert node_resistance(_pinv(p2), 0) == NodeResistance(0, pytest.approx(1.0))
    p = _pinv(p3)
    assert node_resistance(p, 0).value == pytest.approx(3.0, abs=1e-12)
    assert node_resistance(p, 1).value == pytest.approx(2.0, abs=1e-12)
    assert node_resistance(_pinv(k3), 2).value == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_node_resistance_grounded_matches(p3, star4):
    assert node_resistance_grounded(p3, 0).value == pytest.approx(3.0, abs=1e-12)
    assert node_resistance_grounded(p3, 1).value == pytest.approx(2.0, abs=1e-12)
    assert node_resistance_grounded(star4, 0).value == pytest.approx(3.0, abs=1e-12)
    assert node_resistance_grounded(star4, 1).value == pytest.approx(5.0, abs=1e-12)


def test_node_resistance_grounded_trivial_and_errors():
    assert node_resistance_grounded(Graph.from_edges(1, []), 0).value == 0.0
    disconnected = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="connected"):
        node_resistance_grounded(disconnected, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_node_resistance_three_routes_agree(seed):
    g = random_connected_graph(seed, max_n=25, weighted=True)
    p = _pinv(g)
    v = seed % g.n
    via_diag = node_resistance(p, v).value
    via_grounded = node_resistance_grounded(g, v).value
    via_pairs = sum(resistance_pair(p, u, v) for u in range(g.n))
    assert via_diag == pytest.approx(via_grounded, abs=1e-8)
    assert via_diag == pytest.approx(via_pairs, abs=1e-8)


# ---------------------------------------------------------------------------
# Information centrality


def test_information_centrality_closed_forms(p2, p3, k3, star4):
    assert information_centrality(p2, 0).value == pytest.approx(2.0, abs=1e-12)
    assert information_centrality(p3, 0).value == pytest.approx(1.0, abs=1e-12)
    assert information_centrality(p3, 1).value == pytest.approx(1.5, abs=1e-12)
    assert information_centrality(k3, 1).value == pytest.approx(2.25, abs=1e-12)
    assert information_centrality(star4, 0).value == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert information_centrality(star4, 2).value == pytest.approx(0.8, abs=1e-12)


def test_information_centrality_matches_networkx_on_karate():
    nx = pytest.importorskip("networkx")

    def nx_centrality(graph: Graph) -> dict[int, float]:
        """n times networkx's information centrality, which is 1 / R_v."""
        nxg = nx.Graph()
        nxg.add_nodes_from(range(graph.n))
        nxg.add_weighted_edges_from(graph.edges)
        return {u: graph.n * c for u, c in nx.information_centrality(nxg, weight="weight").items()}

    g, _ = load_edge_list(Path(__file__).resolve().parents[1] / "data" / "karate.txt")
    reference = nx_centrality(g)
    for v in range(g.n):
        assert information_centrality(g, v).value == pytest.approx(reference[v], rel=1e-12)
    for v in (0, 11, 33):
        trace = exact_sm(g, v, default_candidates(g, v), 3)
        augmented = g.with_edges([(a, b, 1.0) for a, b in trace.edges])
        assert trace.final_centrality == pytest.approx(nx_centrality(augmented)[v], rel=1e-12)


def test_information_centrality_single_node_undefined():
    with pytest.raises(ValueError, match="single node"):
        information_centrality(Graph.from_edges(1, []), 0)


def test_pairwise_throughput_examples(p2, k3):
    assert information_centrality_via_B(p2, 0, 1) == pytest.approx(1.0, abs=1e-12)
    b_inv = information_matrix_inverse(k3)
    for u in range(3):
        for v in range(u + 1, 3):
            assert information_centrality_via_B(k3, u, v, b_inv) == pytest.approx(
                1.5, abs=1e-12
            )
    assert information_centrality_via_B(k3, 1, 1) == math.inf


def test_information_matrix_requires_connected():
    disconnected = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="singular"):
        information_matrix_inverse(disconnected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_harmonic_aggregation_matches_resistance_route(seed):
    # n / sum_u 1/I_uv must equal n / R_v on every connected graph
    g = random_connected_graph(seed, max_n=20, weighted=True)
    if g.n == 1:
        return
    b_inv = information_matrix_inverse(g)
    v = seed % g.n
    recip = sum(
        1.0 / information_centrality_via_B(g, u, v, b_inv) for u in range(g.n) if u != v
    )
    assert g.n / recip == pytest.approx(
        information_centrality(g, v).value, rel=1e-8
    )


# ---------------------------------------------------------------------------
# Marginal gains


def test_marginal_gain_closed_forms(p3, p4):
    assert marginal_gain_exact(_pinv(p3), (0, 2), 1.0, 0) == pytest.approx(
        5.0 / 3.0, abs=1e-12
    )
    assert marginal_gain_exact(_pinv(p4), (0, 3), 1.0, 0) == pytest.approx(
        3.5, abs=1e-12
    )
    # same edge seen from the other endpoint
    assert marginal_gain_exact(_pinv(p4), (3, 0), 1.0, 3) == pytest.approx(
        3.5, abs=1e-12
    )


def test_marginal_gain_vanishes_with_weight(p3):
    p = _pinv(p3)
    assert marginal_gain_exact(p, (0, 2), 1e-12, 0) < 1e-11
    assert marginal_gain_exact(p, (0, 2), 2.0, 0) > marginal_gain_exact(p, (0, 2), 1.0, 0)


def test_marginal_gain_validation(p3):
    p = _pinv(p3)
    with pytest.raises(ValueError, match="incident"):
        marginal_gain_exact(p, (1, 2), 1.0, 0)
    with pytest.raises(ValueError, match="differ"):
        marginal_gain_exact(p, (0, 0), 1.0, 0)
    with pytest.raises(ValueError, match="positive"):
        marginal_gain_exact(p, (0, 2), -1.0, 0)
    with pytest.raises(ValueError, match="positive"):
        marginal_gain_exact(p, (0, 2), math.inf, 0)
    with pytest.raises(ValueError, match="out of range"):
        marginal_gain_exact(p, (0, 5), 1.0, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), w=st.floats(0.1, 3.0))
def test_marginal_gain_equals_before_minus_after(seed, w):
    g = random_connected_graph(seed, max_n=18, weighted=True)
    v = seed % g.n
    others = [u for u in range(g.n) if u != v and not g.has_edge(u, v)]
    if not others:
        return
    u = others[seed % len(others)]
    p = _pinv(g)
    before = node_resistance(p, v).value
    after = node_resistance(sherman_morrison_update(p, (u, v), w), v).value
    assert marginal_gain_exact(p, (u, v), w, v) == pytest.approx(
        before - after, abs=1e-9
    )
    assert before - after > 0.0  # adding an edge strictly helps the target


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_marginal_gain_diminishes_after_other_insertions(seed):
    # the gain of a fixed edge never grows once another edge lands first
    g = random_connected_graph(seed, max_n=14)
    v = seed % g.n
    others = [u for u in range(g.n) if u != v and not g.has_edge(u, v)]
    if len(others) < 2:
        return
    e1, e2 = (others[0], v), (others[1], v)
    p = _pinv(g)
    gain_alone = marginal_gain_exact(p, e1, 1.0, v)
    gain_after = marginal_gain_exact(sherman_morrison_update(p, e2, 1.0), e1, 1.0, v)
    assert gain_after <= gain_alone + 1e-9


# ---------------------------------------------------------------------------
# Ranking


def test_rank_all_orders_and_ties(p3, k3, star4):
    assert [s.node for s in rank_all_by_centrality(p3)] == [1, 0, 2]
    ranked = rank_all_by_centrality(k3)
    assert [s.node for s in ranked] == [0, 1, 2]
    assert all(s.value == pytest.approx(2.25, abs=1e-12) for s in ranked)
    star_ranked = rank_all_by_centrality(star4)
    assert star_ranked[0] == CentralityScore(0, pytest.approx(4.0 / 3.0))
    assert [s.node for s in star_ranked[1:]] == [1, 2, 3]
    assert all(s.value == pytest.approx(0.8) for s in star_ranked[1:])


def test_rank_all_karate_ties_go_to_the_smallest_id():
    # karate has interchangeable nodes (4 and 10; 15, 18, 20 and 22) whose
    # centralities tie exactly; roundoff must not order them
    g, _ = load_edge_list(Path(__file__).resolve().parents[1] / "data" / "karate.txt")
    p = _pinv(g)
    truth = {v: g.n / node_resistance(p, v).value for v in range(g.n)}
    ranked = [s.node for s in rank_all_by_centrality(g)]
    for a, b in zip(ranked, ranked[1:]):
        if truth[a] == pytest.approx(truth[b], rel=1e-12):
            assert a < b, f"tied nodes {a} and {b} out of id order"
    assert ranked.index(15) + 3 == ranked.index(22)


def test_rank_all_single_node():
    with pytest.raises(ValueError, match="single node"):
        rank_all_by_centrality(Graph.from_edges(1, []))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rank_all_matches_per_node_evaluation(seed):
    g = random_connected_graph(seed, max_n=15, weighted=True)
    if g.n == 1:
        return
    ranked = rank_all_by_centrality(g)
    assert sorted(s.node for s in ranked) == list(range(g.n))
    values = [s.value for s in ranked]
    assert values == sorted(values, reverse=True)
    # against the pseudoinverse: information_centrality reads a sparse
    # factor's diagonal, as the ranking does
    p = _pinv(g)
    for s in ranked:
        assert s.value == pytest.approx(g.n / node_resistance(p, s.node).value, rel=1e-9)
