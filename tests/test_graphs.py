"""Graph construction, parsing, components, and generators."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icmax import (
    Graph,
    ParseError,
    component_labels,
    generate_ba,
    generate_ws,
    is_connected,
    largest_connected_component,
    load_edge_list,
    write_edge_list,
)
from icmax.linalg import build_laplacian
from icmax.rand import seeded_rng
from conftest import path_graph, random_connected_graph
from oracles import graph_edges_reference


class TestGraphConstruction:
    def test_edges_are_canonical_and_sorted(self):
        g = Graph.from_edges(4, [(3, 1, 2.0), (2, 0, 1.0), (0, 1, 1.5)])
        assert g.edges == ((0, 1, 1.5), (0, 2, 1.0), (1, 3, 2.0))
        assert all(u < v for u, v, _ in g.edges)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1, 1.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2, 1.0)])

    @pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_weight(self, w):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1, w)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError):
            Graph.from_edges(0, [])

    def test_accessors(self, p3):
        assert p3.n == 3 and p3.m == 2
        assert p3.degree(1) == 2 and p3.degree(0) == 1
        assert p3.neighbors(1) == (0, 2)
        assert p3.has_edge(0, 1) and p3.has_edge(1, 0)
        assert not p3.has_edge(0, 2)
        assert p3.weight(0, 1) == 1.0
        with pytest.raises(KeyError):
            p3.weight(0, 2)
        assert p3.w_max == 1.0

    def test_edge_arrays(self, p3):
        us, vs, ws = p3.edge_arrays
        assert us.tolist() == [0, 1] and vs.tolist() == [1, 2]
        assert ws.tolist() == [1.0, 1.0]

    def test_edge_arrays_are_read_only(self, p3):
        wider, _ = largest_connected_component(Graph.from_edges(5, [(0, 1, 1.0), (3, 4, 1.0), (2, 3, 1.0)]))
        for g in (p3, p3.with_edges([(0, 2, 3.0)]), wider, copy.deepcopy(p3), pickle.loads(pickle.dumps(p3))):
            for array in g.edge_arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 99
        assert p3.edges == ((0, 1, 1.0), (1, 2, 1.0))
        assert build_laplacian(p3).toarray()[0].tolist() == [1.0, -1.0, 0.0]

    def test_with_edges(self, p3):
        g2 = p3.with_edges([(0, 2, 3.0)])
        assert g2.has_edge(0, 2) and g2.weight(0, 2) == 3.0
        assert p3.m == 2  # original untouched
        with pytest.raises(ValueError):
            p3.with_edges([(0, 1, 1.0)])


def test_with_edges_equals_the_from_edges_rebuild():
    for seed in range(300):
        g = random_connected_graph(seed, weighted=True)
        rng = seeded_rng(seed, 97)
        free = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        count = int(rng.integers(0, min(6, len(free)) + 1))
        extra = []
        for i in rng.permutation(len(free))[:count]:
            u, v = free[int(i)]
            extra.append((v, u, float(rng.uniform(0.5, 2.0))) if rng.random() < 0.5 else (u, v, 1.0))
        assert g.with_edges(extra) == Graph.from_edges(g.n, list(g.edges) + extra)


@pytest.mark.parametrize(
    "extra",
    [
        [(1, 1, 1.0)],
        [(0, 3, 1.0)],
        [(-1, 2, 1.0)],
        [(0, 2, 0.0)],
        [(0, 2, float("nan"))],
        [(1, 0, 2.0)],
        [(2, 1, 1.0)],
        [(0, 2, 1.0), (2, 0, 2.0)],
        [(0, 2, 1.0), (1, 1, 1.0)],
        [(1, 0, 2.0), (0, 2, -1.0)],
        [(2, 2, 0.0)],
        [(0, 5, float("nan"))],
        [(np.int64(2), np.int32(0), 1.0), (np.int64(1), np.uint8(2), 1.0)],
    ],
    ids=["self-loop", "out-of-range", "negative-id", "zero-weight", "nan-weight",
         "existing-edge", "existing-last-edge", "repeated-extra", "second-extra-bad",
         "bad-weight-after-duplicate", "self-loop-bad-weight", "out-of-range-bad-weight",
         "numpy-ids"],
)
def test_with_edges_errors_match_the_from_edges_rebuild(p3, extra):
    messages = []
    for build in (
        lambda: graph_edges_reference(p3.n, list(p3.edges) + extra),
        lambda: Graph.from_edges(p3.n, list(p3.edges) + extra),
        lambda: p3.with_edges(extra),
        lambda: p3.with_edges(edge for edge in extra),  # a generator
    ):
        with pytest.raises(ValueError) as error:
            build()
        messages.append(str(error.value))
    assert len(set(messages)) == 1, messages


@st.composite
def _edge_lists_with_faults(draw):
    """(n, base, extra): distinct pairs in random orientation and order with
    valid weights, split into base and extra, and up to three faulty edges
    put into extra at random places."""
    n = draw(st.integers(1, 7))
    pairs = draw(st.permutations([(u, v) for u in range(n) for v in range(u + 1, n)]))
    weight = st.floats(0.125, 8.0)
    bad_weight = st.sampled_from([0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    node = st.integers(0, n - 1)
    edges = []
    for u, v in pairs[: draw(st.integers(0, len(pairs)))]:
        edges.append((v, u, draw(weight)) if draw(st.booleans()) else (u, v, draw(weight)))
    split = draw(st.integers(0, len(edges)))
    base, extra = edges[:split], edges[split:]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["self-loop", "out-of-range", "negative-id", "weight", "repeated"]))
        u, w = draw(node), draw(weight | bad_weight)
        if kind == "self-loop":
            a, b = u, u
        elif kind == "out-of-range":
            a, b = u, n + draw(st.integers(0, 2))
        elif kind == "negative-id":
            a, b = u, -1 - draw(st.integers(0, 2))
        elif kind == "weight":
            a, b, w = u, draw(node), draw(bad_weight)
        elif edges:  # a pair of base (already in the graph) or of extra
            a, b, _ = draw(st.sampled_from(edges))
        else:
            continue
        fault = (b, a, w) if draw(st.booleans()) else (a, b, w)
        extra.insert(draw(st.integers(0, len(extra))), fault)
    return n, base, extra


@settings(max_examples=300, deadline=None)
@given(case=_edge_lists_with_faults())
def test_construction_matches_the_per_edge_reference(case):
    n, base, extra = case

    def outcome(build) -> str:
        try:
            return repr(build())  # repr tells int and float from NumPy scalars
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    expected = outcome(lambda: graph_edges_reference(n, base + extra))
    assert outcome(lambda: Graph.from_edges(n, base + extra).edges) == expected
    assert outcome(lambda: Graph.from_edges(n, base).with_edges(extra).edges) == expected


class TestComponents:
    def test_connected(self, p4):
        assert is_connected(p4)
        assert component_labels(p4).tolist() == [0, 0, 0, 0]

    def test_disconnected_labels(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        labels = component_labels(g)
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert not is_connected(g)

    def test_labels_follow_node_ids(self):
        g = Graph.from_edges(5, [(0, 3, 1.0), (1, 2, 1.0)])
        assert component_labels(g).tolist() == [0, 1, 1, 0, 2]
        assert component_labels(Graph.from_edges(1, [])).tolist() == [0]

    def test_lcc_returns_a_connected_input_unchanged(self, p4):
        sub, ids = largest_connected_component(p4)
        assert sub is p4
        assert ids.tolist() == [0, 1, 2, 3]

    def test_lcc_picks_largest(self):
        g = Graph.from_edges(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 2.0)])
        sub, ids = largest_connected_component(g)
        assert sub.n == 3
        assert ids.tolist() == [2, 3, 4]
        assert sub.edges == ((0, 1, 1.0), (1, 2, 2.0))

    def test_lcc_tie_breaks_to_smallest_ids(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        sub, ids = largest_connected_component(g)
        assert ids.tolist() == [0, 1]

    def test_lcc_isolated_nodes_dropped(self):
        g = Graph.from_edges(4, [(1, 2, 1.0)])
        sub, ids = largest_connected_component(g)
        assert sub.n == 2 and ids.tolist() == [1, 2]


class TestEdgeListIO:
    def test_load_basic(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# header\n% other comment\n0 1 2.0\n1 2 1.0\n")
        g, ids = load_edge_list(f)
        assert g.n == 3 and g.m == 2
        assert ids.tolist() == [0, 1, 2]
        assert g.weight(0, 1) == 2.0

    def test_missing_weight_defaults_to_unit(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n")
        g, _ = load_edge_list(f)
        assert g.weight(0, 1) == 1.0

    def test_ids_remapped_ascending(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("10 5 1.0\n5 7 1.0\n")
        g, ids = load_edge_list(f)
        assert g.n == 3
        assert ids.tolist() == [5, 7, 10]
        assert g.has_edge(0, 2)  # 5 -- 10

    def test_duplicate_keeps_first_and_warns(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1 2.0\n1 0 9.0\n1 2 1.0\n")
        with pytest.warns(UserWarning, match="duplicate"):
            g, _ = load_edge_list(f)
        assert g.weight(0, 1) == 2.0

    def test_unweighted_mode_ignores_third_column(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1 7.5\n1 2 3.0\n")
        with pytest.warns(UserWarning, match="ignor"):
            g, _ = load_edge_list(f, weighted=False)
        assert g.weight(0, 1) == 1.0

    @pytest.mark.parametrize(
        "content,match",
        [
            ("0\n", r"bad\.txt:1"),
            ("0 1 2.0 extra junk\n", r"bad\.txt:1"),
            ("a b\n", r"bad\.txt:1"),
            ("0 0 1.0\n", "self-loop"),
            ("0 1 -2.0\n", "weight"),
            ("0 1 nope\n", r"bad\.txt:1"),
            ("# only comments\n", "no edges"),
        ],
    )
    def test_malformed_inputs(self, tmp_path, content, match):
        f = tmp_path / "bad.txt"
        f.write_text(content)
        with pytest.raises(ParseError, match=match):
            load_edge_list(f)

    def test_round_trip(self, tmp_path):
        g = random_connected_graph(3, n=17, weighted=True)
        path = write_edge_list(g, tmp_path / "rt.txt", comments=["round trip"])
        g2, ids = load_edge_list(path)
        assert ids.tolist() == list(range(g.n))
        assert g2.edges == g.edges

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed, tmp_path_factory):
        g = random_connected_graph(seed, max_n=25, weighted=True)
        path = tmp_path_factory.mktemp("rt") / "g.txt"
        g2, _ = load_edge_list(write_edge_list(g, path))
        assert g2.edges == g.edges


class TestGenerators:
    def test_ws_edge_count_and_connectivity(self):
        g = generate_ws(50, 4, 0.1, seed=7)
        assert g.n == 50 and g.m == 100
        assert is_connected(g)

    def test_ws_deterministic(self):
        assert generate_ws(40, 4, 0.2, seed=3).edges == generate_ws(40, 4, 0.2, seed=3).edges
        assert generate_ws(40, 4, 0.2, seed=3).edges != generate_ws(40, 4, 0.2, seed=4).edges

    def test_ws_zero_rewire_is_ring_lattice(self):
        g = generate_ws(10, 2, 0.0, seed=1)
        assert g.m == 10
        assert all(g.has_edge(i, (i + 1) % 10) for i in range(10))

    @pytest.mark.parametrize("args", [(5, 3, 0.1), (5, 0, 0.1), (4, 4, 0.1), (10, 2, 1.5)])
    def test_ws_validation(self, args):
        with pytest.raises(ValueError):
            generate_ws(*args, seed=0)

    def test_ba_shape(self):
        g = generate_ba(50, 2, seed=7)
        assert g.n == 50
        assert is_connected(g)
        # seed clique on 3 nodes plus 2 edges per arrival
        assert g.m == 3 + 2 * 47

    def test_ba_deterministic(self):
        assert generate_ba(30, 2, seed=5).edges == generate_ba(30, 2, seed=5).edges

    def test_ba_validation(self):
        with pytest.raises(ValueError):
            generate_ba(3, 0, seed=0)
        with pytest.raises(ValueError):
            generate_ba(2, 2, seed=0)


def test_karate_club_file():
    from pathlib import Path

    g, ids = load_edge_list(Path(__file__).resolve().parents[1] / "data" / "karate.txt")
    assert g.n == 34 and g.m == 78
    assert is_connected(g)


def _bfs_reach(g: Graph, start: int) -> int:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), drop=st.integers(0, 3))
def test_lcc_matches_bfs_oracle(seed, drop):
    g = random_connected_graph(seed, max_n=30)
    # knock the graph apart by deleting nodes' edges: rebuild on a subset
    kept = [(u, v, w) for u, v, w in g.edges if u % (drop + 2) != 0 or v % (drop + 2) != 0]
    if not kept:
        return
    g2 = Graph.from_edges(g.n, kept)
    sub, _ = largest_connected_component(g2)
    assert sub.n == max(_bfs_reach(g2, s) for s in range(g2.n))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_graphs_are_connected(seed):
    g = random_connected_graph(seed, weighted=True)
    assert is_connected(g)
    assert all(u < v and w > 0 for u, v, w in g.edges)


def test_path_graph_helper():
    g = path_graph(5)
    assert g.m == 4 and is_connected(g)
