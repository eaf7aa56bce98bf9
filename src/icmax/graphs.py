"""Simple weighted graphs: validation, edge-list I/O, connectivity, generators.

Everything downstream assumes the invariants enforced here: contiguous node
ids 0..n-1, no self-loops, no duplicate edges, strictly positive weights.
"""

from __future__ import annotations

import bisect
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from .rand import seeded_rng

Edge = tuple[int, int, float]

_WS_MAX_RETRIES = 64


class ParseError(ValueError):
    """Unreadable or malformed edge-list input."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with strictly positive edge weights.

    Nodes are 0..n-1. Edges are stored canonically: u < v, lexicographically
    sorted, no duplicates. Instances are immutable and safe to share;
    augmentation goes through :meth:`with_edges`.
    """

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence]) -> "Graph":
        """Build a validated graph, canonicalizing edge orientation and order."""
        if n < 1:
            raise ValueError("graph needs at least one node")
        canonical: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for item in edges:
            edge = _canonical_edge(n, item)
            key = edge[:2]
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canonical.append(edge)
        canonical.sort()
        return cls(n=n, edges=tuple(canonical))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[dict[int, float], ...]:
        """Per-node mapping neighbor -> weight."""
        adj: list[dict[int, float]] = [dict() for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return tuple(adj)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel (us, vs, ws) arrays over the canonical edge order."""
        if not self.edges:
            return (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.float64))
        arr = np.asarray(self.edges, dtype=np.float64)
        return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2].copy()

    @cached_property
    def w_max(self) -> float:
        return max((w for _, _, w in self.edges), default=0.0)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.adjacency[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def weight(self, u: int, v: int) -> float:
        return self.adjacency[u][v]

    def with_edges(self, extra: Iterable[Sequence]) -> "Graph":
        """New graph with the extra (u, v, w) edges added; rejects duplicates.

        Equals Graph.from_edges(n, list(self.edges) + list(extra)), errors
        included, but validates only the extra edges and merges them into
        the sorted edge tuple by bisection.
        """
        added: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for item in extra:
            edge = _canonical_edge(self.n, item)
            key = edge[:2]
            at = bisect.bisect_left(self.edges, key)  # (u, v) sorts just before (u, v, w)
            if key in seen or (at < len(self.edges) and self.edges[at][:2] == key):
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            added.append(edge)
        added.sort()
        pieces = []
        start = 0
        for edge in added:
            at = bisect.bisect_left(self.edges, edge, start)
            pieces += [self.edges[start:at], (edge,)]
            start = at
        pieces.append(self.edges[start:])
        return Graph(n=self.n, edges=tuple(itertools.chain.from_iterable(pieces)))


def _canonical_edge(n: int, item: Sequence) -> Edge:
    """One validated edge of an n-node graph as (u, v, w) with u < v."""
    u, v, w = int(item[0]), int(item[1]), float(item[2])
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    if not np.isfinite(w) or w <= 0.0:
        raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
    return (u, v, w) if u < v else (v, u, w)


def component_labels(g: Graph) -> np.ndarray:
    """Component label per node; labels are assigned in node-id order."""
    us, vs, _ = g.edge_arrays
    adjacency = sparse.coo_matrix((np.ones(us.size), (us, vs)), shape=(g.n, g.n))
    return connected_components(adjacency, directed=False)[1].astype(np.int64)


def is_connected(g: Graph) -> bool:
    return g.n == 1 or int(component_labels(g).max()) == 0


def largest_connected_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest component, ids remapped to 0..n'-1.

    Returns (subgraph, orig_ids) where orig_ids[new_id] is the node's id in
    the input graph; ties between equal-sized components go to the one
    containing the smallest node id. A connected input round-trips with an
    identity map.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    labels = component_labels(g)
    if labels.max() == 0:
        return g, np.arange(g.n, dtype=np.int64)
    sizes = np.bincount(labels)
    keep = int(np.argmax(sizes))  # first maximum: component with smallest ids
    orig_ids = np.flatnonzero(labels == keep).astype(np.int64)
    new_id = {int(old): i for i, old in enumerate(orig_ids)}
    edges = [(new_id[u], new_id[v], w) for u, v, w in g.edges if labels[u] == keep]
    return Graph.from_edges(len(orig_ids), edges), orig_ids


def load_edge_list(path, weighted: bool = True) -> tuple[Graph, np.ndarray]:
    """Parse a whitespace-separated edge list into a Graph.

    Lines are "u v" or "u v w"; '#' or '%' start comment lines. Node ids are
    remapped to 0..n-1 in ascending order of the original ids; the returned
    array maps new id -> original id. Duplicate edges keep the first weight
    (with a warning); missing weights default to 1.0. With weighted=False a
    third column is ignored with a warning instead of being read.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read edge list {path}: {exc}") from exc

    raw: list[tuple[int, int, float]] = []
    ignored_column = False
    duplicates = 0
    first_dup_line = None
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#%":
            continue
        tokens = stripped.split()
        if len(tokens) < 2:
            raise ParseError(f"{path}:{lineno}: expected 'u v' or 'u v w', got {stripped!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer node id in {stripped!r}") from exc
        if u == v:
            raise ParseError(f"{path}:{lineno}: self-loop at node {u} rejected")
        w = 1.0
        if len(tokens) >= 3:
            if weighted:
                if len(tokens) > 3:
                    raise ParseError(
                        f"{path}:{lineno}: expected 'u v' or 'u v w', got {stripped!r}"
                    )
                try:
                    w = float(tokens[2])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad weight {tokens[2]!r}") from exc
                if not np.isfinite(w) or w <= 0.0:
                    raise ParseError(f"{path}:{lineno}: non-positive weight {w}")
            else:
                ignored_column = True  # KONECT-style weight/timestamp columns
        key = (u, v) if u < v else (v, u)
        if key in seen:
            duplicates += 1
            if first_dup_line is None:
                first_dup_line = lineno
            continue
        seen.add(key)
        raw.append((key[0], key[1], w))

    if not raw:
        raise ParseError(f"{path}: no edges found")
    if duplicates:
        warnings.warn(
            f"{path}: {duplicates} duplicate edge line(s), first at line "
            f"{first_dup_line}; kept the first weight seen",
            stacklevel=2,
        )
    if ignored_column:
        warnings.warn(f"{path}: extra columns ignored (weighted=False)", stacklevel=2)

    orig_ids = np.array(sorted({u for u, _, _ in raw} | {v for _, v, _ in raw}), dtype=np.int64)
    new_id = {int(old): i for i, old in enumerate(orig_ids)}
    edges = [(new_id[u], new_id[v], w) for u, v, w in raw]
    return Graph.from_edges(len(orig_ids), edges), orig_ids


def write_edge_list(g: Graph, path, comments: Sequence[str] = ()) -> Path:
    """Write the canonical edge list; weights use repr so reloads are exact."""
    path = Path(path)
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{u} {v} {w!r}" for u, v, w in g.edges)
    path.write_text("\n".join(lines) + "\n")
    return path


def generate_ba(n: int, attach: int, seed: int) -> Graph:
    """Preferential-attachment graph, connected by construction.

    Starts from a clique on attach+1 nodes; every later node attaches to
    `attach` distinct existing nodes drawn with probability proportional to
    current degree (duplicate draws are rejected and redrawn).
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n < attach + 1:
        raise ValueError("need n >= attach + 1")
    rng = seeded_rng(seed, 1)
    edges: list[tuple[int, int, float]] = []
    deg = np.zeros(n, dtype=np.float64)
    core = attach + 1
    for u in range(core):
        for v in range(u + 1, core):
            edges.append((u, v, 1.0))
            deg[u] += 1
            deg[v] += 1
    for new in range(core, n):
        chosen: set[int] = set()
        while len(chosen) < attach:
            probs = deg[:new] / deg[:new].sum()
            t = int(rng.choice(new, p=probs))
            if t not in chosen:
                chosen.add(t)
        for t in sorted(chosen):
            edges.append((t, new, 1.0))
            deg[t] += 1
            deg[new] += 1
    return Graph.from_edges(n, edges)


def generate_ws(n: int, k_ring: int, p_rewire: float, seed: int) -> Graph:
    """Ring lattice with random rewiring; exactly n*k_ring/2 edges.

    Each node starts connected to k_ring/2 neighbors on each side; every
    lattice edge is rewired with probability p_rewire to a uniformly chosen
    non-neighbor (kept in place when no valid target exists, so the edge
    count never changes). Disconnected results are retried with an
    incremented seed a bounded number of times.
    """
    if k_ring % 2 != 0:
        raise ValueError("k_ring must be even")
    if not (2 <= k_ring < n):
        raise ValueError("need 2 <= k_ring < n")
    if not (0.0 <= p_rewire <= 1.0):
        raise ValueError("p_rewire must be in [0, 1]")

    half = k_ring // 2
    for attempt in range(_WS_MAX_RETRIES):
        rng = seeded_rng(seed + attempt, 2)
        adj: list[set[int]] = [set() for _ in range(n)]
        for offset in range(1, half + 1):
            for u in range(n):
                v = (u + offset) % n
                adj[u].add(v)
                adj[v].add(u)
        for offset in range(1, half + 1):
            for u in range(n):
                v = (u + offset) % n
                if rng.random() >= p_rewire:
                    continue
                if v not in adj[u] or len(adj[u]) >= n - 1:
                    continue
                target = None
                for _ in range(n):
                    t = int(rng.integers(n))
                    if t != u and t not in adj[u]:
                        target = t
                        break
                if target is None:
                    continue
                adj[u].discard(v)
                adj[v].discard(u)
                adj[u].add(target)
                adj[target].add(u)
        edges = [(u, v, 1.0) for u in range(n) for v in adj[u] if u < v]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g
    raise ValueError(
        f"generate_ws({n}, {k_ring}, {p_rewire}) failed to produce a connected "
        f"graph after {_WS_MAX_RETRIES} seeds"
    )
