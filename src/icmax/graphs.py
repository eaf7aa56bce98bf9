"""Simple weighted graphs: validation, edge-list I/O, connectivity, generators.

Everything downstream assumes the invariants enforced here: contiguous node
ids 0..n-1, no self-loops, no duplicate edges, strictly positive weights.
A graph holds its edges once, as three read-only arrays in canonical order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from .rand import seeded_rng

Edge = tuple[int, int, float]

_WS_MAX_RETRIES = 64


class ParseError(ValueError):
    """Unreadable or malformed edge-list input."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with strictly positive edge weights.

    Nodes are 0..n-1. The edges are edge_arrays = (us, vs, ws): int64,
    int64 and float64 arrays with us < vs, sorted by (u, v), no pair twice.
    The arrays are made read-only, so instances are immutable and safe to
    share; augmentation goes through :meth:`with_edges`.
    """

    n: int
    edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        for a in self.edge_arrays:
            a.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence]) -> "Graph":
        """Build a validated graph, canonicalizing edge orientation and order."""
        if n < 1:
            raise ValueError("graph needs at least one node")
        return cls(n, _checked_edges(n, edges, np.zeros(0, dtype=np.int64))[1:])

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (u, v, w) tuples of int, int and float, in array order."""
        return tuple(zip(*(a.tolist() for a in self.edge_arrays)))

    @property
    def m(self) -> int:
        return self.edge_arrays[2].size

    @property
    def w_max(self) -> float:
        return float(self.edge_arrays[2].max(initial=0.0))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        us, vs, _ = self.edge_arrays
        # edges (u, v) hold v's smaller neighbors, edges (v, w) its larger ones
        return tuple(us[vs == v].tolist() + vs[us == v].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def weight(self, u: int, v: int) -> float:
        us, vs, ws = self.edge_arrays
        at = np.flatnonzero((us == min(u, v)) & (vs == max(u, v)))
        if not at.size:
            raise KeyError((u, v))
        return float(ws[at[0]])

    def __reduce__(self):
        return Graph, (self.n, self.edge_arrays)  # so copies and unpickled graphs are read-only too

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def with_edges(self, extra: Iterable[Sequence]) -> "Graph":
        """New graph with the extra (u, v, w) edges added; rejects duplicates.

        Equals Graph.from_edges(n, list(self.edges) + list(extra)), errors
        included, but checks only the extra edges and inserts them into the
        sorted arrays at their searchsorted positions.
        """
        us, vs, _ = self.edge_arrays
        at, *added = _checked_edges(self.n, extra, us * self.n + vs)
        return Graph(self.n, tuple(np.insert(a, at, b) for a, b in zip(self.edge_arrays, added)))


def _checked_edges(n: int, edges: Iterable[Sequence], existing: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (u, v, w) edges of an n-node graph, checked against each other and
    against existing, the sorted keys u * n + v of the pairs already there:
    their insertion points into existing, us < vs and ws, sorted by (u, v).
    Every check runs on the whole arrays; the first faulty edge raises the
    message of the first check it fails, in the order below."""
    columns = tuple(zip(*edges)) or ((), (), ())  # NumPy reads a flat tuple fast
    us, vs = (np.array(column, dtype=np.int64) for column in columns[:2])
    ws = np.array(columns[2], dtype=np.float64)
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    in_range = (lo >= 0) & (hi < n)
    keys = np.where(in_range, lo * n + hi, -1)  # one key per in-range pair
    order = np.argsort(keys, kind="stable")  # a repeated pair's first entry sorts first
    at = existing.searchsorted(keys)
    repeated = np.append(existing, n * n)[at] == keys  # n * n is no pair's key
    repeated[order[1:][np.diff(keys[order]) == 0]] = True
    _raise_first_fault(
        (
            (us == vs, "self-loop at node {u}"),
            (~in_range, "edge ({u}, {v}) out of range for n={n}"),
            (~(ws > 0.0) | ~np.isfinite(ws), "edge ({u}, {v}) has non-positive weight {w}"),
            (repeated, "duplicate edge {pair}"),
        ),
        lambda i: dict(u=int(us[i]), v=int(vs[i]), w=float(ws[i]), n=n, pair=(int(lo[i]), int(hi[i]))),
    )
    return at[order], lo[order], hi[order], ws[order]


def _raise_first_fault(checks: Sequence[tuple[np.ndarray, str]], fields: Callable[[int], dict]) -> None:
    """Raise ValueError for the first entry any check's mask flags, with the
    message of the first check that flags it, formatted with fields(entry)."""
    failed = np.array([mask for mask, _ in checks], dtype=bool)
    faulty = np.flatnonzero(failed.any(axis=0))
    if faulty.size:
        i = int(faulty[0])
        raise ValueError(checks[int(np.argmax(failed[:, i]))][1].format(**fields(i)))


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
    new_id = np.cumsum(labels == keep) - 1  # increasing, so the edge order holds
    us, vs, ws = g.edge_arrays
    kept = labels[us] == keep
    return Graph(len(orig_ids), (new_id[us[kept]], new_id[vs[kept]], ws[kept])), orig_ids


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
