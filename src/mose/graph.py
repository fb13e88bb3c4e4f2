"""Immutable undirected graphs in CSR form and basic structural operations.

Node ids are 0-based everywhere. Undirected edges are stored in both
directions with sorted neighbor lists, so neighbor scans are O(deg) and
iteration order is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: CSR adjacency + dense node features.

    ``offsets`` has length ``node_count + 1``; ``neighbors`` holds both
    directions of every edge, sorted within each node's slice. ``features``
    is an (n, f) float matrix (f may be 0). ``graph_label`` / ``node_labels``
    are optional class ids.
    """

    node_count: int
    offsets: np.ndarray
    neighbors: np.ndarray
    features: np.ndarray
    graph_label: int | None = None
    node_labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "offsets", _frozen(np.asarray(self.offsets, dtype=np.int64)))
        object.__setattr__(self, "neighbors", _frozen(np.asarray(self.neighbors, dtype=np.int64)))
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        object.__setattr__(self, "features", _frozen(feats))
        if self.node_labels is not None:
            object.__setattr__(self, "node_labels",
                               _frozen(np.asarray(self.node_labels, dtype=np.int64)))
        self._validate()

    def _validate(self):
        n = self.node_count
        if n < 0:
            raise ValueError("node_count must be non-negative")
        if self.offsets.shape != (n + 1,):
            raise ValueError("offsets must have length node_count + 1")
        if self.offsets[0] != 0 or np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be monotone starting at 0")
        if self.offsets[-1] != len(self.neighbors):
            raise ValueError("offsets[-1] must equal the neighbor-list length")
        if self.features.shape[0] != n:
            raise ValueError("feature row count must equal node_count")
        if self.node_labels is not None and self.node_labels.shape != (n,):
            raise ValueError("node_labels must have length node_count")
        if len(self.neighbors):
            if self.neighbors.min() < 0 or self.neighbors.max() >= n:
                raise ValueError("neighbor id out of range")
        src = np.repeat(np.arange(n), np.diff(self.offsets))
        nbrs = self.neighbors
        # the lowest node with a defect is reported, a self-loop before its order
        loops = src[nbrs == src]
        unsorted = src[1:][(src[1:] == src[:-1]) & (np.diff(nbrs) <= 0)]
        if len(loops) or len(unsorted):
            v = int(min(loops.min(initial=n), unsorted.min(initial=n)))
            if v in loops:
                raise ValueError(f"self-loop at node {v}")
            raise ValueError(f"neighbor list of node {v} not strictly sorted")
        # symmetry: with rows strictly sorted the (u, v) keys are sorted and
        # distinct, so the (v, u) keys must sort to the same array
        if not np.array_equal(np.sort(nbrs * n + src), src * n + nbrs):
            raise ValueError("adjacency is not symmetric")

    # -- accessors -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.neighbors) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def feature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, row_of): the lowest node holding each distinct feature row, in
        ascending order, and each node's index into ``first``.

        Rows compare by their bytes, so rows that differ only in the sign of a
        zero fall in two classes; a split class costs size, never exactness.
        Rows whose bytes hash to a value of their own are distinct, and only
        rows that share a hash are copied and compared, so a graph of distinct
        wide rows is never copied. Only the two int index arrays are kept.
        """
        n, f = self.features.shape
        if f == 0:      # every row is the empty row
            return np.zeros(min(n, 1), dtype=np.int64), np.zeros(n, dtype=np.int64)
        # wrapping integer dot products: a hash of the row's 64-bit words
        hashes = self.features.view(np.uint64) @ np.random.default_rng(0).integers(
            1, 2**63, f, dtype=np.uint64)
        _, at, counts = np.unique(hashes, return_inverse=True, return_counts=True)
        shared = np.flatnonzero(counts[at] > 1)
        keys = self.features[shared].view(np.dtype((np.void, self.features.itemsize * f)))
        _, lowest, same = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        owner = np.arange(n)        # the lowest node holding each node's row
        owner[shared] = shared[lowest][same]
        _, first, row_of = np.unique(owner, return_index=True, return_inverse=True)
        return first, row_of

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def edges(self) -> list[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v."""
        src = np.repeat(np.arange(self.node_count), self.degrees)
        keep = src < self.neighbors
        return list(zip(src[keep].tolist(), self.neighbors[keep].tolist()))

    def adjacency_dense(self, dtype=np.float64) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count), dtype=dtype)
        a[np.repeat(np.arange(self.node_count), self.degrees), self.neighbors] = 1
        return a

    def with_features(self, features: np.ndarray) -> "Graph":
        return Graph(self.node_count, self.offsets, self.neighbors, features,
                     self.graph_label, self.node_labels)

    def with_label(self, graph_label: int | None) -> "Graph":
        return Graph(self.node_count, self.offsets, self.neighbors, self.features,
                     graph_label, self.node_labels)

    # -- construction --------------------------------------------------

    @staticmethod
    def from_edges(node_count: int, edges: Iterable[tuple[int, int]],
                   features: np.ndarray | None = None,
                   graph_label: int | None = None,
                   node_labels: np.ndarray | None = None) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs or an (m, 2) array.

        Edges are symmetrized and deduplicated; self-loops are dropped.
        """
        n = node_count
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                         dtype=np.int64)
        pairs = pairs.reshape(-1, 2) if pairs.size == 0 else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
            u, v = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)][0]
            raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        u, v = pairs[pairs[:, 0] != pairs[:, 1]].T
        # u·n + v keys sort by node, then by neighbor: the distinct keys are the CSR
        src, dst = np.divmod(np.unique(np.concatenate([u * n + v, v * n + u])), n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        if features is None:
            features = np.zeros((node_count, 0))
        return Graph(node_count, offsets, dst, features, graph_label, node_labels)


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Vertex-induced subgraph on ``nodes``: node i is ``nodes[i]``, so a
    record's center is node 0. Features are copied row-wise from the parent;
    the node set need not be connected.
    """
    ids = np.asarray(list(nodes), dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("node set must be non-empty")
    if len(np.unique(ids)) != len(ids):
        raise ValueError("node set contains duplicates")
    if ids.min() < 0 or ids.max() >= g.node_count:
        raise ValueError("node id out of range")
    local = np.full(g.node_count, -1, dtype=np.int64)
    local[ids] = np.arange(len(ids))
    deg = g.degrees[ids]
    # where each member's neighbor slice sits in g.neighbors, slice after slice
    at = np.arange(deg.sum()) + np.repeat(g.offsets[ids] - np.cumsum(deg) + deg, deg)
    pairs = np.stack([np.repeat(np.arange(len(ids)), deg), local[g.neighbors[at]]], axis=1)
    return Graph.from_edges(len(ids), pairs[pairs[:, 1] >= 0], features=g.features[ids].copy())


def direct_product(g: Graph, h: Graph) -> Graph:
    """Tensor (direct) product graph on node pairs, row-major pairing.

    Node (u, u') maps to index ``u * h.node_count + u'``; a product edge
    exists iff both coordinates step along an edge of their factor.
    Features are ignored (structure only).
    """
    n, m = g.node_count, h.node_count
    deg_g, deg_h = g.degrees, h.degrees
    counts = np.repeat(deg_g, m) * np.tile(deg_h, n)
    offsets = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # entry k of node (u, u')'s slice pairs neighbor k // deg(u') of u with k % deg(u') of u'
    u, up = np.divmod(np.repeat(np.arange(n * m), counts), m)
    i, j = np.divmod(np.arange(offsets[-1]) - offsets[:-1].repeat(counts), deg_h[up])
    nbrs = g.neighbors[g.offsets[u] + i] * m + h.neighbors[h.offsets[up] + j]
    return Graph(n * m, offsets, nbrs, np.zeros((n * m, 0)))


def degree_features(g: Graph, max_degree: int) -> np.ndarray:
    """One-hot degree encoding of width ``max_degree + 1``.

    Degrees above the cap clamp into the last bucket.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    idx = np.minimum(g.degrees, max_degree)
    out = np.zeros((g.node_count, max_degree + 1))
    out[np.arange(g.node_count), idx] = 1.0
    return out


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Return the isomorphic graph with node i renamed to perm[i]."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(g.node_count)):
        raise ValueError("perm must be a permutation of the node ids")
    edges = perm[np.array(g.edges(), dtype=np.int64).reshape(-1, 2)]
    old = np.argsort(perm)      # the old id of each new node
    labels = None if g.node_labels is None else g.node_labels[old]
    return Graph.from_edges(g.node_count, edges, g.features[old], g.graph_label, labels)


def disjoint_union(g: Graph, *rest: Graph) -> Graph:
    """Disjoint union, each graph's node ids shifted past those before it.
    Features are zero-padded to the widest graph's."""
    graphs = (g,) + rest
    shift = np.cumsum([0] + [x.node_count for x in graphs])
    edges = np.concatenate([np.array(x.edges(), dtype=np.int64).reshape(-1, 2) + s
                            for x, s in zip(graphs, shift)])
    f = max(x.feature_dim for x in graphs)
    feats = np.vstack([np.pad(x.features, ((0, 0), (0, f - x.feature_dim))) for x in graphs])
    return Graph.from_edges(int(shift[-1]), edges, feats)


# -- small named graphs used across tests and demos ---------------------

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
