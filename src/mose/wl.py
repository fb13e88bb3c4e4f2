"""Color-refinement harnesses: classic neighbor-multiset refinement, the
subgraph-hashing variant, exact canonical forms, and distinguishing-power
experiments that compare both against model embeddings.

Hashes are exact canonical-form strings (permutation search with color
pruning), so injectivity holds by construction within a run. Joint
refinement over several graphs shares the signature tables, which makes
stable colorings comparable across graphs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import Graph, degree_features
from .kernel import NodeGroup
from .moe import MoseModel, build_group, group_forward, pool_rows
from .util import BudgetError, unique
from .walks import Records, _label_bits, _pattern_table, top_patterns

CANON_CAP = 8


@dataclass
class Coloring:
    """Stable node colors, their multiset, and rounds to stabilization."""

    colors: np.ndarray
    histogram: Counter
    rounds: int

    def class_count(self) -> int:
        return len(self.histogram)


# -- exact canonical forms -------------------------------------------------

def _induced_bitmasks(g: Graph, nodes: list[int]) -> list[int]:
    local = {p: i for i, p in enumerate(nodes)}
    rows = [0] * len(nodes)
    for i, p in enumerate(nodes):
        for u in g.neighbors_of(int(p)):
            j = local.get(int(u))
            if j is not None:
                rows[i] |= 1 << j
    return rows


def _canonical_raw(n: int, adj: list[int], keys: list) -> tuple:
    """Minimum encoding over permutations that sort the node keys.

    The encoding is (sorted key sequence, upper-triangle adjacency bits);
    only permutations consistent with the sorted key sequence can attain
    the minimum, so the search factors over key groups.
    """
    if n > CANON_CAP:
        raise BudgetError(f"canonical form capped at {CANON_CAP} nodes, got {n}")
    order_keys = sorted(range(n), key=lambda v: keys[v])
    groups = []
    for _, members in itertools.groupby(order_keys, key=lambda v: keys[v]):
        groups.append(list(members))
    best = None
    for parts in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        order = [v for part in parts for v in part]
        bits = 0
        k = 0
        for i in range(n):
            row = adj[order[i]]
            for j in range(i + 1, n):
                if row >> order[j] & 1:
                    bits |= 1 << k
                k += 1
        if best is None or bits < best:
            best = bits
    return (tuple(keys[v] for v in order_keys), best)


def canonical_form(g: Graph, colors=None, root: int | None = None) -> str:
    """Exact canonical string of a (colored, optionally rooted) graph."""
    n = g.node_count
    if colors is None:
        colors = [0] * n
    keys = [(0 if v == root else 1, int(colors[v])) for v in range(n)]
    return repr(_canonical_raw(n, _induced_bitmasks(g, range(n)), keys))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.node_count != h.node_count or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)


# -- subgraph extraction policies -------------------------------------------

class EgoPolicy:
    """Induced ball of the given hop radius around each node."""

    def __init__(self, radius: int = 1):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.radius = radius

    def node_sets(self, g: Graph) -> list[list[int]]:
        out = []
        for v in range(g.node_count):
            dist = {v: 0}
            frontier = [v]
            for _ in range(self.radius):
                nxt = []
                for u in frontier:
                    for w in g.neighbors_of(u):
                        w = int(w)
                        if w not in dist:
                            dist[w] = 0
                            nxt.append(w)
                frontier = nxt
            out.append(list(dist.keys()))
        return out


class AnonymousWalkPolicy:
    """Deterministic walk-pattern extraction via exhaustive enumeration.

    Selects the graph-wide most frequent patterns of the given length and
    keeps, per node, the union of nodes on walks matching them.
    """

    def __init__(self, length: int = 3, pattern_budget: int = 4,
                 budget: int = 10**6):
        self.length = length
        self.pattern_budget = pattern_budget
        self.budget = budget

    def node_sets(self, g: Graph) -> list[list[int]]:
        bits = _label_bits(g, self.length)
        kept = [[] for _ in range(g.node_count)]
        counts = Counter()
        for v in range(g.node_count):
            keys, c = _pattern_table(g, v, self.length, self.budget, bits, kept[v])
            counts.update(dict(zip(keys.tolist(), c.tolist())))
        # packed keys (ints, or bytes when wider than a word) order like patterns
        selected = top_patterns(counts, self.pattern_budget) if counts else []
        out = []
        for v in range(g.node_count):
            nodes = {v}
            for keys, seen in kept[v]:
                rows = seen[np.isin(keys, np.array(selected, dtype=keys.dtype))]
                nodes.update(rows[rows >= 0].tolist())
            out.append(sorted(nodes, key=lambda w: (w != v, w)))
        return out


# -- joint refinement --------------------------------------------------------

def _refine_many(graphs: list[Graph], inits, signature_round) -> list[Coloring]:
    """Iterate a refinement round with shared signature tables until no
    graph's partition splits further."""
    colors = []
    for gi, g in enumerate(graphs):
        if inits is not None and inits[gi] is not None:
            colors.append(np.asarray(inits[gi], dtype=np.int64).copy())
        else:
            colors.append(np.zeros(g.node_count, dtype=np.int64))
    # normalize initial colors through a shared table
    table = {c: i for i, c in enumerate(sorted({int(x) for col in colors for x in col}))}
    colors = [np.array([table[int(x)] for x in col], dtype=np.int64) for col in colors]
    rounds = 0
    total_classes = len({int(x) for col in colors for x in col})
    node_budget = sum(g.node_count for g in graphs)
    while True:
        sigs = signature_round(graphs, colors)
        table = {}
        for sig_list in sigs:
            for s in sig_list:
                if s not in table:
                    table[s] = None
        for i, s in enumerate(sorted(table)):
            table[s] = i
        new_colors = [np.array([table[s] for s in sig_list], dtype=np.int64)
                      for sig_list in sigs]
        new_total = len(table)
        rounds += 1  # the stability-confirming iteration counts
        if new_total == total_classes or rounds > node_budget:
            break
        colors = new_colors
        total_classes = new_total
    return [Coloring(colors=c, histogram=Counter(c.tolist()), rounds=rounds)
            for c in colors]


def _wl1_round(graphs, colors):
    sigs = []
    for g, col in zip(graphs, colors):
        row = []
        for v in range(g.node_count):
            nb = sorted(int(col[u]) for u in g.neighbors_of(v))
            row.append((int(col[v]), tuple(nb)))
        sigs.append(row)
    return sigs


def wl1_refine_many(graphs: list[Graph], inits=None) -> list[Coloring]:
    return _refine_many(graphs, inits, _wl1_round)


def wl1_refine(g: Graph, init=None) -> Coloring:
    """Neighbor-multiset color refinement run to stability."""
    return wl1_refine_many([g], [init] if init is not None else None)[0]


def swl_refine_many(graphs: list[Graph], policy, inits=None) -> list[Coloring]:
    sets = [policy.node_sets(g) for g in graphs]
    for gi, per_graph in enumerate(sets):
        for nodes in per_graph:
            if len(nodes) > CANON_CAP:
                raise BudgetError(
                    f"policy produced a {len(nodes)}-node subgraph in graph {gi}; "
                    f"canonicalization is capped at {CANON_CAP}")
    # each node set's induced adjacency is the same in every round
    masks = [[_induced_bitmasks(g, nodes) for nodes in per_graph]
             for g, per_graph in zip(graphs, sets)]

    def swl_round(_graphs, colors):
        sigs = []
        for col, per_graph, per_masks in zip(colors, sets, masks):
            row = []
            for v, (nodes, adj) in enumerate(zip(per_graph, per_masks)):
                keys = [(0 if p == v else 1, int(col[p])) for p in nodes]
                row.append(_canonical_raw(len(nodes), adj, keys))
            sigs.append(row)
        return sigs
    return _refine_many(graphs, inits, swl_round)


def swl_refine(g: Graph, policy, init=None) -> Coloring:
    """Refinement that re-hashes each node's whole colored subgraph."""
    return swl_refine_many([g], policy, [init] if init is not None else None)[0]


# -- comparisons ----------------------------------------------------------------

def distinguish(g: Graph, h: Graph, refiner: str = "wl1", policy=None) -> bool:
    """True iff jointly-stable coloring histograms differ."""
    if refiner == "wl1":
        a, b = wl1_refine_many([g, h])
    elif refiner == "swl":
        a, b = swl_refine_many([g, h], policy or EgoPolicy(1))
    else:
        raise ValueError("refiner must be 'wl1' or 'swl'")
    return a.histogram != b.histogram


def embed_graph(model: MoseModel, g: Graph, node_sets: list[list[int]]) -> np.ndarray:
    """Eval-mode whole-graph embedding under a fixed extraction policy."""
    if g.feature_dim != model.cfg.feature_dim:
        g = g.with_features(degree_features(g, model.cfg.feature_dim - 1))
    group = build_group(g, Records.from_lists(node_sets), range(g.node_count))
    return embed_group(model, group, [0])[0]


def embed_group(model: MoseModel, group: NodeGroup, starts,
                moments: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode readouts, one row per graph, of a group holding every node
    of several graphs in turn; graph i's rows begin at ``starts[i]``. Graphs
    of one row count read out in one ``pool_rows`` call on their stacked
    rows, each as it would alone; a graph with no rows raises ValueError.
    ``moments`` are the group's kernel moments, as ``group_forward`` reuses them."""
    h = group_forward(model, group, moments=moments).h
    bounds = np.append(np.asarray(starts, dtype=np.int64), len(h))
    counts = np.diff(bounds)
    if counts.min(initial=1) < 1:
        raise ValueError(f"graph {int(np.argmin(counts))} has no rows")
    out = np.empty((len(counts), h.shape[1]))
    for k in unique(counts):
        graphs = np.flatnonzero(counts == k)
        out[graphs] = pool_rows(h[bounds[graphs, None] + np.arange(k)],
                                model.cfg.readout_mode)[0][:, 0]
    return out


def mose_distinguish(g: Graph, h: Graph, model: MoseModel, policy=None,
                     tol: float = 1e-8) -> bool:
    """True iff readout embeddings differ by more than tol in max-norm.

    Featureless graphs get shared-cap degree features sized to the model's
    input width, so the two embeddings are comparable.
    """
    policy = policy or EgoPolicy(1)
    eg = embed_graph(model, g, policy.node_sets(g))
    eh = embed_graph(model, h, policy.node_sets(h))
    return bool(np.abs(eg - eh).max() > tol)


def lemma1_check(g: Graph, policy=None) -> bool:
    """Verify neighbor-multiset refinement cannot split the stable
    subgraph-hash coloring."""
    stable = swl_refine(g, policy or EgoPolicy(1))
    after = wl1_refine(g, init=stable.colors)
    return after.class_count() == stable.class_count()


# -- exhaustive small-graph corpus ------------------------------------------

def all_nonisomorphic_graphs(n: int) -> list[Graph]:
    """Every simple graph on n <= 6 nodes up to isomorphism.

    Enumerates edge subsets and collapses permutation orbits; orbit
    closure is exact, not heuristic.
    """
    if n < 1 or n > 6:
        raise ValueError("corpus enumeration supports 1..6 nodes")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npairs = len(pairs)
    pair_index = {p: k for k, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    src = np.zeros((len(perms), npairs), dtype=np.int64)
    for pi, perm in enumerate(perms):
        for k, (i, j) in enumerate(pairs):
            a, b = perm[i], perm[j]
            src[pi, k] = pair_index[(min(a, b), max(a, b))]
    weights = 1 << np.arange(npairs, dtype=np.int64)
    seen = np.zeros(1 << npairs, dtype=bool)
    reps = []
    for mask in range(1 << npairs):
        if seen[mask]:
            continue
        reps.append(mask)
        bits = (mask >> np.arange(npairs, dtype=np.int64)) & 1
        orbit = (bits[src] * weights).sum(axis=1)
        seen[orbit] = True
    graphs = []
    for mask in reps:
        edges = [pairs[k] for k in range(npairs) if mask >> k & 1]
        graphs.append(Graph.from_edges(n, edges))
    return graphs


def graph_corpus(max_n: int = 6) -> list[Graph]:
    out = []
    for n in range(1, max_n + 1):
        out.extend(all_nonisomorphic_graphs(n))
    return out


def same_size_pairs(graphs: list[Graph]) -> list[tuple[int, int]]:
    """Indices of all unordered pairs with equal node counts."""
    out = []
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            if graphs[i].node_count == graphs[j].node_count:
                out.append((i, j))
    return out
