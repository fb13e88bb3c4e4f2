"""Dataset ingestion (TU benchmark layout), synthetic generators, and splits.

TU layout, all line-oriented and 1-based:
    <name>_A.txt               "i, j" per directed edge listing
    <name>_graph_indicator.txt  graph id of each node
    <name>_graph_labels.txt     one integer per graph
    <name>_node_labels.txt      optional, one integer per node
    <name>_node_attributes.txt  optional, comma-separated reals per node

Node ids convert to 0-based at this boundary. Attribute-free datasets get
one-hot degree features capped at the global maximum degree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, degree_features
from .util import FormatError, read_text_lines, substream


@dataclass
class Dataset:
    graphs: list[Graph]
    task: str               # "graph" or "node"
    class_count: int
    name: str

    def __post_init__(self):
        if self.task not in ("graph", "node"):
            raise ValueError("task must be 'graph' or 'node'")
        if self.task == "node" and (len(self.graphs) != 1
                                    or self.graphs[0].node_labels is None):
            raise ValueError("node-level datasets hold exactly one labeled graph")

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].feature_dim

    def labels(self) -> np.ndarray:
        if self.task == "graph":
            return np.array([g.graph_label for g in self.graphs], dtype=np.int64)
        return self.graphs[0].node_labels


@dataclass
class SplitPlan:
    folds: list = field(default_factory=list)     # [(train ids, test ids), ...]
    masks: tuple | None = None                    # (train, val, test) bool arrays


# -- TU format loader ------------------------------------------------------

def _read_lines(directory: str, name: str, suffix: str, required: bool):
    path = os.path.join(directory, f"{name}_{suffix}.txt")
    if not os.path.exists(path):
        if required:
            raise FileNotFoundError(f"required dataset file missing: {path}")
        return None, path
    return read_text_lines(path), path


def _read_table(path: str, lines: list[str], kind: type, what: str, width: int | None = None,
                skip_blank: bool = False, commas: bool = False) -> np.ndarray:
    """The values of a TU file's lines as a (rows, width) array of ``kind``.

    One ``np.loadtxt`` pass reads the file. Where it refuses, ``kind`` (int or
    float) rescans each line: every spelling it accepts loads unchanged, and
    the first line it refuses, or an int outside int64, raises FormatError
    ``path:line: what``, with ``{!r}`` in ``what`` formatting the line. Blank
    lines are skipped with ``skip_blank``, else refused, and counted either way.
    """
    dtype = np.int64 if kind is int else np.float64
    text = "\n".join(lines).replace(",", " ").split("\n") if commas else lines
    filled = sum(map(bool, map(str.strip, lines)))
    try:
        # loadtxt skips blank lines (a comma-only one too) and warns on none; numpy's
        # integer parser misreads some non-ASCII text (U+6CC98 as 445544) or crashes
        if filled == 0 or not (skip_blank or filled == len(lines)) \
                or not all(map(str.isascii, lines)):
            raise ValueError
        table = np.loadtxt(text, dtype=dtype, ndmin=2, comments=None)
        if table.shape[0] != filled or width not in (None, table.shape[1]):
            raise ValueError
        return table
    except (ValueError, OverflowError):
        # the per-line scan runs only on files loadtxt refuses; it names the bad line
        rows = []
        for ln, (line, values) in enumerate(zip(lines, text), start=1):
            if skip_blank and not line.strip():
                continue
            try:
                row = np.array([kind(x) for x in values.split()], dtype=dtype)
                if width is not None and len(row) != width:
                    raise ValueError
            except (ValueError, OverflowError):
                raise FormatError(f"{path}:{ln}: " + what.format(line)) from None
            rows.append(row)
        widths = {len(r) for r in rows}
        if len(widths) > 1:     # only attribute rows leave the width open
            raise FormatError(f"{path}: inconsistent attribute widths {sorted(widths)}")
        return np.array(rows, dtype=dtype).reshape(len(rows), width or widths.pop())


def load_tu_dataset(directory: str, name: str) -> Dataset:
    """Load a TU-layout dataset directory.

    Edges are deduplicated and symmetrized; self-loops are dropped. Node
    labels become one-hot feature blocks (graph tasks only), attributes are
    parsed as comma-separated reals, and graphs without either get degree
    one-hot features capped at the global max degree. Labels are remapped
    to a contiguous 0-based range. A dataset with a single graph carrying
    node labels loads as a node-level task, with the node labels used as
    targets rather than features.
    """
    a_lines, a_path = _read_lines(directory, name, "A", required=True)
    ind_lines, ind_path = _read_lines(directory, name, "graph_indicator", required=True)
    gl_lines, gl_path = _read_lines(directory, name, "graph_labels", required=True)
    nl_lines, nl_path = _read_lines(directory, name, "node_labels", required=False)
    na_lines, na_path = _read_lines(directory, name, "node_attributes", required=False)

    node_graph = _read_table(ind_path, ind_lines, int, "bad graph indicator {!r}", 1)[:, 0]
    if len(node_graph) == 0:
        raise FormatError(f"{ind_path}: dataset has no nodes")
    graph_count = int(node_graph.max())
    if node_graph.min() < 1:
        raise FormatError(f"{ind_path}: graph ids must be 1-based")
    n_total = len(node_graph)

    raw_graph_labels = _read_table(gl_path, gl_lines, int, "bad graph label {!r}", 1,
                                   skip_blank=True)[:, 0]
    if len(raw_graph_labels) != graph_count:
        raise FormatError(f"{gl_path}: expected {graph_count} labels, "
                          f"got {len(raw_graph_labels)}")

    node_labels = None
    if nl_lines is not None:
        if len(nl_lines) < n_total:
            raise FormatError(f"{nl_path}: expected {n_total} node labels")
        node_labels = _read_table(nl_path, nl_lines[:n_total], int, "bad node label", 1)[:, 0]

    attributes = None
    if na_lines is not None:
        if len(na_lines) < n_total:
            raise FormatError(f"{na_path}: expected {n_total} attribute rows")
        attributes = _read_table(na_path, na_lines[:n_total], float, "bad attribute row",
                                 commas=True)

    # edges; node blocks are contiguous, so sorting by the first end groups them per graph
    if np.any(np.diff(node_graph) < 0):
        raise FormatError(f"{ind_path}: node blocks must be contiguous per graph")
    first_node = np.searchsorted(node_graph, np.arange(1, graph_count + 2))
    empty = np.flatnonzero(np.diff(first_node) == 0)
    if len(empty):
        raise FormatError(f"{ind_path}: graph {empty[0] + 1} has no nodes")
    edges = _read_table(a_path, a_lines, int, "expected 'i, j', got {!r}", 2,
                        skip_blank=True, commas=True) - 1
    outside = ((edges < 0) | (edges >= n_total)).any(axis=1)
    ends = node_graph[np.where(outside[:, None], 0, edges)]
    bad = np.flatnonzero(outside | (ends[:, 0] != ends[:, 1]))
    if len(bad):
        ln = [i for i, line in enumerate(a_lines, start=1) if line.strip()][bad[0]]
        if outside[bad[0]]:
            raise FormatError(f"{a_path}:{ln}: node id out of range")
        gu, gv = ends[bad[0]]
        raise FormatError(f"{a_path}:{ln}: edge crosses graphs {gu} and {gv}")
    edges = edges[np.argsort(edges[:, 0], kind="stable")]
    edge_bounds = np.searchsorted(edges[:, 0], first_node)

    task = "node" if (graph_count == 1 and node_labels is not None) else "graph"
    label_names, graph_labels = np.unique(raw_graph_labels, return_inverse=True)
    feats = [np.zeros((n_total, 0)) if attributes is None else attributes]
    if node_labels is not None:
        node_label_names, node_labels = np.unique(node_labels, return_inverse=True)
        if task == "graph":
            feats.append(np.eye(len(node_label_names))[node_labels])
    features = np.hstack(feats)
    graphs = []
    for gi in range(graph_count):
        lo, hi = first_node[gi], first_node[gi + 1]
        graphs.append(Graph.from_edges(
            int(hi - lo), edges[edge_bounds[gi]:edge_bounds[gi + 1]] - lo,
            features=features[lo:hi],
            graph_label=int(graph_labels[gi]),
            node_labels=node_labels if task == "node" else None))
    if graphs and graphs[0].feature_dim == 0:
        graphs = _with_degree_features(graphs)
    class_count = len(label_names) if task == "graph" else len(node_label_names)
    return Dataset(graphs=graphs, task=task, class_count=class_count, name=name)


def _with_degree_features(graphs: list[Graph]) -> list[Graph]:
    cap = max(int(g.degrees.max()) if g.node_count else 0 for g in graphs)
    return [g.with_features(degree_features(g, cap)) for g in graphs]


def _is_degree_onehot(graphs: list[Graph]) -> bool:
    """True when features are exactly the loader's degree one-hot convention."""
    if not graphs or graphs[0].feature_dim == 0:
        return False
    cap = max(int(g.degrees.max()) if g.node_count else 0 for g in graphs)
    if graphs[0].feature_dim != cap + 1:
        return False
    return all(np.array_equal(g.features, degree_features(g, cap)) for g in graphs)


def save_tu_dataset(dataset: Dataset, directory: str) -> None:
    """Serialize to the TU layout (directed listing, 1-based ids).

    Degree one-hot features are a loader-side convention and are skipped;
    any other features are written as node attributes so they round-trip.
    """
    os.makedirs(directory, exist_ok=True)
    name = dataset.name
    graphs = dataset.graphs
    counts = [g.node_count for g in graphs]
    first = np.cumsum([1] + counts[:-1])      # 1-based id of each graph's node 0
    src = np.concatenate([np.repeat(np.arange(g.node_count) + s, g.degrees)
                          for g, s in zip(graphs, first)])
    dst = np.concatenate([g.neighbors + s for g, s in zip(graphs, first)])

    def write(suffix, lines):
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")

    write("A", map("{}, {}".format, src.tolist(), dst.tolist()))
    indicator = np.repeat(np.arange(1, len(graphs) + 1), counts)
    write("graph_indicator", map(str, indicator.tolist()))
    write("graph_labels", (str(g.graph_label if g.graph_label is not None else 0)
                           for g in graphs))
    if dataset.task == "node":
        write("node_labels", map(str, graphs[0].node_labels.tolist()))
    if dataset.feature_dim > 0 and not _is_degree_onehot(graphs):
        write("node_attributes", (", ".join(map(repr, row.tolist()))
                                  for g in graphs for row in g.features))


# -- synthetic generators --------------------------------------------------

def _barabasi_albert(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Preferential-attachment graph via the repeated-endpoint trick."""
    m = min(m, n - 1)
    edges = []
    repeated: list[int] = []
    targets = list(range(m))
    for new in range(m, n):
        picked = set(targets)
        for t in picked:
            edges.append((new, t))
        repeated.extend(picked)
        repeated.extend([new] * len(picked))
        targets = []
        seen = set()
        while len(targets) < m:
            cand = int(repeated[rng.integers(0, len(repeated))])
            if cand not in seen:
                seen.add(cand)
                targets.append(cand)
    return edges


_META_LAYOUTS = ("caveman", "cycle", "grid", "ladder", "star", "tree")


def _meta_edges(layout: str, c: int,
                rng: np.random.Generator | None = None) -> list[tuple[int, int]]:
    """Community-level wiring shapes; every layout is connected."""
    if layout == "cycle":
        return [(i, (i + 1) % c) for i in range(c)]
    if layout == "tree":
        # random attachment tree: acyclic with branching hubs and leaves
        return [(i, int(rng.integers(0, i))) for i in range(1, c)]
    if layout == "star":
        return [(0, i) for i in range(1, c)]
    if layout == "caveman":
        return [(i, j) for i in range(c) for j in range(i + 1, c)]
    if layout == "grid":
        rows = int(np.floor(np.sqrt(c)))
        cols = int(np.ceil(c / rows))
        out = []
        for i in range(c):
            r, col = divmod(i, cols)
            if col + 1 < cols and i + 1 < c:
                out.append((i, i + 1))
            if (r + 1) * cols + col < c:
                out.append((i, (r + 1) * cols + col))
        return out
    if layout == "ladder":
        half = (c + 1) // 2
        out = []
        for i in range(half - 1):
            out.append((i, i + 1))                    # first rail
            if half + i + 1 < c:
                out.append((half + i, half + i + 1))  # second rail
        for i in range(c - half):
            out.append((i, half + i))                 # rungs
        return out
    raise ValueError(f"unknown layout {layout}")


def _community_graph(layout: str, rng: np.random.Generator,
                     size_range: tuple[int, int]) -> Graph:
    c = int(rng.integers(8, 16))
    sizes = rng.integers(size_range[0], size_range[1] + 1, size=c)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    edges: list[tuple[int, int]] = []
    for k in range(c):
        m = int(rng.integers(1, 4))
        for u, v in _barabasi_albert(int(sizes[k]), m, rng):
            edges.append((starts[k] + u, starts[k] + v))
    p_inter = rng.uniform(0.05, 0.15)
    for i, j in _meta_edges(layout, c, rng):
        si, sj = int(sizes[i]), int(sizes[j])
        # one guaranteed bridge so the intended shape always survives
        edges.append((starts[i] + int(rng.integers(0, si)),
                      starts[j] + int(rng.integers(0, sj))))
        hits = np.nonzero(rng.random((si, sj)) < p_inter)
        for u, v in zip(*hits):
            edges.append((starts[i] + int(u), starts[j] + int(v)))
    return Graph.from_edges(n, edges)


SHAPE_LAYOUTS = {"GraphCycle": ["cycle", "tree"],
                 "GraphFive": ["caveman", "cycle", "grid", "ladder", "star"]}


def _gen_shapes(name: str, count: int, seed: int, size_range: tuple[int, int]) -> Dataset:
    layouts = SHAPE_LAYOUTS[name]
    if count < len(layouts):
        raise ValueError(f"count must be at least {len(layouts)} for balance")
    graphs = []
    for idx in range(count):
        label = idx % len(layouts)
        rng = substream(seed, idx)
        g = _community_graph(layouts[label], rng, size_range)
        graphs.append(g.with_label(label))
    graphs = _with_degree_features(graphs)
    return Dataset(graphs=graphs, task="graph", class_count=len(layouts), name=name)


def gen_graph_cycle(count: int, seed: int) -> Dataset:
    """Two-class community graphs: ring-wired versus tree-wired."""
    return _gen_shapes("GraphCycle", count, seed, size_range=(10, 20))


def gen_graph_five(count: int, seed: int) -> Dataset:
    """Five-class community graphs: caveman, cycle, grid, ladder, star."""
    return _gen_shapes("GraphFive", count, seed, size_range=(10, 20))


# -- splits ------------------------------------------------------------------

def make_folds(dataset: Dataset, k: int, seed: int) -> SplitPlan:
    """Stratified k-fold partition with globally balanced fold sizes."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if dataset.task != "graph":
        raise ValueError("folds apply to graph-level datasets")
    labels = dataset.labels()
    rng = substream(seed, 600)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    loads = np.zeros(k, dtype=np.int64)
    for c in np.unique(labels):
        members = rng.permutation(np.nonzero(labels == c)[0])
        if len(members) < k:
            import warnings
            warnings.warn(f"class {c} has fewer members ({len(members)}) than folds ({k}); "
                          "stratification is degenerate")
        base, extra = divmod(len(members), k)
        # leftovers go to the currently lightest folds (ties by index)
        order = np.lexsort((np.arange(k), loads))
        gets = np.full(k, base, dtype=np.int64)
        gets[order[:extra]] += 1
        pos = 0
        for f in range(k):
            fold_members[f].extend(members[pos:pos + gets[f]].tolist())
            pos += gets[f]
        loads += gets
    all_ids = set(range(len(dataset.graphs)))
    folds = []
    for f in range(k):
        test = sorted(fold_members[f])
        train = sorted(all_ids - set(test))
        folds.append((np.array(train, dtype=np.int64), np.array(test, dtype=np.int64)))
    return SplitPlan(folds=folds)


def make_node_splits(dataset: Dataset, ratios: tuple[float, float, float],
                     seed: int) -> SplitPlan:
    """Per-class stratified (train, val, test) masks.

    Sizes are per-class floors of the ratios; leftover nodes go to train
    first, then val, then test.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    if dataset.task != "node":
        raise ValueError("node splits apply to node-level datasets")
    labels = dataset.graphs[0].node_labels
    n = len(labels)
    rng = substream(seed, 601)
    masks = [np.zeros(n, dtype=bool) for _ in range(3)]
    for c in np.unique(labels):
        members = rng.permutation(np.nonzero(labels == c)[0])
        if len(members) == 0:
            raise ValueError(f"class {c} is empty")
        sizes = [int(np.floor(r * len(members))) for r in ratios]
        leftover = len(members) - sum(sizes)
        for i in range(leftover):
            sizes[i % 3] += 1
        pos = 0
        for mi in range(3):
            masks[mi][members[pos:pos + sizes[mi]]] = True
            pos += sizes[mi]
    return SplitPlan(masks=tuple(masks))
