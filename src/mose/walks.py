"""Random walk sampling, anonymity mapping, and walk-based subgraph extraction.

A walk's anonymous pattern replaces node identities with first-occurrence
indices, which makes it invariant under relabeling. Frequent patterns over
a whole graph pick out which sampled walks contribute nodes to each
center's extracted subgraph.
"""

from __future__ import annotations

import io
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import Graph, NodeSubgraph, induced_subgraph
from .util import BudgetError, FormatError, atomic_write, read_text_lines, substream


@dataclass(frozen=True)
class WalkConfig:
    walk_length: int = 8
    walks_per_node: int = 20
    pattern_budget: int = 5
    subgraph_cap: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be >= 1")
        if self.pattern_budget < 1:
            raise ValueError("pattern_budget must be >= 1")
        if self.subgraph_cap < 1:
            raise ValueError("subgraph_cap must be >= 1")


def sample_walks(g: Graph, v: int, cfg: WalkConfig,
                 rng: np.random.Generator) -> list[tuple[int, ...]]:
    """``walks_per_node`` uniform random walks of exactly ``walk_length`` steps.

    Every step picks a neighbor uniformly; an isolated start yields the
    empty list (a walker elsewhere can always backtrack, so it never
    strands mid-walk on an undirected graph).
    """
    if not (0 <= v < g.node_count):
        raise ValueError("start node out of range")
    if g.offsets[v] == g.offsets[v + 1]:
        return []
    n_w, length = cfg.walks_per_node, cfg.walk_length
    walks = np.empty((n_w, length + 1), dtype=np.int64)
    walks[:, 0] = v
    pos = walks[:, 0]
    deg = g.degrees
    for step in range(1, length + 1):
        pick = rng.integers(0, deg[pos])
        pos = g.neighbors[g.offsets[pos] + pick]
        walks[:, step] = pos
    return [tuple(int(x) for x in row) for row in walks]


def to_anonymous(walk: tuple[int, ...]) -> tuple[int, ...]:
    """Map node ids to their index of first appearance along the walk."""
    if len(walk) == 0:
        raise ValueError("walk must be non-empty")
    first: dict[int, int] = {}
    out = []
    for node in walk:
        if node not in first:
            first[node] = len(first)
        out.append(first[node])
    return tuple(out)


def top_patterns(pattern_counts: Counter, budget: int) -> list[tuple[int, ...]]:
    """The ``budget`` most frequent patterns; ties break lexicographically.

    Returns all patterns when fewer distinct ones exist.
    """
    if not pattern_counts:
        raise ValueError("pattern multiset must be non-empty")
    ranked = sorted(pattern_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [pat for pat, _ in ranked[:budget]]


def extract_subgraph(g: Graph, v: int, walks: list[tuple[int, ...]],
                     patterns, cap: int | None = None) -> NodeSubgraph:
    """Induce the subgraph on the center plus nodes of pattern-matching walks.

    Nodes are kept in first-visit order (walks in sampling order, positions
    within each walk); when a cap is given, the latest-visited nodes beyond
    it are dropped. Falls back to the singleton subgraph when no walk
    matches.
    """
    if any(walk[0] != v for walk in walks):
        raise ValueError("all walks must start at the center")
    pattern_set = set(patterns)
    visits = np.array([node for walk in walks if to_anonymous(walk) in pattern_set
                       for node in walk], dtype=np.int64)
    center = np.array([v], dtype=np.int64)
    nodes = _first_visits(g.node_count, center, np.full(len(visits), v), visits, cap)
    return induced_subgraph(g, nodes[0])


def _first_visits(n: int, centers: np.ndarray, visit_center: np.ndarray,
                  visit_node: np.ndarray, cap: int | None) -> list[list[int]]:
    """Each center's record: itself, then the nodes it visits, first visits only.

    ``centers`` is ascending; visits are listed in order within each center.
    A record keeps at most ``cap`` nodes, the earliest visited.
    """
    c = np.concatenate([centers, visit_center])
    x = np.concatenate([centers, visit_node])
    order = np.argsort(c, kind="stable")       # (center, visit order), center itself first
    c, x = c[order], x[order]
    _, first = np.unique(c * n + x, return_index=True)
    first.sort()
    c, x = c[first], x[first]
    starts = np.searchsorted(c, centers, side="left")
    ends = np.searchsorted(c, centers, side="right")
    if cap is not None:
        ends = np.minimum(ends, starts + cap)
    flat = x.tolist()
    return [flat[a:b] for a, b in zip(starts.tolist(), ends.tolist())]


def enumerate_anonymous_walks(g: Graph, v: int, length: int,
                              budget: int = 10**7) -> Counter:
    """Exact anonymous-pattern multiset over all length-l walks from v.

    Exhaustive depth-first enumeration; raises BudgetError when the walk
    count would exceed ``budget``.
    """
    if not (0 <= v < g.node_count):
        raise ValueError("start node out of range")
    nbrs = [tuple(int(x) for x in g.neighbors_of(u)) for u in range(g.node_count)]
    counts: Counter = Counter()
    remaining = budget
    first = {v: 0}
    pattern = [0]

    def visit(u: int, depth: int):
        nonlocal remaining
        if depth == length:
            counts[tuple(pattern)] += 1
            remaining -= 1
            if remaining < 0:
                raise BudgetError("walk enumeration exceeded its budget")
            return
        for w in nbrs[u]:
            fresh = w not in first
            if fresh:
                first[w] = len(first)
            pattern.append(first[w])
            visit(w, depth + 1)
            pattern.pop()
            if fresh:
                del first[w]

    visit(v, 0)
    return counts


def walk_distributions_distinguish(g: Graph, v: int, h: Graph, vp: int,
                                   length: int, budget: int = 10**7) -> bool:
    """True iff the normalized anonymous-walk distributions differ exactly.

    Compares by integer cross-multiplication, so there is no tolerance to
    tune; isomorphic rooted graphs always compare equal.
    """
    c1 = enumerate_anonymous_walks(g, v, length, budget)
    c2 = enumerate_anonymous_walks(h, vp, length, budget)
    t1, t2 = sum(c1.values()), sum(c2.values())
    if t1 == 0 or t2 == 0:
        return (t1 == 0) != (t2 == 0)
    for pat in set(c1) | set(c2):
        if c1.get(pat, 0) * t2 != c2.get(pat, 0) * t1:
            return True
    return False


# -- whole-dataset extraction and the on-disk cache ----------------------

CACHE_MAGIC = "mose-subgraphs v1"
_HEADER_KEYS = ("dataset", "seed", "walk_length", "walks_per_node", "pattern_budget",
                "cap")


@dataclass
class SubgraphCache:
    """Extracted subgraph node lists for every (graph, node) of a dataset."""

    dataset_name: str
    cfg: WalkConfig
    # records[g][v] = parent-id list (center first) for node v of graph g
    records: list[list[list[int]]]
    pattern_tables: list[list[tuple[tuple[int, ...], int]]]

    def subgraph(self, g: Graph, graph_idx: int, v: int) -> NodeSubgraph:
        return induced_subgraph(g, self.records[graph_idx][v])


_LOW32 = np.uint64(0xFFFFFFFF)


def _uint32_stream(words: np.ndarray) -> np.ndarray:
    """Rows of raw PCG64 words as the uint32 values ``next_uint32`` yields:
    each word's low half, then its high half."""
    halves = np.stack([words & _LOW32, words >> np.uint64(32)], axis=-1)
    return halves.reshape(len(words), -1)


def _replay_bounded(stream: np.ndarray, ptr: np.ndarray, high: np.ndarray):
    """Replay ``Generator.integers(0, high)`` for each row of ``high`` (r, c).

    numpy draws each value below a bound d < 2^32 by Lemire's method from
    the uint32 stream: d = 1 consumes nothing; otherwise one value u gives
    (u·d) >> 32, unless the low 32 bits of u·d fall below (2^32 - d) mod d,
    where numpy rejects u and draws again. ``ptr`` (r,) is each row's next
    unread index into ``stream`` (r, k). Returns the draws, the advanced
    pointers, and which rows hit a rejection (their draws are then wrong
    from that value on).
    """
    used = high > 1
    idx = ptr[:, None] + np.cumsum(used, axis=1) - used
    # a d = 1 position may point one past the end; its value is never used
    u = np.take_along_axis(stream, np.minimum(idx, stream.shape[1] - 1), axis=1)
    d = high.astype(np.uint64)
    m = u * d
    threshold = (np.uint64(2**32) - d) % d
    rejected = np.any(used & ((m & _LOW32) < threshold), axis=1)
    return (m >> np.uint64(32)).astype(np.int64), ptr + used.sum(axis=1), rejected


def _walks_from_words(g: Graph, graph_idx: int, cfg: WalkConfig, nodes: np.ndarray,
                      words: np.ndarray) -> np.ndarray:
    """The (len(nodes), w, L + 1) walks that ``sample_walks`` draws for each
    node from ``substream(cfg.seed, graph_idx, node)``, replayed from the
    rows of raw words that stream starts with. A node whose draws hit a
    rejection is resampled with ``sample_walks`` itself."""
    stream = _uint32_stream(words)
    walks = np.empty((len(nodes), cfg.walks_per_node, cfg.walk_length + 1), dtype=np.int64)
    walks[:, :, 0] = nodes[:, None]
    ptr = np.zeros(len(nodes), dtype=np.int64)
    rejected = np.zeros(len(nodes), dtype=bool)
    deg = g.degrees
    for step in range(1, cfg.walk_length + 1):
        pos = walks[:, :, step - 1]
        pick, ptr, hit = _replay_bounded(stream, ptr, deg[pos])
        rejected |= hit
        walks[:, :, step] = g.neighbors[g.offsets[pos] + pick]
    for i in np.nonzero(rejected)[0]:
        v = int(nodes[i])
        walks[i] = sample_walks(g, v, cfg, substream(cfg.seed, graph_idx, v))
    return walks


def _anonymize(walks: np.ndarray) -> np.ndarray:
    """``to_anonymous`` of every row of a (m, L + 1) walk array."""
    first = (walks[:, :, None] == walks[:, None, :]).argmax(axis=2)
    fresh = first == np.arange(walks.shape[1])
    rank = np.cumsum(fresh, axis=1) - 1
    return np.take_along_axis(rank, first, axis=1)


def _count_patterns(patterns: np.ndarray):
    """``np.unique(patterns, axis=0)`` with the inverse and the counts.

    Each row is packed into one big-endian byte string first: their byte
    order is the rows' lexicographic order, and they sort ~15x faster than
    the per-column records ``axis=0`` compares. Any walk length fits.
    """
    width = patterns.shape[1]
    packed = np.ascontiguousarray(patterns, dtype=">u4").view(f"V{4 * width}").ravel()
    keys, inverse, counts = np.unique(packed, return_inverse=True, return_counts=True)
    return keys.view(">u4").reshape(-1, width).astype(np.int64), inverse.ravel(), counts


def _extract_one_graph(g: Graph, graph_idx: int, cfg: WalkConfig):
    """Records and the selected pattern table of one graph, all nodes at once.

    Equal, byte for byte once saved, to running ``sample_walks`` per node,
    counting ``to_anonymous`` patterns, taking ``top_patterns`` and
    ``extract_subgraph``'s record rule.
    """
    length = cfg.walk_length
    centers = np.arange(g.node_count)
    nodes = centers[g.degrees > 0]
    hits = np.zeros((0, length + 1), dtype=np.int64)
    table = []
    if len(nodes):
        count = -(-length * cfg.walks_per_node // 2)
        words = np.stack([substream(cfg.seed, graph_idx, v).bit_generator.random_raw(count)
                          for v in nodes.tolist()])
        walks = _walks_from_words(g, graph_idx, cfg, nodes, words).reshape(-1, length + 1)
        pats, inverse, counts = _count_patterns(_anonymize(walks))
        # patterns come in lexicographic order, so a stable sort by count
        # breaks ties as top_patterns does
        top = np.argsort(-counts, kind="stable")[:cfg.pattern_budget]
        hits = walks[np.isin(inverse, top)]
        table = [(tuple(pats[i].tolist()), int(counts[i])) for i in top]
    records = _first_visits(g.node_count, centers, np.repeat(hits[:, 0], length + 1),
                            hits.ravel(), cfg.subgraph_cap)
    return records, table


def extract_dataset(graphs: list[Graph], dataset_name: str, cfg: WalkConfig,
                    threads: int = 1) -> SubgraphCache:
    """Run pattern counting and subgraph extraction over every graph.

    Pattern selection is global within each graph; per-node walk streams
    are keyed by (seed, graph, node), so the result is identical for any
    thread count.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda item: _extract_one_graph(item[1], item[0], cfg),
                                    enumerate(graphs)))
    else:
        results = [_extract_one_graph(g, i, cfg) for i, g in enumerate(graphs)]
    return SubgraphCache(dataset_name=dataset_name, cfg=cfg,
                         records=[r for r, _ in results],
                         pattern_tables=[t for _, t in results])


def save_cache(path: str, cache: SubgraphCache) -> None:
    buf = io.StringIO()
    c = cache.cfg
    buf.write(CACHE_MAGIC + "\n")
    buf.write(f"dataset={cache.dataset_name} seed={c.seed} walk_length={c.walk_length} "
              f"walks_per_node={c.walks_per_node} pattern_budget={c.pattern_budget} "
              f"cap={c.subgraph_cap}\n")
    for gi, recs in enumerate(cache.records):
        buf.write(f"g {gi}\n")
        for pat, cnt in cache.pattern_tables[gi]:
            buf.write("p " + ",".join(str(x) for x in pat) + f" {cnt}\n")
        for nodes in recs:
            buf.write("v " + " ".join(str(x) for x in nodes) + "\n")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_write(path) as f:
        f.write(buf.getvalue())


def load_cache(path: str) -> SubgraphCache:
    """Read a cache written by save_cache; a malformed file raises
    FormatError naming ``path:line``."""
    lines = read_text_lines(path)
    if not lines or lines[0] != CACHE_MAGIC:
        raise FormatError(f"{path}:1: not a subgraph cache file")
    if len(lines) < 2:
        raise FormatError(f"{path}:2: missing header line")
    header = dict(kv.split("=", 1) for kv in lines[1].split() if "=" in kv)
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise FormatError(f"{path}:2: header lacks {', '.join(missing)}")
    try:
        cfg = WalkConfig(walk_length=int(header["walk_length"]),
                         walks_per_node=int(header["walks_per_node"]),
                         pattern_budget=int(header["pattern_budget"]),
                         subgraph_cap=int(header["cap"]),
                         seed=int(header["seed"]))
    except ValueError as e:
        raise FormatError(f"{path}:2: bad header: {e}") from None
    records: list[list[list[int]]] = []
    tables: list[list[tuple[tuple[int, ...], int]]] = []
    for ln, line in enumerate(lines[2:], start=3):
        if line.startswith("g "):
            records.append([])
            tables.append([])
        elif line.startswith(("p ", "v ")):
            if not records:
                raise FormatError(f"{path}:{ln}: {line[0]!r} line before the first graph line")
            try:
                if line[0] == "p":
                    _, pat, cnt = line.split(" ")
                    tables[-1].append((tuple(int(x) for x in pat.split(",")), int(cnt)))
                else:
                    records[-1].append([int(x) for x in line[2:].split()])
            except ValueError:
                raise FormatError(f"{path}:{ln}: malformed {line[0]!r} line {line!r}") from None
        elif line:
            raise FormatError(f"{path}:{ln}: unrecognized cache line {line!r}")
    return SubgraphCache(dataset_name=header["dataset"], cfg=cfg,
                         records=records, pattern_tables=tables)
