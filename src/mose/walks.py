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

from .graph import Graph
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
                     patterns, cap: int | None = None) -> list[int]:
    """The record of ``v``: the center, then the nodes of its pattern-matching
    walks, the list ``extract_dataset`` caches for it.

    Nodes are kept in first-visit order (walks in sampling order, positions
    within each walk); when a cap is given, the latest-visited nodes beyond
    it are dropped. The record is ``[v]`` when no walk matches.
    """
    if any(walk[0] != v for walk in walks):
        raise ValueError("all walks must start at the center")
    pattern_set = set(patterns)
    visits = np.array([node for walk in walks if to_anonymous(walk) in pattern_set
                       for node in walk], dtype=np.int64)
    center = np.array([v], dtype=np.int64)
    return _first_visits(g.node_count, center, np.full(len(visits), v), visits, cap)[0]


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


_BLOCK = 1 << 13     # walk rows expanded at a time
_MERGE = 1 << 14     # completed walks gathered before they merge into the table


def _label_bits(g: Graph, length: int) -> int:
    """Bits per packed pattern label: a length-l walk has at most
    min(n, l + 1) distinct nodes, labelled from 0."""
    return max(1, (min(g.node_count, length + 1) - 1).bit_length())


def _pattern_table(g: Graph, v: int, length: int, budget: int, bits: int,
                   keep: list | None = None):
    """Sorted distinct pattern keys and their counts over all length-l walks from v.

    Walks are expanded level by level through the CSR, depth-first over
    blocks of at most ``_BLOCK`` rows. A row holds its node, its first-visit
    table (``seen[r, j]`` is the node labelled j) and its labels after the
    leading 0, packed most significant first, ``bits`` each, into uint64
    words. Keys are one word, or big-endian byte rows of several; either way
    they sort in lexicographic pattern order. Every prefix from a non-isolated
    root extends to a full walk, so completed plus pending rows bound the
    walk count from below: BudgetError is raised once that exceeds ``budget``.
    Given ``keep``, each block of completed walks appends its (keys, first-visit
    table) to it, so the nodes on the walks of a pattern can be read back.
    """
    if not (0 <= v < g.node_count):
        raise ValueError("start node out of range")
    if length < 0:
        raise ValueError(f"walk length must be >= 0, got {length}")
    per_word = 64 // bits
    node = np.min_scalar_type(-g.node_count - 1)  # holds -1 and every node id and count
    seen = np.full((1, min(g.node_count, length + 1)), -1, dtype=node)
    seen[0, 0] = v
    words = np.zeros((1, max(1, -(-length // per_word))), dtype=np.uint64)
    table, stack, leaves = (_as_keys(words[:0]), np.zeros(0, dtype=np.int64)), [], []
    done = pending = 0
    if length > 0 and g.degrees[v] == 0:
        return table

    def add(block, depth):
        nonlocal table, done, pending
        if depth < length:
            stack.append((depth, block, np.cumsum(g.degrees[block[0]]), 0))
            pending += len(block[0])
        else:
            leaves.append(_as_keys(block[3]))
            if keep is not None:
                keep.append((leaves[-1], block[1]))
            done += len(block[0])
            if sum(map(len, leaves)) >= max(_MERGE, len(table[0]) // 2):
                table = _merge(table, leaves)
        if done + pending > budget:
            raise BudgetError("walk enumeration exceeded its budget")

    add((seen[:, 0].copy(), seen, np.ones(1, dtype=node), words), 0)
    while stack:
        depth, block, cum, lo = stack.pop()
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + _BLOCK, side="right")))
        if hi < len(cum):
            stack.append((depth, block, cum, hi))
        pending -= hi - lo
        deg = g.degrees[block[0][lo:hi]]
        src = np.repeat(np.arange(lo, hi), deg)
        nxt = g.neighbors[np.arange(len(src)) + np.repeat(
            g.offsets[block[0][lo:hi]] - (cum[lo:hi] - base - deg), deg)].astype(node)
        seen, nseen, words = block[1][src], block[2][src], block[3][src]
        hit = seen == nxt[:, None]
        fresh = ~hit.any(axis=1)
        label = np.where(fresh, nseen, hit.argmax(axis=1)).astype(np.uint64)
        new = np.flatnonzero(fresh)
        seen[new, nseen[new]] = nxt[new]
        nseen += fresh
        word, slot = divmod(depth, per_word)
        words[:, word] |= label << np.uint64(bits * (per_word - 1 - slot))
        add((nxt, seen, nseen, words), depth + 1)
    return _merge(table, leaves) if leaves else table


def _as_keys(words: np.ndarray) -> np.ndarray:
    """Rows of packed uint64 words as 1-d keys that sort like the rows."""
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words, dtype=">u8").view(f"V{8 * words.shape[1]}").ravel()


def _pack(labels: np.ndarray, bits: int) -> np.ndarray:
    """Keys of (m, l) pattern labels after the leading 0, in ``_pattern_table``'s
    layout: ``bits`` per label, most significant first, in uint64 words."""
    per_word = 64 // bits
    m, length = labels.shape
    padded = np.zeros((m, max(1, -(-length // per_word)) * per_word), dtype=np.uint64)
    padded[:, :length] = labels
    shift = (bits * np.arange(per_word - 1, -1, -1)).astype(np.uint64)
    return _as_keys(np.bitwise_or.reduce(padded.reshape(m, -1, per_word) << shift, axis=2))


def _unpack(keys: np.ndarray, length: int, bits: int) -> np.ndarray:
    """The (len(keys), length + 1) patterns of ``_pack``ed keys, leading 0 included."""
    words = (keys.view(">u8") if keys.dtype.kind == "V" else keys).reshape(
        len(keys), keys.dtype.itemsize // 8)          # a byte-row key is big-endian words
    t, per_word = np.arange(length), 64 // bits
    shift = (bits * (per_word - 1 - t % per_word)).astype(np.uint64)
    labels = (words[:, t // per_word] >> shift) & np.uint64((1 << bits) - 1)
    return np.pad(labels, ((0, 0), (1, 0)))


def _merge(table, leaves: list) -> tuple[np.ndarray, np.ndarray]:
    """Count the keys of ``leaves`` (emptied) into the sorted (key, count) table.
    The table is copied once to insert the new keys, never sorted again."""
    keys, counts = np.unique(np.concatenate(leaves), return_counts=True)
    leaves.clear()
    at = np.searchsorted(table[0], keys)
    old = at < np.searchsorted(table[0], keys, side="right")
    table[1][at[old]] += counts[old]
    at, keys, counts = at[~old], keys[~old], counts[~old]
    return np.insert(table[0], at, keys), np.insert(table[1], at, counts)


def enumerate_anonymous_walks(g: Graph, v: int, length: int,
                              budget: int = 10**7) -> Counter:
    """Exact anonymous-pattern multiset over all length-l walks from v.

    Exhaustive enumeration in array passes; raises BudgetError when the
    walk count would exceed ``budget``.
    """
    bits = _label_bits(g, length)
    keys, counts = _pattern_table(g, v, length, budget, bits)
    patterns = map(tuple, _unpack(keys, length, bits).tolist())
    return Counter(dict(zip(patterns, counts.tolist())))


def walk_distributions_distinguish(g: Graph, v: int, h: Graph, vp: int,
                                   length: int, budget: int = 10**7) -> bool:
    """True iff the normalized anonymous-walk distributions differ exactly.

    Compares by integer cross-multiplication, so there is no tolerance to
    tune; isomorphic rooted graphs always compare equal.
    """
    bits = max(_label_bits(g, length), _label_bits(h, length))
    k1, c1 = _pattern_table(g, v, length, budget, bits)
    k2, c2 = _pattern_table(h, vp, length, budget, bits)
    t1, t2 = int(c1.sum()), int(c2.sum())
    if t1 == 0 or t2 == 0:
        return (t1 == 0) != (t2 == 0)
    # both tables are sorted and hold only positive counts, so the
    # distributions agree only where the keys agree one for one
    if not np.array_equal(k1, k2):
        return True
    if max(t1, t2) ** 2 < 2**63:
        return bool(np.any(c1 * t2 != c2 * t1))
    return any(a * t2 != b * t1 for a, b in zip(c1.tolist(), c2.tolist()))


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
        bits = _label_bits(g, length)
        keys, inverse, counts = np.unique(_pack(_anonymize(walks)[:, 1:], bits),
                                          return_inverse=True, return_counts=True)
        # keys sort like their patterns, so a stable sort by count breaks
        # ties as top_patterns does
        top = np.argsort(-counts, kind="stable")[:cfg.pattern_budget]
        hits = walks[np.isin(inverse, top)]
        table = list(zip(map(tuple, _unpack(keys[top], length, bits).tolist()),
                         counts[top].tolist()))
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
    # the dataset name runs to the five numeric keys, so it may hold spaces
    header = dict(kv.split("=", 1) for kv in lines[1].rsplit(" ", 5) if "=" in kv)
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
