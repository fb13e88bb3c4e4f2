"""Random walk sampling, anonymity mapping, and walk-based subgraph extraction.

A walk's anonymous pattern replaces node identities with first-occurrence
indices, which makes it invariant under relabeling. Frequent patterns over
a whole graph pick out which sampled walks contribute nodes to each
center's extracted subgraph.
"""

from __future__ import annotations

import io
import itertools
import os
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .util import (BudgetError, FormatError, atomic_write, read_text_lines, substream,
                   substream_words, unique)


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


@dataclass(frozen=True, eq=False)
class Records:
    """One graph's records as CSR: record v, its center first, is
    ``ids[offsets[v]:offsets[v + 1]]``. It supports ``len``, indexing (a record
    is an int32 array) and iteration; two are equal when their records are."""

    ids: np.ndarray         # (total,) int32 node ids, record after record
    offsets: np.ndarray     # (n + 1,) int64 record starts, from 0

    @classmethod
    def from_lists(cls, lists) -> "Records":
        """The CSR of a sequence of node-id lists; an id outside int32 raises
        OverflowError."""
        sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        ids = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int32,
                          count=int(sizes.sum()))
        return cls(ids, np.concatenate([[0], np.cumsum(sizes)]))

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, v) -> np.ndarray:
        v = range(len(self))[v]
        return self.ids[self.offsets[v]:self.offsets[v + 1]]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return (np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.ids, other.ids))

    __hash__ = None


def sample_walks(g: Graph, v: int, cfg: WalkConfig,
                 rng: np.random.Generator) -> list[tuple[int, ...]]:
    """``walks_per_node`` uniform random walks of exactly ``walk_length`` steps.

    Every step picks a neighbor uniformly; an isolated start yields the
    empty list (a walker elsewhere can always backtrack, so it never
    strands mid-walk on an undirected graph). The picks are scalar
    ``rng.integers(0, degree)`` draws, step by step and walk by walk within
    a step: the stream and the walks of one ``rng.integers(0, degrees)``
    array call per step, at a fraction of its cost for a few walks.
    """
    if not (0 <= v < g.node_count):
        raise ValueError("start node out of range")
    offsets, neighbors = g.offsets, g.neighbors
    if offsets[v] == offsets[v + 1]:
        return []
    walks = [[int(v)] for _ in range(cfg.walks_per_node)]
    for _ in range(cfg.walk_length):
        for walk in walks:
            lo = offsets[walk[-1]]
            walk.append(int(neighbors[lo + rng.integers(0, offsets[walk[-1] + 1] - lo)]))
    return [tuple(walk) for walk in walks]


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
    walks, the nodes ``extract_dataset`` caches for it, as a list.

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
    return _first_visits(g.node_count, center, np.full(len(visits), v),
                         visits, cap)[0].tolist()


def _first_visits(n: int, centers: np.ndarray, visit_center: np.ndarray,
                  visit_node: np.ndarray, cap: int | None) -> Records:
    """Each center's record: itself, then the nodes it visits, first visits only.

    ``centers`` is ascending; every visit's center is one of them, and visits
    are listed center by center (``visit_center`` is non-decreasing), in visit
    order within each. A record keeps at most ``cap`` nodes, the earliest
    visited.
    """
    # each center goes just before its visits: after the visits of the centers
    # below it, and after the centers up to it before a visit
    at_center = np.searchsorted(visit_center, centers) + np.arange(len(centers))
    at_visit = np.arange(len(visit_center)) + np.searchsorted(centers, visit_center, "right")
    c = np.empty(len(centers) + len(visit_center), dtype=np.int64)
    x = np.empty_like(c)
    c[at_center], x[at_center] = centers, centers
    c[at_visit], x[at_visit] = visit_center, visit_node
    _, first = unique(c * n + x, return_index=True)
    first.sort()
    c, x = c[first], x[first]
    starts = np.searchsorted(c, centers, side="left")
    sizes = np.searchsorted(c, centers, side="right") - starts
    if cap is not None:
        x = x[np.arange(len(x)) - np.repeat(starts, sizes) < cap]
        sizes = np.minimum(sizes, cap)
    return Records(x.astype(np.int32), np.concatenate([[0], np.cumsum(sizes)]))


_BLOCK = 1 << 13     # walk rows expanded at a time
_MERGE = 1 << 14     # completed walks gathered before they merge into the table


def _label_bits(g: Graph, length: int) -> int:
    """Bits per packed pattern label: a length-l walk has at most
    min(n, l + 1) distinct nodes, labelled from 0."""
    return max(1, (min(g.node_count, length + 1) - 1).bit_length())


def _pattern_table(g: Graph, v: int, length: int, budget: int, bits: int,
                   keep: list | None = None, within: np.ndarray | None = None):
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
    Given ``within``, sorted distinct keys, the walks are counted against those
    keys alone, and the first completed block that holds a key outside them
    ends the enumeration: the result is then None.
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
    tally = None if within is None else np.zeros(len(within), dtype=np.int64)

    def add(block, depth):
        """Stack or count one block; False when it holds a key outside ``within``."""
        nonlocal table, tally, done, pending
        if depth < length:
            stack.append((depth, block, np.cumsum(g.degrees[block[0]]), 0))
            pending += len(block[0])
        elif within is not None:
            keys = _as_keys(block[3])
            at = np.searchsorted(within, keys)
            if not np.all(at < np.searchsorted(within, keys, side="right")):
                return False
            tally += np.bincount(at, minlength=len(within))
            done += len(keys)
        else:
            leaves.append(_as_keys(block[3]))
            if keep is not None:
                keep.append((leaves[-1], block[1]))
            done += len(block[0])
            if sum(map(len, leaves)) >= max(_MERGE, len(table[0]) // 2):
                table = _merge(table, leaves)
        if done + pending > budget:
            raise BudgetError("walk enumeration exceeded its budget")
        return True

    if not add((seen[:, 0].copy(), seen, np.ones(1, dtype=node), words), 0):
        return None
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
        if not add((nxt, seen, nseen, words), depth + 1):
            return None
    if within is not None:
        return within[tally > 0], tally[tally > 0]
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
    keys, counts = unique(np.concatenate(leaves), return_counts=True)
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


def _walk_counts(g: Graph, length: int, budget: int) -> np.ndarray:
    """The length-l walks from every node, A^length 1, in int64, each count
    saturating at ``budget + 1`` (object ints when a step's sums could pass int64)."""
    cap = budget + 1
    exact = cap * max(1, len(g.neighbors)) < 2**63
    x = np.ones(g.node_count, dtype=np.int64 if exact else object)
    for _ in range(length):
        c = np.concatenate([[0], np.cumsum(x[g.neighbors])])
        x = np.minimum(c[g.offsets[1:]] - c[g.offsets[:-1]], cap)
    return x


def walk_distributions_distinguish(g: Graph, v: int, h: Graph, vp: int,
                                   length: int, budget: int = 10**7) -> bool:
    """True iff the normalized anonymous-walk distributions differ exactly.

    Compares by integer cross-multiplication, so there is no tolerance to
    tune; isomorphic rooted graphs always compare equal. BudgetError is
    raised iff either root has more than ``budget`` walks. The root with
    fewer walks is enumerated in full, the other against its patterns
    alone, and that enumeration ends at the first pattern the first lacks.
    """
    if not (0 <= v < g.node_count):
        raise ValueError("start node out of range")
    if length < 0:
        raise ValueError(f"walk length must be >= 0, got {length}")
    if not (0 <= vp < h.node_count):
        raise ValueError("start node out of range")
    t1 = int(_walk_counts(g, length, budget)[v])
    t2 = int(_walk_counts(h, length, budget)[vp])
    if max(t1, t2) > budget:
        raise BudgetError("walk enumeration exceeded its budget")
    if t1 == 0 or t2 == 0:
        return (t1 == 0) != (t2 == 0)
    bits = max(_label_bits(g, length), _label_bits(h, length))
    if t2 < t1:
        g, v, t1, h, vp, t2 = h, vp, t2, g, v, t1
    k1, c1 = _pattern_table(g, v, length, budget, bits)
    rest = _pattern_table(h, vp, length, budget, bits, within=k1)
    if rest is None:
        return True
    # both tables are sorted and hold only positive counts, so the
    # distributions agree only where the keys agree one for one
    k2, c2 = rest
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
    # records[g][v] = parent ids (center first) for node v of graph g
    records: list[Records]
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
    where numpy rejects u and draws again. That threshold is below d, so it is
    computed only for the draws whose low bits fall below d, about d in 2^32.
    ``ptr`` (r,) is each row's next unread index into ``stream`` (r, k).
    Returns the draws, the advanced pointers, and which rows hit a rejection
    (their draws are then wrong from that value on).
    """
    used = high > 1
    idx = ptr[:, None] + np.cumsum(used, axis=1) - used
    # a d = 1 position may point one past the end; its value is never used
    k = stream.shape[1]
    u = stream.ravel()[np.minimum(idx, k - 1) + (np.arange(len(ptr)) * k)[:, None]]
    d = high.astype(np.uint64)
    m = u * d
    low, d = (m & _LOW32).ravel(), d.ravel()
    near = np.flatnonzero(used.ravel() & (low < d))
    near = near[low[near] < (np.uint64(2**32) - d[near]) % d[near]]
    rejected = np.zeros(len(ptr), dtype=bool)
    rejected[near // high.shape[1]] = True
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
    """``to_anonymous`` of every row of a (m, L + 1) walk array, column by
    column: a node met in an earlier column takes that column's label, a new
    one the count of distinct nodes before it. Column t is compared with the
    t before it only, so no (m, L + 1, L + 1) table is formed."""
    cols = np.ascontiguousarray(walks.T)
    labels = np.zeros(cols.shape, dtype=np.int64)
    distinct = np.ones(cols.shape[1], dtype=np.int64)
    for t in range(1, len(cols)):
        label = distinct.copy()
        for j in range(t):
            np.copyto(label, labels[j], where=cols[j] == cols[t])
        labels[t] = label
        distinct += label == distinct
    return labels.T


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
        words = substream_words(cfg.seed, np.stack([np.full_like(nodes, graph_idx), nodes], 1),
                                count)
        walks = _walks_from_words(g, graph_idx, cfg, nodes, words).reshape(-1, length + 1)
        bits = _label_bits(g, length)
        keys, inverse, counts = unique(_pack(_anonymize(walks)[:, 1:], bits),
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
    """Write ``cache`` as text: a header, then per graph its 'g' line, its
    pattern table as 'p' lines and its records as 'v' lines (``_v_lines``)."""
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
        buf.write(_v_lines(recs))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_write(path) as f:
        f.write(buf.getvalue())


_NL, _SPACE, _MINUS, _ZERO, _NINE, _V = b"\n -09v"
_TENS = 10 ** np.arange(1, 10)     # an int32 id has at most 10 digits


def _v_lines(records: Records) -> str:
    """The 'v' lines of one graph's records, each "v " and its ids joined by
    single spaces, written in one uint8 pass: line after line, a "v", a space
    and the id's digits (after a "-" when negative) per id, or a space when the
    record is empty, then a newline. Positions come from cumulative widths and
    the digits from repeated divmod, last digit first."""
    ids = records.ids.astype(np.int64)
    q = np.abs(ids)
    digits = np.searchsorted(_TENS, q, side="right") + 1
    widths = np.concatenate([[0], np.cumsum(1 + (ids < 0) + digits)])
    sizes = records.sizes
    spans = widths[records.offsets[1:]] - widths[records.offsets[:-1]]
    lines = 2 + spans + (sizes == 0)                 # "v", the ids or a space, "\n"
    starts = np.concatenate([[0], np.cumsum(lines)])
    buf = np.full(starts[-1], _SPACE, dtype=np.uint8)
    buf[starts[:-1]] = _V
    buf[starts[1:] - 1] = _NL
    # each id's last digit: its line's start plus the widths before it and its own
    at = np.repeat(starts[:-1] - widths[records.offsets[:-1]], sizes) + widths[1:]
    buf[(at - digits)[ids < 0]] = _MINUS
    while len(at):
        q, r = np.divmod(q, 10)
        buf[at] = r + _ZERO
        more = q > 0
        at, q = at[more] - 1, q[more]
    return buf.tobytes().decode("ascii")


_INT = "(?:0|[1-9][0-9]*)"
_P_LINE = re.compile(f"p ({_INT}(?:,{_INT})*) ({_INT})")
_ID_MAX = str(np.iinfo(np.int32).max).encode()    # record ids are int32


def load_cache(path: str) -> SubgraphCache:
    """Read a cache written by save_cache; a line in any other form raises
    FormatError naming ``path:line``, the first such line in the file."""
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
    tables: list[list[tuple[tuple[int, ...], int]]] = []
    v_lines: list[list[str]] = []       # each graph's 'v' lines and their numbers
    v_numbers: list[list[int]] = []
    problem = None
    for ln, line in enumerate(lines[2:], start=3):
        if line.startswith("g "):
            tables.append([])
            v_lines.append([])
            v_numbers.append([])
        elif line.startswith(("p ", "v ")) and not tables:
            problem = f"{ln}: {line[0]!r} line before the first graph line"
        elif line[:2] == "v ":
            v_lines[-1].append(line)
            v_numbers[-1].append(ln)
        elif line[:2] == "p ":
            match = _P_LINE.fullmatch(line)
            if match is None:
                problem = f"{ln}: malformed 'p' line {line!r}"
            else:
                tables[-1].append((tuple(map(int, match[1].split(","))), int(match[2])))
        elif line:
            problem = f"{ln}: unrecognized cache line {line!r}"
        if problem:
            break
    # every 'v' line read precedes the problem line, so it is checked first
    records = list(map(_read_records, itertools.repeat(path), v_lines, v_numbers))
    if problem:
        raise FormatError(f"{path}:{problem}")
    return SubgraphCache(dataset_name=header["dataset"], cfg=cfg,
                         records=records, pattern_tables=tables)


def _read_records(path: str, lines: list[str], numbers: list[int]) -> Records:
    """The records of one graph's 'v' lines, read in array passes over their bytes.

    A line holds "v ", then ids joined by single spaces, each "0" or a digit
    run with no leading zero, with "-" before it at most, of magnitude within
    int32. The first line that does not raises FormatError naming
    ``numbers[i]``.
    """
    b = np.frombuffer(("\n".join(lines) + "\n").encode(), dtype=np.uint8)
    prev, nxt = np.roll(b, 1), np.roll(b, -1)      # b ends with a newline
    digit = (b >= _ZERO) & (b <= _NINE)
    prev_digit, next_digit = np.roll(digit, 1), np.roll(digit, -1)
    # "v" opens a line; a space follows "v" or an id and starts an id, or
    # closes an empty record; "-" starts an id; an id has no leading zero
    ok = ((b == _NL) | (b == _V) & (prev == _NL)
          | (b == _SPACE) & ((prev == _V) | prev_digit)
          & (next_digit | (nxt == _MINUS) | (prev == _V) & (nxt == _NL))
          | (b == _MINUS) & (prev == _SPACE) & next_digit & (nxt != _ZERO)
          | digit & (prev_digit | (prev == _SPACE) | (prev == _MINUS))
          & ~((b == _ZERO) & ~prev_digit & next_digit))
    starts = np.flatnonzero(digit & ~prev_digit)
    length = np.flatnonzero(digit & ~next_digit) + 1 - starts
    digits = len(_ID_MAX)
    wide = starts[length == digits]     # within int32 when not above its maximum
    over = wide[b[wide[:, None] + np.arange(digits)].view(f"S{digits}").ravel() > _ID_MAX]
    bad = np.concatenate([np.flatnonzero(~ok), starts[length > digits], over])
    newlines = np.flatnonzero(b == _NL)
    if len(bad):
        i = int(np.searchsorted(newlines, bad.min()))
        raise FormatError(f"{path}:{numbers[i]}: malformed 'v' line {lines[i]!r}")
    sizes = np.bincount(np.searchsorted(newlines, starts), minlength=len(lines))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if not len(starts):     # fromstring reads text without ids as [0]
        return Records(np.zeros(0, dtype=np.int32), offsets)
    text = np.where(b == _V, _SPACE, b).tobytes()
    return Records(np.fromstring(text, dtype=np.int32, sep=" "), offsets)
