"""Walk-count graph kernels: discrete, feature-weighted, and hidden-graph forms.

The p-step kernel counts simultaneous walks on two graphs. The discrete
form sums entries of powers of the product-graph adjacency; the
feature-weighted form contracts those counts against node-feature dot
products without ever materializing the product graph; the hidden-graph
form evaluates the same bilinear form against a small learnable graph and
comes with analytic gradients. Its batched engine is here whole: the plan
of a group of subgraphs (``NodeGroup``, made only by ``NodeGroup.build``,
each subgraph's adjacency entries kept as a row CSR) and one pair,
``group_values`` and ``group_values_backward``, that runs either order,
subgraph moments or padded, from W and Z to dW and dZ. ``rwk_hidden_grad``
runs it on the plan of one record that holds every node of a graph.

All kernel math runs in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, direct_product
from .util import BudgetError, unique

STEP_MODES = ("single-p", "sum-over-p", "concat-over-p")


@dataclass(frozen=True)
class KernelConfig:
    """Step count, per-step weights, and how steps enter the feature map.

    ``lambdas`` has length ``max_step + 1`` (index p weighs the p-step
    term); the step-0 term is used only by the discrete kernel, never by
    the per-step feature map, which runs over p = 1..max_step in every
    step mode.
    """

    max_step: int = 3
    lambdas: tuple = None
    step_mode: str = "concat-over-p"

    def __post_init__(self):
        if self.max_step < 1:
            raise ValueError("max_step must be >= 1")
        lam = self.lambdas
        if lam is None:
            lam = (1.0,) * (self.max_step + 1)
        lam = tuple(float(x) for x in lam)
        if len(lam) != self.max_step + 1:
            raise ValueError("lambdas must have length max_step + 1")
        if not all(0.0 <= x < np.inf for x in lam):     # NaN fails both
            raise ValueError("lambdas must be finite and non-negative")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}")
        object.__setattr__(self, "lambdas", lam)

    @staticmethod
    def geometric(max_step: int, decay: float, step_mode: str = "concat-over-p") -> "KernelConfig":
        try:
            lam = tuple(decay ** p for p in range(max_step + 1))
        except OverflowError:       # a power past the float range
            raise ValueError("lambdas must be finite and non-negative") from None
        return KernelConfig(max_step, lam, step_mode)

    @property
    def feature_width(self) -> int:
        """Kernel features contributed per hidden graph."""
        return self.max_step if self.step_mode == "concat-over-p" else 1

    @property
    def step_weights(self) -> np.ndarray:
        """(max_step, feature_width) map from the step values p = 1..max_step of
        one hidden graph to its features, built from ``lambdas[1:]``."""
        lam = np.diag(self.lambdas[1:])
        if self.step_mode == "sum-over-p":
            return lam.sum(axis=1, keepdims=True)
        return lam if self.step_mode == "concat-over-p" else lam[:, -1:]


@dataclass
class HiddenGraph:
    """Small learnable structure probe: raw weights W and features Z.

    The effective adjacency is the rectified symmetrization of W with a
    zero diagonal, so it is always non-negative, symmetric and loop-free.
    """

    W: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.Z = np.asarray(self.Z, dtype=np.float64)
        if self.W.ndim != 2 or self.W.shape[0] != self.W.shape[1]:
            raise ValueError("W must be square")
        if self.W.shape[0] < 1:
            raise ValueError("hidden graph needs at least one node")
        if self.Z.ndim != 2 or self.Z.shape[0] != self.W.shape[0]:
            raise ValueError("Z must have one row per hidden node")

    @property
    def size(self) -> int:
        return self.W.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.Z.shape[1]

    def effective_adjacency(self) -> np.ndarray:
        return _rectify(self.W)

    def as_graph(self) -> Graph:
        """Materialize the rectified adjacency as a graph (weights > 0 become edges)."""
        r = self.effective_adjacency()
        edges = [(i, j) for i in range(self.size) for j in range(i + 1, self.size) if r[i, j] > 0]
        return Graph.from_edges(self.size, edges, features=self.Z.copy())


@dataclass(frozen=True)
class KernelGrad:
    """Kernel value together with its gradients w.r.t. the hidden graph."""

    value: float
    d_W: np.ndarray
    d_Z: np.ndarray


# -- discrete kernel and its enumeration oracle -------------------------

def walk_pair_counts(g: Graph, h: Graph, max_p: int) -> list[int]:
    """Total p-step walk-pair counts for p = 0..max_p, from one chain of
    integer powers of the product adjacency."""
    prod = direct_product(g, h)
    a = prod.adjacency_dense(dtype=np.int64)
    power = np.eye(prod.node_count, dtype=np.int64)
    counts = [prod.node_count]
    for _ in range(max_p):
        power = power @ a
        counts.append(int(power.sum()))
    return counts


def rwk_discrete(g: Graph, h: Graph, cfg: KernelConfig) -> float:
    """Sum over p of lambda_p times the total p-step walk-pair count.

    The counts are exact integers, so values are exact whenever the
    weights are exact.
    """
    counts = walk_pair_counts(g, h, cfg.max_step)
    total = cfg.lambdas[0] * float(counts[0])
    for p in range(1, cfg.max_step + 1):
        total += cfg.lambdas[p] * float(counts[p])
    return total


_BLOCK = 1 << 13     # walk-pair rows expanded at a time


def _oracle_counts(g: Graph, h: Graph, max_p: int, budget: int) -> list[int]:
    """Counts of simultaneous walk pairs for every length 0..max_p.

    Walks both graphs in tandem: every walk pair is a row (u, u') that
    expands to its children in nbr_g[u] x nbr_h[u'] through the two CSRs,
    level by level, depth-first over blocks of at most ``_BLOCK`` children.
    A block of rows adds its children's count, deg_g(u) deg_h(u') summed, to
    the next level's when it is made; rows at depth max_p - 1 stop there, as
    their children would expand no further. No product graph, adjacency or
    power anywhere. Raises BudgetError once the rows over all depths exceed
    ``budget``: the counts only grow, so that is iff their final sum does.
    """
    n, m = g.node_count, h.node_count
    deg_g, deg_h = g.degrees, h.degrees
    counts = [n * m] + [0] * max_p
    if n * m > budget:
        raise BudgetError("walk-pair enumeration exceeded its budget")
    if max_p == 0:
        return counts
    stack = []

    def push(u, up, depth):
        kids = deg_g[u] * deg_h[up]
        made = int(kids.sum())
        counts[depth + 1] += made
        if sum(counts) > budget:
            raise BudgetError("walk-pair enumeration exceeded its budget")
        if depth + 1 < max_p and made:
            stack.append((depth, u, up, np.cumsum(kids), 0))

    push(np.repeat(np.arange(n), m), np.tile(np.arange(m), n), 0)
    while stack:
        depth, u, up, cum, lo = stack.pop()
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + _BLOCK, side="right")))
        if hi < len(cum):
            stack.append((depth, u, up, cum, hi))
        kids = np.diff(cum[lo:hi], prepend=base)
        src = np.repeat(np.arange(lo, hi), kids)
        # child k of row r steps to neighbor k // deg_h(u'_r) of u_r and k % deg_h(u'_r) of u'_r
        k = np.arange(len(src)) - np.repeat(cum[lo:hi] - base - kids, kids)
        i, j = np.divmod(k, deg_h[up[src]])
        push(g.neighbors[g.offsets[u[src]] + i], h.neighbors[h.offsets[up[src]] + j], depth + 1)
    return counts


def rwk_oracle(g: Graph, h: Graph, p: int, budget: int = 10**7) -> int:
    """Exact p-step walk-pair count by explicit simultaneous enumeration."""
    if p < 0:
        raise ValueError("p must be non-negative")
    return _oracle_counts(g, h, p, budget)[p]


# -- feature-weighted kernel --------------------------------------------

def rwk_diff(g: Graph, h: Graph, p: int) -> float:
    """Feature-weighted p-step kernel, computed as <T, A^p T B^p>.

    T is the cross-graph feature-similarity matrix X X'^T; the product
    adjacency is never materialized.
    """
    if g.feature_dim != h.feature_dim:
        raise ValueError("feature dimensions must match")
    t = g.features @ h.features.T
    a = g.adjacency_dense()
    b = h.adjacency_dense()
    m = t
    for _ in range(p):
        m = a @ m @ b
    return float(np.sum(t * m))


# -- hidden-graph kernel with analytic gradients ------------------------

def _checked_features(g: Graph, hidden: HiddenGraph) -> np.ndarray:
    if g.feature_dim != hidden.feature_dim:
        raise ValueError("feature dimensions must match")
    return g.features


def rwk_hidden(g: Graph, hidden: HiddenGraph, p: int) -> float:
    """p-step kernel between a (sub)graph and a hidden graph.

    Evaluates sum(T * (R^p T A^p)) with R the rectified hidden adjacency,
    applying A step by step rather than forming its power.
    """
    a, r = g.adjacency_dense(), hidden.effective_adjacency()
    m = t = hidden.Z @ _checked_features(g, hidden).T
    for _ in range(p):
        m = r @ m @ a
    return float(np.sum(t * m))


def rwk_hidden_grad(g: Graph, hidden: HiddenGraph, p: int) -> KernelGrad:
    """Kernel value plus d/dW and d/dZ through rectification and symmetrization.

    The engine's pair in the padded order, on the plan of one record that
    holds every node of the (sub)graph. The rectifier contributes subgradient
    0 at its kink, and the forced-zero diagonal never receives gradient. A
    graph with no nodes has value 0 and zero gradients, as ``rwk_hidden`` has.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    _checked_features(g, hidden)
    n = g.node_count
    if n == 0:
        return KernelGrad(0.0, np.zeros_like(hidden.W), np.zeros_like(hidden.Z))
    group = NodeGroup.build(g, np.arange(n, dtype=np.int32), np.array([0, n]), [0])
    vals, cache = group_values(hidden.W[None], hidden.Z[None], group, p)
    dvals = np.eye(p)[-1].reshape(vals.shape)       # e_p: the step-p value alone
    d_w, d_z = group_values_backward(group, dvals, cache)
    return KernelGrad(value=float(vals[0, 0, -1]), d_W=d_w[0], d_Z=d_z[0])


# -- the batched engine's two orders: N hidden graphs, raw weights W (N, s, s)
# and features Z (N, s, f), against a group of B zero-padded subgraphs ---------

def _rectify(w: np.ndarray) -> np.ndarray:
    """The effective adjacency of raw weights (..., s, s): the rectified
    symmetrization with a zero diagonal."""
    r = np.maximum(0.0, 0.5 * (w + np.swapaxes(w, -1, -2)))
    idx = np.arange(w.shape[-1])
    r[..., idx, idx] = 0.0
    return r


def _rectified_powers(w: np.ndarray, p_max: int) -> np.ndarray:
    """R^0..R^p_max of the rectified adjacencies of W (N, s, s), (p+1, N, s, s)."""
    r = _rectify(w)
    pows = np.empty((p_max + 1,) + r.shape)
    pows[0] = np.eye(w.shape[-1])
    for q in range(p_max):
        np.matmul(pows[q], r, out=pows[q + 1])
    return pows


def _weight_backward(w: np.ndarray, r_pows: np.ndarray, d_rq: np.ndarray) -> np.ndarray:
    """dW from the dR^q, back through the power chain, rectifier and symmetrization."""
    d_r = np.zeros(w.shape)
    for q in range(1, len(d_rq) + 1):
        for k in range(q):
            d_r += np.matmul(r_pows[k], np.matmul(d_rq[q - 1], r_pows[q - 1 - k]))
    # the rectified entries that are positive: off the diagonal, with W + W^T > 0
    g_sym = d_r * (_rectify(w) > 0)
    return 0.5 * (g_sym + np.swapaxes(g_sym, -1, -2))


def group_moments(adj: np.ndarray, basis: np.ndarray, max_step: int) -> np.ndarray:
    """Subgraph moments M[q-1, b] = X_b^T A_b^q X_b for q = 1..max_step, X_b
    the (nmax, r) slot coordinates of row b in the moment basis (``_slot_basis``).

    Shape (max_step, B, r, r). A_b is symmetric, so M_q = Y_{floor(q/2)}^T
    Y_{ceil(q/2)} with Y_k = A_b^k X_b takes ceil(max_step/2) propagations.
    They hold no parameter, so one evaluation serves every expert the group
    is routed to.
    """
    out = np.empty((max_step,) + basis.shape[:1] + basis.shape[2:] * 2)
    y = basis
    for q in range(1, max_step + 1):
        left = y                        # odd q: Y_{k-1}^T Y_k, even q: Y_k^T Y_k
        if q % 2:
            y = np.matmul(adj, y)
        np.matmul(left.transpose(0, 2, 1), y, out=out[q - 1])
    return out


_BLOCK_BYTES = 1 << 21     # float64 bytes of one block of rows


def _row_blocks(count: int, row_bytes: int):
    """(lo, hi) for each block of ``count`` rows of ``row_bytes`` bytes each: as
    many rows as keep a block under ``_BLOCK_BYTES``, at least one."""
    step = max(1, _BLOCK_BYTES // max(1, row_bytes))
    for lo in range(0, count, step):
        yield lo, min(count, lo + step)


BUCKET = 8      # the moment order pads each row to its size rounded up to this


def _slot_basis(group: NodeGroup, local: np.ndarray) -> np.ndarray:
    """(rows, width, min(U, f)) slot coordinates in the moment basis of the slots
    ``local`` indexes: the one-hot C of each slot's row when U < f, else the
    features."""
    u = len(group.row_nodes)
    if u >= group.width:
        return group.feature_rows(local)
    c = np.zeros(local.shape + (u,))
    slots = np.flatnonzero(local < u)
    c.reshape(-1)[slots * u + local.reshape(-1)[slots]] = 1.0
    return c


@dataclass
class NodeGroup:
    """The plan of one engine unit, the only input of the hidden-graph kernel:
    the subgraphs of a group of rows as compact index arrays. It holds no model
    parameter, so one plan serves every model and every pass; a pass builds the
    dense arrays it needs from it and drops them when it ends.

    Row b's slot j holds row ``local[b, j]`` of X_u, the U distinct feature
    rows (gathered from ``features`` through ``row_nodes``) and then a zero row.
    The moment order works in the smaller of two bases, X_b = C_b E: with E
    the U distinct rows and C_b the one-hot of ``local[b]`` when U < f, else
    with E the identity and C_b = X_b.
    """

    features: np.ndarray    # (n, f) the parent graph's features
    row_nodes: np.ndarray   # (U,) a node holding each distinct feature row
    local: np.ndarray       # (B, nmax) int32 rows of X_u; padding points at the zero row
    sizes: np.ndarray       # (B,) true subgraph sizes
    edges: np.ndarray       # (E,) the ones of each A_b as i * nmax + j, row after row
    edge_offsets: np.ndarray  # (B + 1,) row b's entries: edges[offsets[b]:offsets[b + 1]]
    agg: np.ndarray | None = None   # (B, f) gate aggregates (moe.build_group)

    @staticmethod
    def build(g: Graph, ids: np.ndarray, offsets: np.ndarray, node_ids) -> "NodeGroup":
        """The plan of records ``node_ids`` of ``g``, from its records as a CSR:
        record v, which fills row v's slots in order, is ``ids[offsets[v]:offsets[v
        + 1]]``; its features are the distinct rows of ``g.feature_rows``. Each
        record node's CSR neighbours read their slots from a (row, node) table of
        slot positions, -1 off the row's record, filled a block of rows at a time
        under ``_BLOCK_BYTES``, so no array is sized by B x n or by U. The codes i
        * nmax + j are kept in the smallest unsigned dtype that holds nmax^2 - 1.
        A plan of no records raises ValueError."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids) == 0:
            raise ValueError("the plan has no records")
        starts = offsets[node_ids]
        sizes = offsets[node_ids + 1] - starts
        b, nmax = len(sizes), int(sizes.max())
        valid = np.arange(nmax)[None, :] < sizes[:, None]
        slots = np.concatenate([[0], np.cumsum(sizes)])     # row r: slots[r]:slots[r + 1]
        flat = ids[np.arange(slots[-1]) + np.repeat(starts - slots[:-1], sizes)]
        first, row_of = g.feature_rows
        classes, cls_of = unique(row_of[flat], return_inverse=True)
        local = np.full((b, nmax), len(classes), dtype=np.int32)
        local[valid] = cls_of
        row, pos = np.nonzero(valid)            # the slots, in ``flat``'s order
        # the CSR rows of the slots' nodes, concatenated
        deg = g.degrees[flat]
        ends = np.cumsum(deg)
        nbr = g.neighbors[np.arange(ends[-1]) + np.repeat(g.offsets[flat] - ends + deg, deg)]
        entries = np.concatenate([[0], ends])[slots]                   # row r's neighbours
        found = np.empty(len(nbr), dtype=np.min_scalar_type(-nmax))    # -1 and every position
        blocks = list(_row_blocks(b, g.node_count * found.itemsize))
        table = np.full(blocks[0][1] * g.node_count, -1, dtype=found.dtype)  # the largest block
        for lo, hi in blocks:
            s0, s1, e0, e1 = slots[lo], slots[hi], entries[lo], entries[hi]
            at = (row[s0:s1] - lo) * g.node_count          # each slot's row of the table
            cells = at + flat[s0:s1]
            table[cells] = pos[s0:s1]
            cell_of = np.repeat(at, deg[s0:s1])
            cell_of += nbr[e0:e1]
            np.take(table, cell_of, out=found[e0:e1])
            table[cells] = -1
        del table, cell_of                      # freed before the phase's largest arrays
        kept = np.flatnonzero(found >= 0)       # the neighbours in their row's record
        codes = np.repeat(pos * nmax, deg)[kept] + found[kept]
        return NodeGroup(features=g.features, row_nodes=first[classes], local=local,
                         sizes=sizes, edges=codes.astype(np.min_scalar_type(nmax * nmax - 1)),
                         edge_offsets=np.searchsorted(kept, entries))   # rows' first kept

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def distinct(self) -> int:
        """U + 1: the rows of X_u."""
        return len(self.row_nodes) + 1

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def feature_rows(self, ids: np.ndarray) -> np.ndarray:
        """Rows ``ids`` of X_u (any shape of ids), gathered straight from
        ``features``: id U reads the zero row."""
        u = len(self.row_nodes)
        rows = self.features[self.row_nodes[np.minimum(ids, u - 1)]]      # one allocation
        rows[ids >= u] = 0.0
        return rows

    def buckets(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(widths, rows): each row's bucket width, its size rounded up to a
        multiple of BUCKET and at most nmax, and the rows of each bucket in
        ascending width, each in row order."""
        widths = np.minimum(-(-self.sizes // BUCKET) * BUCKET, self.local.shape[1])
        return widths, [np.flatnonzero(widths == w) for w in unique(widths)]

    @property
    def adj(self) -> np.ndarray:
        """(B, nmax, nmax) zero-padded dense float64 adjacencies, built per use."""
        return self.padded_adjacency(np.float64)

    def padded_adjacency(self, dtype, rows: np.ndarray | None = None,
                         width: int | None = None) -> np.ndarray:
        """(len(rows), width, width) zero-padded dense adjacencies of ``dtype`` of
        the given rows (default: all), in that order; ``width`` (default nmax)
        must hold each row's size. Their entries are 0 and 1, so every dtype
        holds them exactly."""
        nmax = self.local.shape[1]
        rows = np.arange(self.count) if rows is None else rows
        width = nmax if width is None else width
        starts = self.edge_offsets[rows]
        counts = self.edge_offsets[rows + 1] - starts
        at = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        i, j = np.divmod(self.edges[np.arange(len(at)) + at], nmax)
        adj = np.zeros((len(rows), width, width), dtype=dtype)
        np.put(adj, (np.repeat(np.arange(len(rows)) * width, counts) + i) * width + j, 1)
        return adj

    @property
    def feats(self) -> np.ndarray:
        """(B, nmax, f) zero-padded features, gathered per use."""
        return self.feature_rows(self.local)

    @property
    def basis_rows(self) -> np.ndarray:
        """E, the (min(U, f), f) rows the moment basis expands into: the U
        distinct rows when U < f, else the identity."""
        u = len(self.row_nodes)
        return self.features[self.row_nodes] if u < self.width else np.eye(self.width)

    def fits_moments(self, max_step: int, hidden: int) -> bool:
        """Whether the moment order holds no more per row than the padded order:
        max_step * min(U, f)^2 moment values against nmax * (nmax + hidden), a
        row's padded adjacency and its T = Z X_b^T for ``hidden`` = N * s hidden
        nodes (``group_forward`` passes the largest expert's,
        ``ExpertBank.hidden_nodes``)."""
        nmax = self.local.shape[1]
        width = min(len(self.row_nodes), self.width)
        return max_step * width * width <= nmax * (nmax + hidden)

    def moments(self, max_step: int) -> np.ndarray:
        """group_moments of every row, (max_step, B, r, r), bucket by bucket:
        each bucket's rows are padded to its width alone, and their moments
        scattered back in row order. Padding adds only zero terms, so each
        row's moments are those of its full-nmax padding."""
        r = min(len(self.row_nodes), self.width)
        out = np.empty((max_step, self.count, r, r))
        widths, buckets = self.buckets()
        for rows in buckets:
            w = int(widths[rows[0]])
            out[:, rows] = group_moments(self.padded_adjacency(np.float64, rows, w),
                                         _slot_basis(self, self.local[rows, :w]), max_step)
        return out


def _padded_blocks(proj: np.ndarray, group: NodeGroup, rows: np.ndarray):
    """(lo, hi, A, T) for each block of ``rows`` in turn, at positions lo:hi of
    ``rows``: as many rows as keep the block's float64 adjacencies (B_k, nmax,
    nmax) and T, gathered from P through ``group.local`` as (B_k, N*s, nmax)
    and contiguous for the propagations, under ``_BLOCK_BYTES``."""
    nmax = group.local.shape[1]
    for lo, hi in _row_blocks(len(rows), 8 * nmax * (nmax + proj.shape[1])):
        at = rows[lo:hi]
        t = np.ascontiguousarray(np.take(proj, group.local[at], axis=0).transpose(0, 2, 1))
        yield lo, hi, group.padded_adjacency(np.float64, at), t


def _project(group: NodeGroup, z: np.ndarray) -> np.ndarray:
    """P = X_u Z^T, (U + 1, N*s), over the distinct rows of ``group``, gathered a
    block of rows at a time."""
    z = z.reshape(-1, z.shape[-1])
    proj = np.empty((group.distinct, len(z)))
    for lo, hi in _row_blocks(len(proj), 8 * z.shape[1]):
        np.matmul(group.feature_rows(np.arange(lo, hi)), z.T, out=proj[lo:hi])
    return proj


def _padded_forward(z: np.ndarray, r_pows: np.ndarray, group: NodeGroup,
                    rows: np.ndarray | None = None):
    """vals[b, i, q-1] = <R_i^q, C_q[b, i]> with C_q = T A_b^q T^T, T = Z_i X_b^T,
    for the rows ``rows`` of ``group`` (default: all).

    A_b is symmetric, so C_q = Y_{floor(q/2)} Y_{ceil(q/2)}^T with Y_k = T A_b^k
    takes ceil(p/2) propagations. P = X_u Z_i^T is projected for the distinct
    rows (``_project``) and T gathered from it through ``local``, whose padding
    reads a zero row. The rows run in blocks (``_padded_blocks``), so the
    float64 adjacencies and T exist for one block at a time; only P and the
    (p, B, N, s, s) C are kept.
    """
    n_hidden, s = z.shape[:2]
    rows = np.arange(len(group.local)) if rows is None else rows
    p_max = len(r_pows) - 1
    proj = _project(group, z)                                   # (U + 1, N*s)
    c = np.empty((p_max, len(rows), n_hidden, s, s))
    for lo, hi, a, y in _padded_blocks(proj, group, rows):
        blocks = (hi - lo, n_hidden, s, -1)     # two Y_k live at a time
        for q in range(1, p_max + 1):
            left = y                        # odd q: Y_{k-1} Y_k^T, even q: Y_k Y_k^T
            if q % 2:
                y = np.matmul(y, a)
            np.matmul(left.reshape(blocks), y.reshape(blocks).transpose(0, 1, 3, 2),
                      out=c[q - 1, lo:hi])
        del a, y, left      # before the next block's are gathered
    vals = (c * r_pows[1:, None]).sum(axis=(3, 4)).transpose(1, 2, 0)
    return vals, (proj, c)


def _adjoint_chain(w: np.ndarray, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """dT of one block, (B_k, N*s, nmax): S <- (S + w_q T) A for q = p..1, with
    w (p, B_k, N, s, s) the weights 2 dvals_q R^q."""
    blocks = w.shape[1:4] + (-1,)
    g, acc = np.empty(t.shape), np.zeros(t.shape)
    for q in range(len(w), 0, -1):
        np.matmul(w[q - 1], t.reshape(blocks), out=g.reshape(blocks))
        g += acc
        np.matmul(g, a, out=acc)
    return acc


def _padded_backward(r_pows: np.ndarray, group: NodeGroup, dvals: np.ndarray, state,
                     rows: np.ndarray | None = None):
    """Gradients on Z and on each R^q of the padded evaluation of ``rows``.

    dR^q = sum_b dvals[b, :, q] C_q[b]. Block by block, with T regathered from
    P, the adjoint chain S <- (S + G_q) A for q = p..1, G_q = 2 dvals_q R^q T,
    ends at dT; summed per distinct row (a segment sum over the slots sorted
    by ``local``) into dP, it gives dZ = dP^T X_u, summed over blocks of the
    rows the slots read.
    """
    proj, c = state
    n_hidden, s = c.shape[2:4]
    rows = np.arange(len(group.local)) if rows is None else rows
    dq = dvals.transpose(2, 0, 1)[..., None, None]              # (p, B, N, 1, 1)
    d_rq = (dq * c).sum(axis=1)
    w = 2.0 * dq * r_pows[1:, None]
    keys = group.local[rows]
    order = np.argsort(keys, axis=None, kind="stable")
    starts = np.flatnonzero(np.diff(keys.ravel()[order], prepend=-1))
    # dT's (N*s, B, nmax) slots sorted by row: the segment sum reads it as it is
    sorted_at = np.empty(keys.shape, dtype=np.int32)
    sorted_at.ravel()[order] = np.arange(keys.size)
    dt = np.empty((n_hidden * s, keys.size))
    for lo, hi, a, t in _padded_blocks(proj, group, rows):
        dt[:, sorted_at[lo:hi]] = _adjoint_chain(w[:, lo:hi], a, t).transpose(1, 0, 2)
        del a, t            # before the next block's are gathered
    dproj = np.add.reduceat(dt, starts, axis=1)                 # (N*s, U')
    del dt
    ids = keys.ravel()[order[starts]]
    dz = np.zeros((len(dproj), group.width))
    for lo, hi in _row_blocks(len(ids), 8 * group.width):
        dz += dproj[:, lo:hi] @ group.feature_rows(ids[lo:hi])
    return dz.reshape(n_hidden, s, -1), d_rq


def _moment_forward(z: np.ndarray, r_pows: np.ndarray, moments: np.ndarray,
                    basis_rows: np.ndarray):
    """vals[b, i, q-1] = <Z_i^T R_i^q Z_i, M_q[b]>, one GEMM over the rows per step.

    Moments taken in the basis X = C E (E = ``basis_rows``) are K_q = C^T A^q C,
    and <Z^T R^q Z, E^T K_q E> = <Z'^T R^q Z', K_q> with Z' = Z E^T.
    """
    p_max, b, r = moments.shape[:3]
    zp = np.matmul(z, basis_rows.T)
    rz = np.matmul(r_pows[1:], zp)                              # (p, N, s, r)
    gram = np.matmul(zp.transpose(0, 2, 1), rz).reshape(p_max, -1, r * r)
    vals = np.matmul(moments.reshape(p_max, b, r * r), gram.transpose(0, 2, 1))
    return vals.transpose(1, 2, 0), rz


def _moment_backward(z: np.ndarray, moments: np.ndarray, dvals: np.ndarray, rz,
                     basis_rows: np.ndarray):
    """Gradients on Z and on each R^q of the moment evaluation.

    With Mbar_q = sum_b dvals[b, :, q] M_q[b], they are R^q Z' (Mbar_q + Mbar_q^T)
    summed over q, times E, and Z' Mbar_q Z'^T; the batch drops out of both.
    """
    p_max, b, r = moments.shape[:3]
    zp = np.matmul(z, basis_rows.T)
    mbar = np.matmul(dvals.transpose(2, 1, 0), moments.reshape(p_max, b, r * r))
    mbar = mbar.reshape(p_max, -1, r, r)
    dz = np.matmul(rz, mbar + mbar.transpose(0, 1, 3, 2)).sum(axis=0)
    d_rq = np.matmul(np.matmul(zp, mbar), zp.transpose(0, 2, 1))
    return np.matmul(dz, basis_rows), d_rq


# -- the engine's one forward/backward pair ------------------------------------

def group_values(W: np.ndarray, Z: np.ndarray, group: NodeGroup, max_step: int,
                 moments: np.ndarray | None = None, rows: np.ndarray | None = None):
    """(vals, cache): vals[b, i, q-1], the q-step kernel values of rows ``rows``
    of ``group`` (default: all) against the N hidden graphs of raw weights W (N,
    s, s) and features Z (N, s, f), for q = 1..max_step, and what
    ``group_values_backward`` reads. The values come from the group's
    ``moments`` (``NodeGroup.moments``) when given, else in the padded order;
    both orders give the same values up to rounding."""
    rows = np.arange(group.count) if rows is None else rows
    r_pows = _rectified_powers(W, max_step)
    if moments is None:
        vals, state = _padded_forward(Z, r_pows, group, rows)
    else:
        vals, state = _moment_forward(Z, r_pows, moments[:, rows], group.basis_rows)
    return vals, (W, Z, r_pows, moments, rows, state)


def group_values_backward(group: NodeGroup, dvals: np.ndarray, cache):
    """(dW, dZ) from the gradient ``dvals`` on the values of the
    ``group_values`` call that returned ``cache``."""
    w, z, r_pows, moments, rows, state = cache
    if moments is None:
        dz, d_rq = _padded_backward(r_pows, group, dvals, state, rows)
    else:
        dz, d_rq = _moment_backward(z, moments[:, rows], dvals, state, group.basis_rows)
    return _weight_backward(w, r_pows, d_rq), dz


# -- DOT export ------------------------------------------------------------

def hidden_graph_to_dot(hidden: HiddenGraph, name: str = "hidden",
                        prune_threshold: float = 0.01) -> str:
    """DOT text for the rectified adjacency; edge thickness tracks weight.

    Edges at or below the prune threshold are omitted. An empty graph still
    yields a valid DOT document with its nodes.
    """
    r = hidden.effective_adjacency()
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for i in range(hidden.size):
        lines.append(f"  n{i};")
    wmax = r.max() if r.size else 0.0
    for i in range(hidden.size):
        for j in range(i + 1, hidden.size):
            w = r[i, j]
            if w > prune_threshold:
                pen = 1.0 + 4.0 * (w / wmax if wmax > 0 else 0.0)
                lines.append(f'  n{i} -- n{j} [penwidth={pen:.3f}, label="{w:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
