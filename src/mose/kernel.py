"""Walk-count graph kernels: discrete, feature-weighted, and hidden-graph forms.

The p-step kernel counts simultaneous walks on two graphs. The discrete
form sums entries of powers of the product-graph adjacency; the
feature-weighted form contracts those counts against node-feature dot
products without ever materializing the product graph; the hidden-graph
form evaluates the same bilinear form against a small learnable graph and
comes with analytic gradients: the batched engine's two orders over a group
of padded subgraphs, whose padded order ``rwk_hidden_grad`` runs on one.

All kernel math runs in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, direct_product
from .util import BudgetError

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
        if any(x < 0 for x in lam):
            raise ValueError("lambdas must be non-negative")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}")
        object.__setattr__(self, "lambdas", lam)

    @staticmethod
    def geometric(max_step: int, decay: float, step_mode: str = "concat-over-p") -> "KernelConfig":
        return KernelConfig(max_step, tuple(decay ** p for p in range(max_step + 1)), step_mode)

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
    No product graph, adjacency or power anywhere. Raises BudgetError once
    the rows made over all depths exceed ``budget``; pending rows bound
    nothing, since a pair with an isolated factor node has no children.
    """
    n, m = g.node_count, h.node_count
    deg_g, deg_h = g.degrees, h.degrees
    counts = [n * m] + [0] * max_p
    if n * m > budget:
        raise BudgetError("walk-pair enumeration exceeded its budget")
    stack = []

    def push(u, up, depth):
        if depth < max_p and len(u):
            stack.append((depth, u, up, np.cumsum(deg_g[u] * deg_h[up]), 0))

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
        counts[depth + 1] += len(src)
        if sum(counts) > budget:
            raise BudgetError("walk-pair enumeration exceeded its budget")
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

    The engine's padded order on a one-row group of the whole (sub)graph. The
    rectifier contributes subgradient 0 at its kink, and the forced-zero
    diagonal never receives gradient.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    a, x = g.adjacency_dense()[None], _checked_features(g, hidden)
    w, local = hidden.W[None], np.arange(len(x))[None]
    r_pows = _rectified_powers(w, p)
    vals, state = _padded_forward(hidden.Z[None], r_pows, a, x, local)
    dvals = np.eye(p)[-1].reshape(vals.shape)       # e_p: the step-p value alone
    d_z, d_rq = _padded_backward(r_pows, a, x, local, dvals, state)
    return KernelGrad(value=float(vals[0, 0, -1]),
                      d_W=_weight_backward(w, r_pows, d_rq)[0], d_Z=d_z[0])


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
    the (nmax, r) slot coordinates of row b (``NodeGroup.basis``).

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


def _padded_forward(z: np.ndarray, r_pows: np.ndarray, adj: np.ndarray,
                    xu: np.ndarray, local: np.ndarray):
    """vals[b, i, q-1] = <R_i^q, C_q[b, i]> with C_q = T A_b^q T^T, T = Z_i X_b^T.

    A_b is symmetric, so C_q = Y_{floor(q/2)} Y_{ceil(q/2)}^T with Y_k = T A_b^k
    takes ceil(p/2) propagations. P = X_u Z_i^T is projected once for the
    distinct nodes and T gathered from it through ``local``, whose padding
    reads the zero row of ``xu``. Only P and the (p, B, N, s, s) C are kept.
    """
    n_hidden, s = z.shape[:2]
    b, p_max = adj.shape[0], len(r_pows) - 1
    proj = xu @ z.reshape(n_hidden * s, -1).T                   # (U+1, N*s)
    # T as (B, N*s, n), contiguous for the propagations; two Y_k live at a time
    y = np.ascontiguousarray(np.take(proj, local, axis=0).transpose(0, 2, 1))
    c, blocks = np.empty((p_max, b, n_hidden, s, s)), (b, n_hidden, s, -1)
    for q in range(1, p_max + 1):
        left = y                        # odd q: Y_{k-1} Y_k^T, even q: Y_k Y_k^T
        if q % 2:
            y = np.matmul(y, adj)
        np.matmul(left.reshape(blocks), y.reshape(blocks).transpose(0, 1, 3, 2),
                  out=c[q - 1])
    vals = (c * r_pows[1:, None]).sum(axis=(3, 4)).transpose(1, 2, 0)
    return vals, (proj, c)


def _padded_backward(r_pows: np.ndarray, adj: np.ndarray, xu: np.ndarray,
                     local: np.ndarray, dvals: np.ndarray, state):
    """Gradients on Z and on each R^q of the padded evaluation.

    dR^q = sum_b dvals[b, :, q] C_q[b]. With T regathered from P, the adjoint
    chain S <- (S + G_q) A for q = p..1, G_q = 2 dvals_q R^q T, ends at dT;
    summed per distinct node (a sort and a segment sum over ``local``) into
    dP, it gives dZ = dP^T X_u in one product.
    """
    proj, c = state
    p_max, b, n_hidden, s = c.shape[:4]
    dq = dvals.transpose(2, 0, 1)[..., None, None]              # (p, B, N, 1, 1)
    d_rq = (dq * c).sum(axis=1)
    t = np.ascontiguousarray(np.take(proj, local, axis=0).transpose(0, 2, 1))
    w, blocks = 2.0 * dq * r_pows[1:, None], (b, n_hidden, s, -1)
    g, dt = np.empty(t.shape), np.zeros(t.shape)
    for q in range(p_max, 0, -1):
        np.matmul(w[q - 1], t.reshape(blocks), out=g.reshape(blocks))
        g += dt
        np.matmul(g, adj, out=dt)
    del t, g    # before the sort's two copies of dT
    keys = local.ravel()
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    dt = dt.transpose(1, 0, 2).reshape(n_hidden * s, len(keys))
    dproj = np.add.reduceat(np.take(dt, order, axis=1), starts, axis=1)   # (N*s, U')
    dz = dproj @ xu[keys[order[starts]]]
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
