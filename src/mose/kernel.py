"""Walk-count graph kernels: discrete, feature-weighted, and hidden-graph forms.

The p-step kernel counts simultaneous walks on two graphs. The discrete
form sums entries of powers of the product-graph adjacency; the
feature-weighted form contracts those counts against node-feature dot
products without ever materializing the product graph; the hidden-graph
form evaluates the same bilinear form against a small learnable graph and
comes with analytic gradients.

All kernel math runs in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, NodeSubgraph, direct_product
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
        r = np.maximum(0.0, 0.5 * (self.W + self.W.T))
        np.fill_diagonal(r, 0.0)
        return r

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

def _hidden_parts(sub: NodeSubgraph, hidden: HiddenGraph):
    a = sub.graph.adjacency_dense()
    x = sub.graph.features
    if x.shape[1] != hidden.feature_dim:
        raise ValueError("feature dimensions must match")
    r = hidden.effective_adjacency()
    t = hidden.Z @ x.T
    return a, x, r, t


def rwk_hidden(sub: NodeSubgraph, hidden: HiddenGraph, p: int) -> float:
    """p-step kernel between a subgraph and a hidden graph.

    Evaluates sum(T * (R^p T A^p)) with R the rectified hidden adjacency,
    applying A step by step rather than forming its power.
    """
    a, _, r, t = _hidden_parts(sub, hidden)
    m = t
    for _ in range(p):
        m = r @ m @ a
    return float(np.sum(t * m))


def rwk_hidden_grad(sub: NodeSubgraph, hidden: HiddenGraph, p: int) -> KernelGrad:
    """Kernel value plus d/dW and d/dZ through rectification and symmetrization.

    The rectifier contributes subgradient 0 at its kink, and the forced-zero
    diagonal never receives gradient.
    """
    a, x, r, t = _hidden_parts(sub, hidden)
    s = hidden.size
    # V_p = T A^p, R powers up to p
    v = t
    for _ in range(p):
        v = v @ a
    r_pows = [np.eye(s)]
    for _ in range(p):
        r_pows.append(r_pows[-1] @ r)
    c = v @ t.T                       # T A^p T^T, symmetric
    value = float(np.sum(r_pows[p] * c))
    d_z = 2.0 * (r_pows[p] @ v) @ x
    d_r = np.zeros((s, s))
    for k in range(p):
        d_r += r_pows[k] @ c @ r_pows[p - 1 - k]
    w_sym = 0.5 * (hidden.W + hidden.W.T)
    mask = (w_sym > 0).astype(np.float64)
    np.fill_diagonal(mask, 0.0)
    g_sym = d_r * mask
    d_w = 0.5 * (g_sym + g_sym.T)
    return KernelGrad(value=value, d_W=d_w, d_Z=d_z)


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
