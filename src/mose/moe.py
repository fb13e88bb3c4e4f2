"""Subgraph-aware expert routing: gating, expert bank, combination, readout.

The batched group engine here gates, routes and embeds many nodes at once
with analytic backprop; the trainer is built on it. The tests pin it to a
single-node reference pipeline (tests/reference.py) that computes the same
quantities one subgraph at a time. The engine evaluates the hidden-graph
kernel in one of two orders, chosen per group from its array shapes
(NodeGroup.fits_moments): through subgraph moments shared by all experts,
or on the padded tensors. A group stores each distinct feature row once;
the moments are taken in the basis of those rows when there are fewer of
them than features, and in the features themselves otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import Graph
from .kernel import HiddenGraph, KernelConfig
from .nn import Mlp, relu, sigmoid, softmax, softplus
from .util import substream

GATE_ACTIVATIONS = {
    "relu": relu,
    "tanh": np.tanh,
    "identity": lambda x: x,
}


@dataclass
class GatingParams:
    """Clean and noisy score projections, one column per expert."""

    W_g: np.ndarray
    W_n: np.ndarray

    def __post_init__(self):
        self.W_g = np.asarray(self.W_g, dtype=np.float64)
        self.W_n = np.asarray(self.W_n, dtype=np.float64)
        if self.W_g.shape != self.W_n.shape:
            raise ValueError("W_g and W_n must have the same shape")
        if not (np.isfinite(self.W_g).all() and np.isfinite(self.W_n).all()):
            raise ValueError("gating parameters must be finite")

    @property
    def expert_count(self) -> int:
        return self.W_g.shape[1]


@dataclass
class Expert:
    """N hidden graphs of one size plus the expert's feed-forward map."""

    W: np.ndarray          # (N, s, s) raw hidden adjacencies
    Z: np.ndarray          # (N, s, f) hidden features
    transform: Mlp

    @property
    def size(self) -> int:
        return self.W.shape[1]

    @property
    def hidden_count(self) -> int:
        return self.W.shape[0]

    @property
    def hidden(self) -> list[HiddenGraph]:
        return [HiddenGraph(self.W[i], self.Z[i]) for i in range(self.hidden_count)]

    def rectified(self) -> np.ndarray:
        r = np.maximum(0.0, 0.5 * (self.W + self.W.transpose(0, 2, 1)))
        idx = np.arange(self.size)
        r[:, idx, idx] = 0.0
        return r


@dataclass
class ExpertBank:
    experts: list[Expert]

    def __post_init__(self):
        sizes = self.sizes
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("expert sizes must be strictly increasing")
        if len({e.transform.out_dim for e in self.experts}) != 1:
            raise ValueError("all expert transforms must share an output dimension")

    @property
    def sizes(self) -> tuple:
        return tuple(e.size for e in self.experts)

    @property
    def expert_count(self) -> int:
        return len(self.experts)


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to rebuild a model's shape (not its weights)."""

    feature_dim: int
    class_count: int
    experts: int = 5
    hidden_per_expert: int = 8
    embed_dim: int = 32
    k_ept: int = 2
    sizes: tuple | None = None   # default: 2 .. experts+1
    combine_mode: str = "weighted-sum"
    readout_mode: str = "mean"
    gate_activation: str = "relu"
    task: str = "graph"

    def __post_init__(self):
        if self.combine_mode not in ("weighted-sum", "concat"):
            raise ValueError("combine_mode must be weighted-sum or concat")
        if self.readout_mode not in ("mean", "sum", "max"):
            raise ValueError("readout_mode must be mean, sum or max")
        if self.gate_activation not in GATE_ACTIVATIONS:
            raise ValueError(f"gate_activation must be one of {sorted(GATE_ACTIVATIONS)}")
        if self.task not in ("graph", "node"):
            raise ValueError("task must be graph or node")
        if not (1 <= self.k_ept <= self.experts):
            raise ValueError("k_ept must lie in 1..experts")
        if self.hidden_per_expert < 1:
            raise ValueError("hidden_per_expert must be >= 1")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        sizes = self.sizes
        if sizes is None:
            sizes = tuple(range(2, self.experts + 2))
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) != self.experts:
            raise ValueError("need one hidden-graph size per expert")
        object.__setattr__(self, "sizes", sizes)


@dataclass
class MoseModel:
    gating: GatingParams
    bank: ExpertBank
    head: Mlp
    kernel_cfg: KernelConfig
    cfg: ModelConfig
    combine_mlp: Mlp | None = None
    seed: int = 0

    @property
    def expert_count(self) -> int:
        return self.bank.expert_count

    @property
    def embed_dim(self) -> int:
        return self.cfg.embed_dim

    def parameters(self) -> dict:
        out = {"gating.W_g": self.gating.W_g, "gating.W_n": self.gating.W_n}
        for k, e in enumerate(self.bank.experts):
            out[f"expert{k}.W"] = e.W
            out[f"expert{k}.Z"] = e.Z
            out.update(e.transform.parameters())
        if self.combine_mlp is not None:
            out.update(self.combine_mlp.parameters())
        out.update(self.head.parameters())
        return out

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.parameters().items()}

    def snapshot(self) -> dict:
        return {k: v.copy() for k, v in self.parameters().items()}

    def load_snapshot(self, snap: dict):
        for k, v in self.parameters().items():
            v[...] = snap[k]

    def gate_act(self):
        return GATE_ACTIVATIONS[self.cfg.gate_activation]


def new_model(cfg: ModelConfig, kernel_cfg: KernelConfig, seed: int = 0) -> MoseModel:
    """Initialize a model: uniform(0,1) hidden adjacencies so rectification
    starts active, fan-in scaled feature/transform weights, small-normal
    gating."""
    rng = substream(seed, 900)
    f, d = cfg.feature_dim, cfg.embed_dim
    gating = GatingParams(W_g=rng.normal(0.0, 0.1, (f, cfg.experts)),
                          W_n=rng.normal(0.0, 0.1, (f, cfg.experts)))
    width = kernel_cfg.feature_width * cfg.hidden_per_expert
    experts = []
    for k, s in enumerate(cfg.sizes):
        w = rng.uniform(0.0, 1.0, (cfg.hidden_per_expert, s, s))
        z = rng.normal(0.0, 1.0 / np.sqrt(max(1, f)), (cfg.hidden_per_expert, s, f))
        experts.append(Expert(W=w, Z=z, transform=Mlp(f"expert{k}.mlp", (width, d, d), rng)))
    combine_mlp = None
    head_in = d
    if cfg.combine_mode == "concat":
        combine_mlp = Mlp("combine", (cfg.experts * d, d), rng)
    head = Mlp("head", (head_in, d, cfg.class_count), rng)
    return MoseModel(gating=gating, bank=ExpertBank(experts), head=head,
                     kernel_cfg=kernel_cfg, cfg=cfg, combine_mlp=combine_mlp, seed=seed)


# -- batched group engine -------------------------------------------------

@dataclass
class NodeGroup:
    """Padded subgraph adjacencies for a group of nodes processed together,
    with each distinct feature row stored once and gathered through ``local``.

    The features of row b are X_b = C_b E, with E = xu[:-1] the U distinct
    rows and C_b the one-hot of ``local[b]``. The moment order works in the
    smaller basis: C (width U) when U < f, else X itself (width f).
    """

    adj: np.ndarray     # (B, nmax, nmax) zero-padded dense adjacencies
    xu: np.ndarray      # (U + 1, f) the U distinct feature rows, then a zero row
    local: np.ndarray   # (B, nmax) rows of xu; padding points at the zero row
    sizes: np.ndarray   # (B,) true subgraph sizes
    eta: np.ndarray     # (B, f) gate aggregates

    @property
    def count(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def feats(self) -> np.ndarray:
        """(B, nmax, f) zero-padded features, gathered on first use."""
        return np.take(self.xu, self.local, axis=0)

    @property
    def class_rows(self) -> np.ndarray | None:
        """E, the rows the moment basis expands into when U < f; None when
        the basis is the identity (U >= f)."""
        u, f = self.xu.shape[0] - 1, self.xu.shape[1]
        return self.xu[:-1] if u < f else None

    @cached_property
    def basis(self) -> np.ndarray:
        """(B, nmax, min(U, f)) slot coordinates in the moment basis: the one-hot
        C of each slot's row under ``class_rows``, else the features."""
        if self.class_rows is None:
            return self.feats
        u = self.xu.shape[0] - 1
        c = np.zeros(self.local.shape + (u,))
        slots = np.flatnonzero(self.local < u)
        c.reshape(-1)[slots * u + self.local.reshape(-1)[slots]] = 1.0
        return c

    def fits_moments(self, max_step: int) -> bool:
        """Whether the group's moments (max_step * min(U, f)^2 values per node)
        are no larger than its padded adjacency (nmax^2 values per node)."""
        nmax, width = self.adj.shape[1], min(self.xu.shape[0] - 1, self.xu.shape[1])
        return max_step * width * width <= nmax * nmax


def build_group(g: Graph, records: list[list[int]], node_ids, act=relu) -> NodeGroup:
    """Assemble the group tensors for the given nodes of one graph. The
    adjacencies come from the record nodes' CSR rows, with no n x n array;
    the features are the distinct rows of ``g.feature_rows`` the records hold."""
    recs = list(map(records.__getitem__, node_ids))
    sizes = np.fromiter(map(len, recs), dtype=np.int64, count=len(recs))
    b, nmax = len(recs), int(sizes.max())
    # allocated before the neighbour-length temporaries: allocated after them it cost
    # graph-cycle training ~10 % in page faults (glibc's dynamic mmap threshold)
    adj = np.zeros((b, nmax, nmax))
    valid = np.arange(nmax)[None, :] < sizes[:, None]
    flat = np.fromiter(itertools.chain.from_iterable(recs), dtype=np.int64,
                       count=int(sizes.sum()))
    uniq, inv = np.unique(flat, return_inverse=True)
    first, row_of = g.feature_rows
    classes, cls_of = np.unique(row_of[uniq], return_inverse=True)
    xu = np.zeros((len(classes) + 1, g.feature_dim))
    xu[:-1] = g.features[first[classes]]
    local = np.full((b, nmax), len(classes))
    local[valid] = cls_of[inv]
    row, pos = np.nonzero(valid)
    where = np.full((b, len(uniq) + 1), -1)
    where[row, inv] = pos
    # the CSR rows of the record nodes, concatenated
    starts, deg = g.offsets[flat], g.degrees[flat]
    ends = np.cumsum(deg)
    nbr = g.neighbors[np.arange(ends[-1]) + np.repeat(starts - ends + deg, deg)]
    pos_of = np.full(g.node_count, len(uniq))       # outside every record: the pad column
    pos_of[uniq] = np.arange(len(uniq))
    col = pos_of[nbr]
    # per neighbour: its record, the position of its source there, and its own
    row, pos = np.repeat(row, deg), np.repeat(pos, deg)
    other = where[row, col]
    np.put(adj, ((row * nmax + pos) * nmax + other)[other >= 0], 1.0)
    xv = xu[local[:, 0]]
    scores = np.where(valid, np.take_along_axis(xv @ xu.T, local, axis=1), -np.inf)
    weights = np.zeros((b, len(xu)))
    np.add.at(weights, (np.arange(b)[:, None], local), softmax(scores, axis=1))
    eta = act(xv + weights @ xu)
    return NodeGroup(adj=adj, xu=xu, local=local, sizes=sizes, eta=eta)


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


def _rectified_powers(expert: Expert, p_max: int) -> np.ndarray:
    """R^0..R^p_max of the expert's rectified hidden adjacencies, (p+1, N, s, s)."""
    r = expert.rectified()
    pows = np.empty((p_max + 1,) + r.shape)
    pows[0] = np.eye(expert.size)
    for q in range(p_max):
        np.matmul(pows[q], r, out=pows[q + 1])
    return pows


def _padded_forward(expert: Expert, r_pows: np.ndarray, adj: np.ndarray,
                    xu: np.ndarray, local: np.ndarray):
    """vals[b, i, q-1] = <R_i^q, C_q[b, i]> with C_q = T A_b^q T^T, T = Z_i X_b^T.

    A_b is symmetric, so C_q = Y_{floor(q/2)} Y_{ceil(q/2)}^T with Y_k = T A_b^k
    takes ceil(p/2) propagations. P = X_u Z_i^T is projected once for the
    distinct nodes and T gathered from it through ``local``, whose padding
    reads the zero row of ``xu``. Only P and the (p, B, N, s, s) C are kept.
    """
    n_hidden, s = expert.hidden_count, expert.size
    b, p_max = adj.shape[0], len(r_pows) - 1
    proj = xu @ expert.Z.reshape(n_hidden * s, -1).T            # (U+1, N*s)
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


def _basis_z(expert: Expert, class_rows: np.ndarray | None) -> np.ndarray:
    """The hidden features in the moment basis: Z_i E^T for class rows E, else Z."""
    return expert.Z if class_rows is None else np.matmul(expert.Z, class_rows.T)


def _moment_forward(expert: Expert, r_pows: np.ndarray, moments: np.ndarray,
                    class_rows: np.ndarray | None = None):
    """vals[b, i, q-1] = <Z_i^T R_i^q Z_i, M_q[b]>, one GEMM over the rows per step.

    Moments taken in the basis X = C E (``class_rows`` = E) are K_q = C^T A^q C, and
    <Z^T R^q Z, E^T K_q E> = <Z'^T R^q Z', K_q> with Z' = Z E^T.
    """
    p_max, b, r = moments.shape[:3]
    z = _basis_z(expert, class_rows)
    rz = np.matmul(r_pows[1:], z)                               # (p, N, s, r)
    gram = np.matmul(z.transpose(0, 2, 1), rz).reshape(p_max, -1, r * r)
    vals = np.matmul(moments.reshape(p_max, b, r * r), gram.transpose(0, 2, 1))
    return vals.transpose(1, 2, 0), rz


def _moment_backward(expert: Expert, moments: np.ndarray, dvals: np.ndarray, rz,
                     class_rows: np.ndarray | None = None):
    """Gradients on Z and on each R^q of the moment evaluation.

    With Mbar_q = sum_b dvals[b, :, q] M_q[b], they are R^q Z' (Mbar_q + Mbar_q^T)
    summed over q, times E in the basis of ``class_rows``, and Z' Mbar_q Z'^T; the
    batch drops out of both.
    """
    p_max, b, r = moments.shape[:3]
    z = _basis_z(expert, class_rows)
    mbar = np.matmul(dvals.transpose(2, 1, 0), moments.reshape(p_max, b, r * r))
    mbar = mbar.reshape(p_max, -1, r, r)
    dz = np.matmul(rz, mbar + mbar.transpose(0, 1, 3, 2)).sum(axis=0)
    d_rq = np.matmul(np.matmul(z, mbar), z.transpose(0, 2, 1))
    return (dz if class_rows is None else np.matmul(dz, class_rows)), d_rq


def _expert_kernel_forward(expert: Expert, kcfg: KernelConfig, group: NodeGroup,
                           rows: np.ndarray, moments: np.ndarray | None):
    """Kernel feature rows of the given group rows against one expert.

    ``moments`` (from group_moments, or None) selects the evaluation order;
    both give the same values up to rounding.
    """
    r_pows = _rectified_powers(expert, kcfg.max_step)
    if moments is None:
        vals, state = _padded_forward(expert, r_pows, group.adj[rows], group.xu,
                                      group.local[rows])
    else:
        vals, state = _moment_forward(expert, r_pows, moments[:, rows], group.class_rows)
    phi = (vals.reshape(-1, kcfg.max_step) @ kcfg.step_weights).reshape(len(rows), -1)
    return phi, (r_pows, state)


def _expert_kernel_backward(expert: Expert, kcfg: KernelConfig, group: NodeGroup,
                            rows: np.ndarray, moments: np.ndarray | None,
                            dphi: np.ndarray, cache, grads: dict, key: str):
    p_max = kcfg.max_step
    r_pows, state = cache
    weights = kcfg.step_weights
    dvals = (dphi.reshape(-1, weights.shape[1]) @ weights.T).reshape(
        len(dphi), expert.hidden_count, -1)
    if moments is None:
        dz, d_rq = _padded_backward(r_pows, group.adj[rows], group.xu, group.local[rows],
                                    dvals, state)
    else:
        dz, d_rq = _moment_backward(expert, moments[:, rows], dvals, state,
                                    group.class_rows)
    grads[f"{key}.Z"] += dz
    d_r = np.zeros(expert.W.shape)
    for q in range(1, p_max + 1):
        for k in range(q):
            d_r += np.matmul(r_pows[k], np.matmul(d_rq[q - 1], r_pows[q - 1 - k]))
    # the rectified entries that are positive: off the diagonal, with W + W^T > 0
    g_sym = d_r * (expert.rectified() > 0)
    grads[f"{key}.W"] += 0.5 * (g_sym + g_sym.transpose(0, 2, 1))


def gate_backward(eta: np.ndarray, eps: np.ndarray | None, sig: np.ndarray | None,
                  idx: np.ndarray, zeta: np.ndarray, dzeta: np.ndarray,
                  gating: GatingParams, grads: dict):
    """Backprop a gradient on the routing weights into the gating matrices.

    Follows the convention that gradients flow only through the retained
    logits; the top-k selection itself is treated as constant.
    """
    inner = (dzeta * zeta).sum(axis=1, keepdims=True)
    dpsi_sel = zeta * (dzeta - inner)
    dpsi = np.zeros((eta.shape[0], gating.expert_count))
    np.put_along_axis(dpsi, idx, dpsi_sel, axis=1)
    grads["gating.W_g"] += eta.T @ dpsi
    if eps is not None:
        grads["gating.W_n"] += eta.T @ (dpsi * eps * sig)


@dataclass
class GroupRun:
    """Forward state of one node group, ready for its backward pass."""

    model: MoseModel
    group: NodeGroup
    h: np.ndarray            # (B, d) combined node embeddings
    idx: np.ndarray          # (B, k) selected expert ids, ascending
    zeta: np.ndarray         # (B, k) routing weights
    eps: np.ndarray | None
    sig: np.ndarray | None
    moments: np.ndarray | None = None   # group_moments, when the group fits them
    expert_rows: dict = field(default_factory=dict)
    expert_caches: dict = field(default_factory=dict)
    concat_cache: tuple | None = None   # combine MLP cache, concat mode only

    def backward(self, dh: np.ndarray, grads: dict):
        model, group = self.model, self.group
        # the gradient on the (B, E, d) blocks that group_forward combined
        if model.cfg.combine_mode == "concat":
            dwide = model.combine_mlp.backward(dh, self.concat_cache, grads).reshape(
                group.count, model.expert_count, -1)
        else:
            dwide = np.broadcast_to(dh[:, None, :], (group.count, model.expert_count,
                                                     model.embed_dim))
        dzeta = np.zeros_like(self.zeta)
        for m in sorted(self.expert_rows):
            rows, pos = self.expert_rows[m]
            phi, kcache, mlp_cache, hm = self.expert_caches[m]
            block = dwide[rows, m]
            dhm = self.zeta[rows, pos][:, None] * block
            dzeta[rows, pos] += (hm * block).sum(axis=1)
            expert = model.bank.experts[m]
            dphi = expert.transform.backward(dhm, mlp_cache, grads)
            _expert_kernel_backward(expert, model.kernel_cfg, group, rows, self.moments,
                                    dphi, kcache, grads, f"expert{m}")
        gate_backward(group.eta, self.eps, self.sig, self.idx, self.zeta,
                      dzeta, model.gating, grads)


def group_forward(model: MoseModel, group: NodeGroup, train_mode: bool = False,
                  rng=None, dropout: float = 0.0) -> GroupRun:
    """Gate, route, and embed every node of the group in expert-id order."""
    gating = model.gating
    psi = group.eta @ gating.W_g
    eps = sig = None
    if train_mode:
        eps = np.asarray(rng.standard_normal((group.count, gating.expert_count)))
        arg = group.eta @ gating.W_n
        psi = psi + eps * softplus(arg)
        sig = sigmoid(arg)
    k = min(model.cfg.k_ept, gating.expert_count)
    order = np.argsort(-psi, axis=1, kind="stable")
    idx = np.sort(order[:, :k], axis=1)
    zeta = softmax(np.take_along_axis(psi, idx, axis=1), axis=1)
    p_max = model.kernel_cfg.max_step
    moments = None
    if group.fits_moments(p_max):
        moments = group_moments(group.adj, group.basis, p_max)
    expert_rows, expert_caches = {}, {}
    # block m of a row holds zeta * h_m when the row is routed to expert m, else zeros
    wide = np.zeros((group.count, model.expert_count, model.embed_dim))
    for m in range(model.expert_count):
        rows, pos = np.nonzero(idx == m)
        if len(rows) == 0:
            continue
        expert = model.bank.experts[m]
        phi, kcache = _expert_kernel_forward(expert, model.kernel_cfg, group, rows,
                                             moments)
        hm, mlp_cache = expert.transform.forward(phi, train=train_mode,
                                                 dropout=dropout, rng=rng)
        expert_rows[m] = (rows, pos)
        expert_caches[m] = (phi, kcache, mlp_cache, hm)
        wide[rows, m] = zeta[rows, pos][:, None] * hm
    concat_cache = None
    if model.cfg.combine_mode == "concat":
        h, concat_cache = model.combine_mlp.forward(wide.reshape(group.count, -1))
    else:
        h = wide.sum(axis=1)
    return GroupRun(model=model, group=group, h=h, idx=idx, zeta=zeta, eps=eps, sig=sig,
                    moments=moments, expert_rows=expert_rows, expert_caches=expert_caches,
                    concat_cache=concat_cache)


def pool_rows(h: np.ndarray, mode: str):
    """Graph readout of a group's node rows: (1, d) plus the max positions."""
    if mode == "mean":
        return h.mean(axis=0, keepdims=True), None
    if mode == "sum":
        return h.sum(axis=0, keepdims=True), None
    arg = h.argmax(axis=0)[None]
    return np.take_along_axis(h, arg, axis=0), arg


def pool_rows_backward(dpooled: np.ndarray, h_shape, mode: str, arg) -> np.ndarray:
    """Spread the gradient on a pooled (1, d) row back over the node rows."""
    if mode == "mean":
        return np.broadcast_to(dpooled / h_shape[0], h_shape).copy()
    if mode == "sum":
        return np.broadcast_to(dpooled, h_shape).copy()
    dh = np.zeros(h_shape)
    np.put_along_axis(dh, arg, dpooled, axis=0)
    return dh
