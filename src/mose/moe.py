"""Subgraph-aware expert routing: gating, expert bank, combination, readout.

The batched group engine here gates, routes and embeds many nodes at once
with analytic backprop; the trainer is built on it. The tests pin it to a
single-node reference pipeline (tests/reference.py) that computes the same
quantities one subgraph at a time. ``build_group`` plans an engine unit:
the kernel's plan of its records (``kernel.NodeGroup.build``) plus the gate
aggregate before the model's activation, so the trainer builds it once and
reuses it in every pass. ``kernel_moments`` picks one of the two orders of
the hidden-graph kernel from the plan's shapes and the hidden nodes of the
model's largest expert (``NodeGroup.fits_moments``): the subgraph moments
shared by all experts, or the padded order. ``group_forward`` computes them
per pass unless it is given those of an earlier run on the plan. It chains
three stages, each of which a caller may rerun alone: ``gate`` (scores,
top-k, routing weights), ``expert_forward`` (one expert's kernel values,
features and MLP) and ``combine``. Each expert's values and gradients come
from the kernel's one pair, ``group_values`` and ``group_values_backward``;
this module maps them to and from features through
``KernelConfig.step_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .kernel import (HiddenGraph, KernelConfig, NodeGroup, _row_blocks, group_values,
                     group_values_backward)
from .nn import Mlp, relu, sigmoid, softmax, softplus
from .util import substream
from .walks import Records

GATE_ACTIVATIONS = {
    "relu": relu,
    "tanh": np.tanh,
    "identity": lambda x: x,
}


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

    @property
    def hidden_nodes(self) -> int:
        """N * s of the largest expert: the hidden nodes a padded row meets."""
        return max(e.hidden_count * e.size for e in self.experts)


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
        if min(sizes) < 1 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"hidden-graph sizes must be >= 1 and strictly increasing, "
                             f"got {sizes}")
        object.__setattr__(self, "sizes", sizes)


@dataclass
class MoseModel:
    W_g: np.ndarray     # (f, E) clean gate scores, one column per expert
    W_n: np.ndarray     # (f, E) noise-scale scores
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
        out = {"gating.W_g": self.W_g, "gating.W_n": self.W_n}
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
        """Copy ``snap`` into the parameters; a shape other than a parameter's
        raises ValueError rather than broadcasting."""
        params = self.parameters()
        for k, v in params.items():
            if np.shape(snap[k]) != v.shape:
                raise ValueError(f"{k}: shape {np.shape(snap[k])}, expected {v.shape}")
        for k, v in params.items():
            v[...] = snap[k]

    def gate_act(self):
        return GATE_ACTIVATIONS[self.cfg.gate_activation]


def new_model(cfg: ModelConfig, kernel_cfg: KernelConfig, seed: int = 0) -> MoseModel:
    """Initialize a model: uniform(0,1) hidden adjacencies so rectification
    starts active, fan-in scaled feature/transform weights, small-normal
    gating."""
    rng = substream(seed, 900)
    f, d = cfg.feature_dim, cfg.embed_dim
    w_g = rng.normal(0.0, 0.1, (f, cfg.experts))
    w_n = rng.normal(0.0, 0.1, (f, cfg.experts))
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
    return MoseModel(W_g=w_g, W_n=w_n, bank=ExpertBank(experts), head=head,
                     kernel_cfg=kernel_cfg, cfg=cfg, combine_mlp=combine_mlp, seed=seed)


# -- batched group engine -------------------------------------------------

def build_group(g: Graph, records: Records, node_ids) -> NodeGroup:
    """The plan of the given nodes of one graph, from its records
    (``NodeGroup.build``), with the gate aggregate of each row, which reads the
    slots' feature rows a block of rows at a time, under
    ``kernel._BLOCK_BYTES``."""
    group = NodeGroup.build(g, records.ids, records.offsets, node_ids)
    b, nmax = group.local.shape
    group.agg = np.empty((b, g.feature_dim))
    for lo, hi in _row_blocks(b, 8 * nmax * g.feature_dim):
        local = group.local[lo:hi]
        x = group.feature_rows(local)                       # (B_k, nmax, f)
        center = x[:, 0]
        scores = np.where(local < len(group.row_nodes),
                          np.matmul(x, center[:, :, None])[..., 0], -np.inf)
        np.matmul(softmax(scores, axis=1)[:, None], x, out=group.agg[lo:hi, None])
        group.agg[lo:hi] += center
    return group


def gate_backward(eta: np.ndarray, eps: np.ndarray | None, sig: np.ndarray | None,
                  idx: np.ndarray, zeta: np.ndarray, dzeta: np.ndarray,
                  expert_count: int, grads: dict):
    """Backprop a gradient on the routing weights into the gating matrices.

    Follows the convention that gradients flow only through the retained
    logits; the top-k selection itself is treated as constant.
    """
    inner = (dzeta * zeta).sum(axis=1, keepdims=True)
    dpsi_sel = zeta * (dzeta - inner)
    dpsi = np.zeros((eta.shape[0], expert_count))
    np.put_along_axis(dpsi, idx, dpsi_sel, axis=1)
    grads["gating.W_g"] += eta.T @ dpsi
    if eps is not None:
        grads["gating.W_n"] += eta.T @ (dpsi * eps * sig)


@dataclass
class GroupRun:
    """Forward state of one node group, ready for its backward pass."""

    model: MoseModel
    group: NodeGroup
    eta: np.ndarray          # (B, f) activated gate aggregates
    h: np.ndarray            # (B, d) combined node embeddings
    idx: np.ndarray          # (B, k) selected expert ids, ascending
    zeta: np.ndarray         # (B, k) routing weights
    eps: np.ndarray | None
    sig: np.ndarray | None
    moments: np.ndarray | None      # the group's moments, None in the padded order
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
        weights = model.kernel_cfg.step_weights
        for m in sorted(self.expert_rows):
            rows, pos = self.expert_rows[m]
            kcache, mlp_cache, hm = self.expert_caches[m]
            block = dwide[rows, m]
            dhm = self.zeta[rows, pos][:, None] * block
            dzeta[rows, pos] += (hm * block).sum(axis=1)
            expert = model.bank.experts[m]
            dphi = expert.transform.backward(dhm, mlp_cache, grads)
            dvals = (dphi.reshape(-1, weights.shape[1]) @ weights.T).reshape(
                len(rows), expert.hidden_count, -1)
            dw, dz = group_values_backward(group, dvals, kcache)
            grads[f"expert{m}.W"] += dw
            grads[f"expert{m}.Z"] += dz
            del dw, dz          # before the next expert's are computed
        gate_backward(self.eta, self.eps, self.sig, self.idx, self.zeta,
                      dzeta, model.expert_count, grads)


def kernel_moments(model: MoseModel, group: NodeGroup) -> np.ndarray | None:
    """The moments the model's kernel reads on ``group``: its ``NodeGroup.moments``
    when the moment order fits (``NodeGroup.fits_moments`` at the hidden nodes
    of the model's largest expert), else None, the padded order. They hold no
    parameter, so every model of the same kernel config and expert shapes may
    reuse them on the same plan."""
    p = model.kernel_cfg.max_step
    return group.moments(p) if group.fits_moments(p, model.bank.hidden_nodes) else None


def gate(model: MoseModel, eta: np.ndarray, eps: np.ndarray | None):
    """(idx, zeta, sig) of activated gate aggregates ``eta`` (B, f) under the
    routing noise ``eps`` (B, E), None in eval mode: the scores psi, their
    top-k picks, ascending, and the softmax zeta over the picked scores; sig
    is the sigmoid of the noise-scale scores, None without noise."""
    psi = eta @ model.W_g
    sig = None
    if eps is not None:
        arg = eta @ model.W_n
        psi = psi + eps * softplus(arg)
        sig = sigmoid(arg)
    k = min(model.cfg.k_ept, model.expert_count)
    order = np.argsort(-psi, axis=1, kind="stable")
    idx = np.sort(order[:, :k], axis=1)
    zeta = softmax(np.take_along_axis(psi, idx, axis=1), axis=1)
    return idx, zeta, sig


def expert_forward(model: MoseModel, m: int, group: NodeGroup,
                   moments: np.ndarray | None, rows: np.ndarray, train_mode: bool = False,
                   rng=None, dropout: float = 0.0, masks: list | None = None):
    """(kcache, mlp_cache, hm): expert m on rows ``rows`` of the plan, its
    kernel values (``group_values``), their step-weighted features phi and
    its MLP's output hm; ``masks`` replays an earlier run's dropout
    (``Mlp.forward``)."""
    p, weights = model.kernel_cfg.max_step, model.kernel_cfg.step_weights
    expert = model.bank.experts[m]
    vals, kcache = group_values(expert.W, expert.Z, group, p, moments, rows)
    phi = (vals.reshape(-1, p) @ weights).reshape(len(rows), -1)
    hm, mlp_cache = expert.transform.forward(phi, train=train_mode, dropout=dropout,
                                             rng=rng, masks=masks)
    return kcache, mlp_cache, hm


def combine(model: MoseModel, zeta: np.ndarray, expert_rows: dict, outputs: dict):
    """(h, concat_cache): the rows' embeddings from each routed expert's
    output ``outputs[m]`` on its ``expert_rows[m]``, weighted by zeta, and the
    combine MLP's cache in concat mode (else None)."""
    # block m of a row holds zeta * h_m when the row is routed to expert m, else zeros
    wide = np.zeros((len(zeta), model.expert_count, model.embed_dim))
    for m, (rows, pos) in expert_rows.items():
        wide[rows, m] = zeta[rows, pos][:, None] * outputs[m]
    if model.cfg.combine_mode == "concat":
        return model.combine_mlp.forward(wide.reshape(len(zeta), -1))
    return wide.sum(axis=1), None


def group_forward(model: MoseModel, group: NodeGroup, train_mode: bool = False,
                  rng=None, dropout: float = 0.0,
                  moments: np.ndarray | None = None) -> GroupRun:
    """Gate, route, and embed every node of the group in expert-id order:
    ``gate``, then ``expert_forward`` for each routed expert, then ``combine``.

    ``moments`` are the ``GroupRun.moments`` of an earlier run on the same plan
    and kernel config, reused as they are; moments of another shape than the
    plan's raise ValueError. Without them, ``kernel_moments`` computes them.
    """
    p = model.kernel_cfg.max_step
    if moments is None:
        moments = kernel_moments(model, group)
    else:
        r = min(len(group.row_nodes), group.width)
        if moments.shape != (p, group.count, r, r):
            raise ValueError(f"moments of shape {moments.shape}, expected "
                             f"{(p, group.count, r, r)} for this plan")
    eta = model.gate_act()(group.agg)
    eps = None
    if train_mode:
        eps = np.asarray(rng.standard_normal((group.count, model.expert_count)))
    idx, zeta, sig = gate(model, eta, eps)
    expert_rows, expert_caches = {}, {}
    for m in range(model.expert_count):
        rows, pos = np.nonzero(idx == m)
        if len(rows) == 0:
            continue
        expert_rows[m] = (rows, pos)
        expert_caches[m] = expert_forward(model, m, group, moments, rows, train_mode, rng,
                                          dropout)
    h, concat_cache = combine(model, zeta, expert_rows,
                              {m: c[2] for m, c in expert_caches.items()})
    return GroupRun(model=model, group=group, eta=eta, h=h, idx=idx, zeta=zeta, eps=eps,
                    sig=sig, moments=moments, expert_rows=expert_rows,
                    expert_caches=expert_caches, concat_cache=concat_cache)


def pool_rows(h: np.ndarray, mode: str):
    """Graph readout of a group's node rows: (1, d) plus the max positions.
    A stack (G, k, d) of G graphs' rows reads out as (G, 1, d), each graph
    as its (k, d) rows alone would."""
    if mode == "mean":
        return h.mean(axis=-2, keepdims=True), None
    if mode == "sum":
        return h.sum(axis=-2, keepdims=True), None
    arg = h.argmax(axis=-2)[..., None, :]
    return np.take_along_axis(h, arg, axis=-2), arg


def pool_rows_backward(dpooled: np.ndarray, h_shape, mode: str, arg) -> np.ndarray:
    """Spread the gradient on a pooled (1, d) row back over the node rows."""
    if mode == "mean":
        return np.broadcast_to(dpooled / h_shape[0], h_shape).copy()
    if mode == "sum":
        return np.broadcast_to(dpooled, h_shape).copy()
    dh = np.zeros(h_shape)
    np.put_along_axis(dh, arg, dpooled, axis=0)
    return dh
