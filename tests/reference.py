"""Single-node reference pipeline: the oracle the batched engine is pinned to.

One subgraph at a time: the gate aggregate and its noisy scores, top-k
routing, each selected expert's hidden-graph kernel features (the readout of
Nikolentzos & Vazirgiannis 2020, "Random Walk Graph Neural Networks") through
its transform, the combination and the class head. ``mose.moe``'s group
engine computes the same quantities for many nodes at once with analytic
backprop; tests/test_moe.py holds the two to each other at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mose.graph import Graph
from mose.kernel import HiddenGraph, KernelConfig, rwk_hidden
from mose.moe import GatingParams, MoseModel
from mose.nn import Mlp, relu, softmax, softplus
from mose.trainer import _cv_squared


# -- kernel features --------------------------------------------------------

def kernel_features(sub: Graph, hidden_graphs: list[HiddenGraph],
                    cfg: KernelConfig) -> np.ndarray:
    """Per-step kernel values against each hidden graph, flattened per mode.

    concat-over-p keeps one weighted value per (hidden graph, step);
    sum-over-p and single-p reduce the step axis to one value per hidden
    graph. Step 0 is excluded: it ignores structure.
    """
    vals = []
    for hg in hidden_graphs:
        per_step = [rwk_hidden(sub, hg, p) for p in range(1, cfg.max_step + 1)]
        if cfg.step_mode == "concat-over-p":
            vals.extend(cfg.lambdas[p] * per_step[p - 1] for p in range(1, cfg.max_step + 1))
        elif cfg.step_mode == "sum-over-p":
            vals.append(sum(cfg.lambdas[p] * per_step[p - 1] for p in range(1, cfg.max_step + 1)))
        else:  # single-p
            vals.append(cfg.lambdas[cfg.max_step] * per_step[-1])
    return np.array(vals)


def expert_embed(sub: Graph, hidden_graphs: list[HiddenGraph],
                 cfg: KernelConfig, transform) -> np.ndarray:
    """Kernel feature vector against an expert's hidden graphs, transformed.

    ``transform`` is the expert's feed-forward map (anything callable on a
    1-d vector; identity is allowed).
    """
    sizes = {hg.size for hg in hidden_graphs}
    dims = {hg.feature_dim for hg in hidden_graphs}
    if len(sizes) != 1 or len(dims) != 1:
        raise ValueError("an expert's hidden graphs must share size and feature dim")
    return np.asarray(transform(kernel_features(sub, hidden_graphs, cfg)))


# -- gating, routing, combination -------------------------------------------

@dataclass(frozen=True)
class Route:
    """Chosen expert ids (sorted) and their positive softmax weights."""

    indices: tuple
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if len(self.indices) != len(w):
            raise ValueError("indices and weights must align")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be sorted and distinct")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")


def gate_aggregate(sub: Graph, act=relu) -> np.ndarray:
    """Feature summary of a subgraph: center (node 0) plus attention-weighted
    nodes.

    Attention weights are the softmax of feature dot products with the
    center (the center itself participates in the sum).
    """
    x = sub.features
    xv = x[0]
    scores = x @ xv
    alpha = softmax(scores)
    return act(xv + alpha @ x)


def gate_scores(eta: np.ndarray, gating: GatingParams, train_mode: bool,
                rng=None) -> np.ndarray:
    """Pre-selection logits: clean scores plus softplus-scaled noise.

    Noise is a fresh standard-normal draw per coordinate when training;
    evaluation uses the clean scores exactly.
    """
    psi = eta @ gating.W_g
    if train_mode:
        eps = rng.standard_normal(gating.expert_count)
        psi = psi + eps * softplus(eta @ gating.W_n)
    return psi


def route(psi: np.ndarray, k_ept: int) -> Route:
    """Keep the top-k logits (ties to the lower index) and softmax them."""
    k = min(k_ept, len(psi))
    if k < 1:
        raise ValueError("k_ept must be >= 1")
    order = np.argsort(-psi, kind="stable")
    idx = np.sort(order[:k])
    return Route(indices=tuple(int(i) for i in idx), weights=softmax(psi[idx]))


def combine(embeddings: dict, r: Route, mode: str = "weighted-sum",
            combine_mlp: Mlp | None = None, expert_count: int | None = None) -> np.ndarray:
    """Merge selected expert embeddings under the routing weights.

    weighted-sum adds them; concat scales each block by its weight, places
    it at the expert's fixed offset (absent experts contribute zeros), and
    applies the combine transform.
    """
    missing = [m for m in r.indices if m not in embeddings]
    if missing:
        raise RuntimeError(f"missing embeddings for experts {missing}")
    if mode == "weighted-sum":
        return sum(w * embeddings[m] for m, w in zip(r.indices, r.weights))
    d = len(next(iter(embeddings.values())))
    wide = np.zeros(expert_count * d)
    for m, w in zip(r.indices, r.weights):
        wide[m * d:(m + 1) * d] = w * embeddings[m]
    out, _ = combine_mlp.forward(wide)
    return out


def readout(node_embeddings, mode: str = "mean") -> np.ndarray:
    """Permutation-invariant pooling over node embeddings."""
    stack = np.asarray(list(node_embeddings))
    if stack.size == 0:
        raise ValueError("readout needs at least one node embedding")
    if mode == "mean":
        return stack.mean(axis=0)
    if mode == "sum":
        return stack.sum(axis=0)
    if mode == "max":
        return stack.max(axis=0)
    raise ValueError(f"unknown readout mode {mode}")


def importance_loss(routes: list[Route], expert_count: int) -> float:
    """Squared coefficient of variation of aggregate routing mass.

    Unselected experts contribute zero mass; the standard deviation is the
    population one.
    """
    if not routes:
        raise ValueError("importance needs a non-empty batch")
    totals = np.zeros(expert_count)
    for r in routes:
        for m, w in zip(r.indices, r.weights):
            totals[m] += w
    return _cv_squared(totals)


# -- the per-node pipeline ----------------------------------------------------

def node_embedding(model: MoseModel, sub: Graph, train_mode: bool = False,
                   rng=None, dropout: float = 0.0):
    """Reference per-node pipeline up to the combined embedding h(v)."""
    eta = gate_aggregate(sub, act=model.gate_act())
    psi = gate_scores(eta, model.gating, train_mode, rng)
    r = route(psi, model.cfg.k_ept)
    embeddings = {}
    for m in r.indices:
        expert = model.bank.experts[m]
        phi = kernel_features(sub, expert.hidden, model.kernel_cfg)
        h_m, _ = expert.transform.forward(phi, train=train_mode, dropout=dropout, rng=rng)
        embeddings[m] = h_m
    h = combine(embeddings, r, model.cfg.combine_mode, model.combine_mlp,
                model.expert_count)
    return h, r


def forward(model: MoseModel, sub: Graph, train_mode: bool = False,
            rng=None, dropout: float = 0.0):
    """Full per-node pipeline; returns class logits and the route taken."""
    h, r = node_embedding(model, sub, train_mode, rng, dropout)
    logits, _ = model.head.forward(h, train=train_mode, dropout=dropout, rng=rng)
    return logits, r
