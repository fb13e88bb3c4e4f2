"""Single-node reference pipeline: the oracle the batched engine is pinned to.

One subgraph at a time: the gate aggregate and its noisy scores, top-k
routing, each selected expert's hidden-graph kernel features (the readout of
Nikolentzos & Vazirgiannis 2020, "Random Walk Graph Neural Networks") through
its transform, the combination and the class head. ``mose.moe``'s group
engine computes the same quantities for many nodes at once with analytic
backprop; tests/test_moe.py holds the two to each other at 1e-12. The last
section holds a plan's arrays densely, the oracle of the padded order's
row blocking. Beside them: random walks drawn with one array call per step,
the oracle of ``mose.walks.sample_walks``, and finite differences that
rerun the whole loss pass, the oracle of ``mose.trainer.grad_check``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mose.graph import Graph
from mose.kernel import HiddenGraph, KernelConfig, NodeGroup, _slot_basis, rwk_hidden
from mose.moe import MoseModel
from mose.nn import Mlp, relu, softmax, softplus
from mose.trainer import _apply_importance, _cv_squared, _loss_pass, _mean_ce, total_loss
from mose.util import substream


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


def gate_scores(eta: np.ndarray, W_g: np.ndarray, W_n: np.ndarray, train_mode: bool,
                rng=None) -> np.ndarray:
    """Pre-selection logits: clean scores eta W_g plus noise scaled by
    softplus(eta W_n); W_g and W_n hold one column per expert.

    Noise is a fresh standard-normal draw per coordinate when training;
    evaluation uses the clean scores exactly.
    """
    psi = eta @ W_g
    if train_mode:
        eps = rng.standard_normal(W_g.shape[1])
        psi = psi + eps * softplus(eta @ W_n)
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
    out, _ = combine_mlp.forward(wide[None])
    return out[0]


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
    psi = gate_scores(eta, model.W_g, model.W_n, train_mode, rng)
    r = route(psi, model.cfg.k_ept)
    embeddings = {}
    for m in r.indices:
        expert = model.bank.experts[m]
        phi = kernel_features(sub, expert.hidden, model.kernel_cfg)
        h_m, _ = expert.transform.forward(phi[None], train=train_mode, dropout=dropout,
                                          rng=rng)
        embeddings[m] = h_m[0]
    h = combine(embeddings, r, model.cfg.combine_mode, model.combine_mlp,
                model.expert_count)
    return h, r


def forward(model: MoseModel, sub: Graph, train_mode: bool = False,
            rng=None, dropout: float = 0.0):
    """Full per-node pipeline; returns class logits and the route taken."""
    h, r = node_embedding(model, sub, train_mode, rng, dropout)
    logits, _ = model.head.forward(h[None], train=train_mode, dropout=dropout, rng=rng)
    return logits[0], r


def cache_text(dataset_name: str, cfg, records: list[list[list[int]]],
               pattern_tables: list) -> str:
    """The text of a subgraph cache, written one record list at a time: the
    reference ``mose.walks.save_cache`` is held to byte for byte."""
    lines = ["mose-subgraphs v1",
             f"dataset={dataset_name} seed={cfg.seed} walk_length={cfg.walk_length} "
             f"walks_per_node={cfg.walks_per_node} pattern_budget={cfg.pattern_budget} "
             f"cap={cfg.subgraph_cap}"]
    for gi, recs in enumerate(records):
        lines.append(f"g {gi}")
        lines += ["p " + ",".join(str(x) for x in pat) + f" {cnt}"
                  for pat, cnt in pattern_tables[gi]]
        lines += ["v " + " ".join(str(x) for x in nodes) for nodes in recs]
    return "\n".join(lines) + "\n"


# -- a plan's arrays held densely -------------------------------------------

def distinct_rows(group: NodeGroup) -> np.ndarray:
    """X_u of a plan: (U + 1, f), its U distinct feature rows, then a zero row."""
    return group.feature_rows(np.arange(group.distinct))


def slot_basis(group: NodeGroup) -> np.ndarray:
    """(B, nmax, min(U, f)) slot coordinates of a plan in its moment basis."""
    return _slot_basis(group, group.local)


@dataclass(frozen=True)
class DenseSlots:
    """A plan's padded slots held as dense arrays, read by the padded order as
    it reads a NodeGroup: row b's slot j holds row ``local[b, j]`` of ``xu``,
    its edges are ``adj[b]``."""

    adj: np.ndarray         # (B, nmax, nmax), entries 0 and 1 of any dtype
    xu: np.ndarray          # (U', f) the rows ``local`` indexes
    local: np.ndarray       # (B, nmax)

    @property
    def distinct(self) -> int:
        return len(self.xu)

    @property
    def width(self) -> int:
        return self.xu.shape[1]

    def padded_adjacency(self, dtype, rows: np.ndarray) -> np.ndarray:
        return np.asarray(self.adj[rows], dtype=dtype)

    def feature_rows(self, ids: np.ndarray) -> np.ndarray:
        return self.xu[ids]


# -- random walks, one array draw per step -----------------------------------

def sample_walks_by_array(g: Graph, v: int, cfg, rng) -> list[tuple[int, ...]]:
    """``walks_per_node`` walks of ``walk_length`` steps, each step one
    ``rng.integers(0, degrees)`` call over every walk's position."""
    if g.offsets[v] == g.offsets[v + 1]:
        return []
    walks = np.empty((cfg.walks_per_node, cfg.walk_length + 1), dtype=np.int64)
    walks[:, 0] = v
    pos = walks[:, 0]
    for step in range(1, cfg.walk_length + 1):
        pick = rng.integers(0, g.degrees[pos])
        pos = g.neighbors[g.offsets[pos] + pick]
        walks[:, step] = pos
    return [tuple(int(x) for x in row) for row in walks]


# -- finite differences by full reruns ----------------------------------------

def full_rerun_grad_check(model: MoseModel, data, cache, item_ids, cfg,
                          step: float = 1e-5, train_mode: bool = True):
    """(worst, losses): ``grad_check``'s loop with every perturbed evaluation a
    whole ``frozen_loss`` pass, its routing noise and dropout drawn afresh from
    ``substream(seed, 500)``. ``losses`` lists each evaluation's (parameter
    name, loss) in order, the loss None when a unit's picks differ from the
    base pass's."""
    plans = {}

    def run(grads=None):      # frozen_loss, with each unit planned once
        rng = substream(cfg.seed, 500)
        logits, truth, stash = _loss_pass(model, data, cache, item_ids,
                                          (lambda key: rng) if train_mode else None,
                                          cfg.dropout_rate if train_mode else 0.0, grads,
                                          plans)
        imp, _ = _apply_importance(stash, cfg.beta, grads)
        return total_loss(_mean_ce(logits, truth), imp, cfg.beta), [i for i, _ in stash.items]

    grads = model.zero_grads()
    _, base_picks = run(grads)
    params = model.parameters()
    losses = []
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            h = step
            for _attempt in range(3):
                pair = []
                for sign in (1, -1):
                    try:
                        arr[ix] = orig + sign * h
                        loss, picks = run()
                    finally:
                        arr[ix] = orig
                    same = all(np.array_equal(a, b) for a, b in zip(base_picks, picks))
                    pair.append(loss if same else None)
                    losses.append((name, pair[-1]))
                if None not in pair:
                    break
                h /= 10.0
            else:
                raise RuntimeError(f"top-k selection keeps flipping at {name}{ix}")
            numeric = (pair[0] - pair[1]) / (2 * h)
            analytic = grads[name][ix]
            scale = max(abs(numeric), abs(analytic), 1.0)
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst, losses
