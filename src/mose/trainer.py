"""Training loop: balance-aware loss, Adam updates, evaluation, grad checks.

Graph tasks take minibatch steps over graphs; node tasks take one
full-batch step per epoch. Training, evaluation and gradient checks share
one loss pass over engine units: a whole graph, pooled to one row, or a
chunk of NODE_CHUNK nodes. A unit's plan (moe.build_group) holds no
parameter, so ``train``, ``evaluate`` and ``grad_check`` build it at most
once per call and reuse it in every later pass; only ``train`` on a node
task plans its chunks anew in every pass. A plan's kernel moments hold no
parameter either, but ``train`` and ``evaluate`` compute them in every pass,
as keeping them for a whole run would cost more memory than they save time.
``grad_check`` runs one full pass and keeps each unit's state, moments
included; a perturbed evaluation reruns from it only the stages the
perturbed tensor feeds, replaying that pass's draws. The expert-balance penalty is
accumulated per batch so its gradient reaches the gating network at every
step. All randomness is keyed by (seed, purpose, epoch, item), so results
are independent of batch layout, thread count, and resume points.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from .datasets import Dataset
from .kernel import KernelConfig
from .moe import (ModelConfig, MoseModel, build_group, combine, expert_forward, gate,
                  group_forward, new_model, pool_rows, pool_rows_backward)
from .nn import Adam, log_softmax, softmax
from .util import FormatError, atomic_write, substream, unique
from .walks import SubgraphCache

CV_GUARD = 1e-10
NODE_CHUNK = 512   # nodes per engine unit in node tasks


class NonFiniteLossError(RuntimeError):
    """Raised when training hits a non-finite loss; carries a diagnostic dump."""

    def __init__(self, epoch: int, batch: int, param_norms: dict):
        self.epoch = epoch
        self.batch = batch
        self.param_norms = param_norms
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")

    def dump(self) -> dict:
        return {"epoch": self.epoch, "batch": self.batch,
                "param_norms": {k: float(v) for k, v in self.param_norms.items()}}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    beta: float = 0.1
    batch_size: int = 32
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    dropout_rate: float = 0.2
    seed: int = 0
    patience: int = 25          # 0 disables early stopping
    val_fraction: float = 0.1   # carved from graph-task train splits

    def __post_init__(self):
        checks = {"epochs must be >= 0": self.epochs >= 0,
                  "learning_rate must be > 0": self.learning_rate > 0,
                  "batch_size must be >= 1": self.batch_size >= 1,
                  "beta must be finite and non-negative": 0 <= self.beta < np.inf,
                  "adam_beta1 must lie in [0, 1)": 0 <= self.adam_beta1 < 1,
                  "adam_beta2 must lie in [0, 1)": 0 <= self.adam_beta2 < 1,
                  "adam_eps must be > 0": self.adam_eps > 0,
                  "patience must be >= 0": self.patience >= 0,
                  "dropout_rate must lie in [0, 1)": 0 <= self.dropout_rate < 1,
                  "val_fraction must lie in [0, 1)": 0 <= self.val_fraction < 1}
        for message, ok in checks.items():
            if not ok:
                raise ValueError(message)


@dataclass
class Metrics:
    accuracy: float = 0.0
    macro_f1: float = 0.0
    loss_task: float = 0.0
    loss_importance: float = 0.0
    expert_load: np.ndarray | None = None


# -- losses ---------------------------------------------------------------

def _cv_squared(totals: np.ndarray) -> float:
    mean = totals.mean()
    return float((totals.std() / (mean + CV_GUARD)) ** 2)


def _cv_squared_grad(totals: np.ndarray) -> np.ndarray:
    k = len(totals)
    mu = totals.mean()
    m = mu + CV_GUARD
    var = totals.var()
    return (2.0 / k) * ((totals - mu) / m**2 - var / m**3)


def total_loss(task_loss: float, imp_loss: float, beta: float) -> float:
    """Task loss plus beta times the expert-balance penalty."""
    return task_loss + beta * imp_loss


def accuracy_score(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(pred == truth))


def macro_f1_score(pred: np.ndarray, truth: np.ndarray, class_count: int) -> float:
    f1s = []
    for c in range(class_count):
        tp = np.sum((pred == c) & (truth == c))
        fp = np.sum((pred == c) & (truth != c))
        fn = np.sum((pred != c) & (truth == c))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


# -- the loss pass ------------------------------------------------------------

class _RouteStash:
    """Per-pass routing state for the balance penalty: each unit's picks and
    routing weights, and, when the pass takes gradients, the maps from the
    pass's d_totals to the gating gradients, summed over its units.

    A unit's dpsi[b] is J_b d_totals with J_b = diag(S_b) - S_b S_b^T, S_b its
    row's routing weights scattered over the experts (gate_backward's
    formula), so dW_g = eta^T dpsi = G_g d_totals with G_g = eta^T J, and
    dW_n likewise with J's rows scaled by eps * sigma. G_g and G_n are
    (f, E, E) whatever the unit's size, and no eta outlives its unit.
    """

    def __init__(self, expert_count: int, maps: bool):
        self.expert_count = expert_count
        self.items = []                         # (idx, zeta) per unit
        self.maps = {} if maps else None        # gradient name -> (f, E * E) map

    def add(self, run):
        self.items.append((run.idx, run.zeta))
        if self.maps is None:
            return
        e = self.expert_count
        s = np.zeros((len(run.idx), e))
        np.put_along_axis(s, run.idx, run.zeta, axis=1)
        jac = (s[:, :, None] * (np.eye(e) - s[:, None, :])).reshape(len(s), e * e)
        self.maps["gating.W_g"] = run.eta.T @ jac + self.maps.get("gating.W_g", 0.0)
        if run.eps is not None:
            jac *= np.repeat(run.eps * run.sig, e, axis=1)
            self.maps["gating.W_n"] = run.eta.T @ jac + self.maps.get("gating.W_n", 0.0)

    def totals(self) -> np.ndarray:
        out = np.zeros(self.expert_count)
        for idx, zeta in self.items:
            np.add.at(out, idx.ravel(), zeta.ravel())
        return out

    def backward(self, d_totals: np.ndarray, grads: dict):
        e = self.expert_count
        for name, g in self.maps.items():
            grads[name] += g.reshape(-1, e, e) @ d_totals


def _units(data: Dataset, cache: SubgraphCache, item_ids: np.ndarray):
    """Engine units of the items: (stream key, plan key, graph, records, nodes, labels).

    A graph task's unit is one graph, keyed by its id. A node task's unit is
    a chunk of NODE_CHUNK items: its stream key is the chunk index and its
    plan key the chunk's node ids, so one ``plans`` dict serves any items.
    """
    if data.task == "graph":
        for gi in item_ids:
            g = data.graphs[gi]
            yield int(gi), int(gi), g, cache.records[gi], range(g.node_count), [g.graph_label]
        return
    g = data.graphs[0]
    for ci, lo in enumerate(range(0, len(item_ids), NODE_CHUNK)):
        chunk = item_ids[lo:lo + NODE_CHUNK]
        yield ci, chunk.tobytes(), g, cache.records[0], chunk, g.node_labels[chunk]


def _loss_pass(model: MoseModel, data: Dataset, cache: SubgraphCache, item_ids,
               rng_of=None, dropout: float = 0.0, grads: dict | None = None,
               plans: dict | None = None, keep: list | None = None):
    """Forward the items one engine unit at a time; returns (logits, labels, stash).

    ``rng_of(key)`` gives a unit's routing-noise and dropout stream and
    turns on train mode. With ``grads``, each unit also backpropagates its
    share of the items' mean cross-entropy before the next unit runs.
    ``plans`` maps plan keys to the plans already built; a unit missing
    from it is planned and added. ``keep`` receives each unit's
    (``GroupRun``, head cache, logits, labels), which ``_staged_loss`` reruns from.
    """
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if len(item_ids) == 0:
        raise ValueError("empty split part")
    train_mode = rng_of is not None
    pooled = data.task == "graph"
    mode = model.cfg.readout_mode
    stash = _RouteStash(model.expert_count, maps=grads is not None)
    logits, labels = [], []
    for key, plan_key, g, records, nodes, y in _units(data, cache, item_ids):
        rng = rng_of(key) if train_mode else None
        group = None if plans is None else plans.get(plan_key)
        if group is None:
            group = build_group(g, records, nodes)
            if plans is not None:
                plans[plan_key] = group
        run = group_forward(model, group, train_mode=train_mode, rng=rng, dropout=dropout)
        stash.add(run)
        h, arg = pool_rows(run.h, mode) if pooled else (run.h, None)
        out, head_cache = model.head.forward(h, train=train_mode, dropout=dropout, rng=rng)
        logits.append(out)
        labels.append(y)
        if keep is not None:
            keep.append((run, head_cache, out, y))
        if grads is not None:
            dout = softmax(out)
            dout[np.arange(len(y)), y] -= 1.0
            dout /= len(item_ids)
            dh = model.head.backward(dout, head_cache, grads)
            if pooled:
                dh = pool_rows_backward(dh, run.h.shape, mode, arg)
            run.backward(dh, grads)
        del run   # free this pass's dense arrays and expert caches before the next unit
    return np.concatenate(logits), np.concatenate(labels), stash


def _mean_ce(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(-log_softmax(logits)[np.arange(len(labels)), labels].mean())


def _apply_importance(stash: _RouteStash, beta: float, grads: dict | None):
    totals = stash.totals()
    imp = _cv_squared(totals)
    if beta != 0.0 and grads is not None:
        stash.backward(beta * _cv_squared_grad(totals), grads)
    return imp, totals


# -- evaluation -------------------------------------------------------------

def evaluate(model: MoseModel, data: Dataset, cache: SubgraphCache, item_ids,
             plans: dict | None = None) -> Metrics:
    """Eval-mode metrics on the given items: graph ids, or node ids. ``plans``
    keeps the units' plans for later calls."""
    logits, truth, stash = _loss_pass(model, data, cache, item_ids, plans=plans)
    totals = stash.totals()
    pred = logits.argmax(axis=1)
    return Metrics(accuracy=accuracy_score(pred, truth),
                   macro_f1=macro_f1_score(pred, truth, data.class_count),
                   loss_task=_mean_ce(logits, truth),
                   loss_importance=_cv_squared(totals),
                   expert_load=totals)


# -- training ----------------------------------------------------------------

def _param_norms(model: MoseModel) -> dict:
    return {k: float(np.linalg.norm(v)) for k, v in model.parameters().items()}


def _row(epoch: int, split: str, m: Metrics) -> dict:
    """One ``metrics.csv`` row."""
    return {"epoch": epoch, "split": split, "loss_task": m.loss_task,
            "loss_importance": m.loss_importance, "accuracy": m.accuracy,
            "macro_f1": m.macro_f1, "expert_load": m.expert_load.tolist()}


def _carve_validation(train_ids, labels, fraction: float, seed: int):
    """Stratified validation carve-out; returns (train, val) id arrays."""
    rng = substream(seed, 300)
    train_ids = np.asarray(train_ids, dtype=np.int64)
    val = []
    for c in unique(labels[train_ids]):
        members = train_ids[labels[train_ids] == c]
        members = rng.permutation(members)
        take = int(np.floor(fraction * len(members)))
        val.extend(members[:take].tolist())
    val = sorted(val)
    keep = sorted(set(train_ids.tolist()) - set(val))
    return np.asarray(keep, dtype=np.int64), np.asarray(val, dtype=np.int64)


def train(model: MoseModel, data: Dataset, cache: SubgraphCache, split,
          cfg: TrainConfig, start_state: dict | None = None):
    """Run the optimization loop on one split; returns (model, Metrics, state),
    ``state`` what ``save_checkpoint`` writes and ``start_state`` resumes.

    ``split`` is (train ids, test ids) for graph tasks or (train, val, test)
    masks for node tasks. Two runs with the same seed and config produce
    identical parameters and metrics. ``start_state`` resumes a checkpoint.
    """
    params = model.parameters()
    adam = Adam(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    rows: list[dict] = []
    best = {"metric": -np.inf, "epoch": -1, "snapshot": None}
    start_epoch = 0
    since_best = 0
    if start_state is not None:
        model.load_snapshot(start_state["params"])
        adam.t = start_state["adam_t"]
        adam.m = {k: v.copy() for k, v in start_state["adam_m"].items()}
        adam.v = {k: v.copy() for k, v in start_state["adam_v"].items()}
        start_epoch = start_state["epoch_next"]
        # the final test row belongs to a finished run, not the trajectory
        rows = [r for r in start_state["rows"] if r["split"] != "test"]
        best = start_state["best"]
        if best["epoch"] >= 0:
            since_best = (start_epoch - 1) - best["epoch"]

    if data.task == "graph":
        train_ids, test_ids = np.asarray(split[0]), np.asarray(split[1])
        val_ids = np.zeros(0, dtype=np.int64)
        if cfg.patience > 0 and cfg.val_fraction > 0:
            train_ids, val_ids = _carve_validation(train_ids, data.labels(),
                                                   cfg.val_fraction, cfg.seed)
    else:
        train_ids, val_ids, test_ids = (np.nonzero(np.asarray(m, dtype=bool))[0]
                                        for m in split)
    # a graph task's units are its graphs, keyed by id, and each is planned once.
    # A node task's train chunks are reshuffled every epoch; keeping only its
    # val chunks' plans saved one build per epoch but raised the node-wide
    # benchmark's peak RSS by 3 MB, so its chunks are planned in every pass
    plans = {} if data.task == "graph" else None

    for epoch in range(start_epoch, cfg.epochs):
        order = substream(cfg.seed, 100, epoch).permutation(train_ids)
        if data.task == "graph":
            batches = [order[i:i + cfg.batch_size]
                       for i in range(0, len(order), cfg.batch_size)]
        else:
            batches = [order]
        ep_task, ep_imp, ep_correct = 0.0, 0.0, 0
        load = np.zeros(model.expert_count)
        for bi, batch in enumerate(batches):
            grads = model.zero_grads()
            logits, truth, stash = _loss_pass(
                model, data, cache, batch,
                lambda key: substream(cfg.seed, 200, epoch, key), cfg.dropout_rate, grads,
                plans)
            ce = _mean_ce(logits, truth)
            imp, totals = _apply_importance(stash, cfg.beta, grads)
            loss = total_loss(ce, imp, cfg.beta)
            if not np.isfinite(loss):
                raise NonFiniteLossError(epoch, bi, _param_norms(model))
            adam.step(params, grads)
            ep_task += ce * len(batch)
            ep_imp += imp
            ep_correct += int((logits.argmax(axis=1) == truth).sum())
            load += totals
        n_items = max(1, len(train_ids))
        rows.append(_row(epoch, "train", Metrics(
            accuracy=ep_correct / n_items, macro_f1=float("nan"),
            loss_task=ep_task / n_items, loss_importance=ep_imp / max(1, len(batches)),
            expert_load=load)))
        if len(val_ids) > 0:
            vm = evaluate(model, data, cache, val_ids, plans)
            rows.append(_row(epoch, "val", vm))
            if vm.accuracy > best["metric"]:
                best = {"metric": vm.accuracy, "epoch": epoch,
                        "snapshot": model.snapshot()}
                since_best = 0
            else:
                since_best += 1
                if cfg.patience > 0 and since_best >= cfg.patience:
                    break

    trajectory = model.snapshot()
    if best["snapshot"] is not None:
        model.load_snapshot(best["snapshot"])
    final = evaluate(model, data, cache, test_ids, plans)
    rows.append(_row(cfg.epochs, "test", final))
    state = {"params": trajectory, "adam_t": adam.t, "adam_m": adam.m,
             "adam_v": adam.v, "epoch_next": cfg.epochs, "rows": rows, "best": best}
    return model, final, state


# -- metrics CSV --------------------------------------------------------------

def metrics_csv(rows: list[dict], expert_count: int) -> str:
    header = ["epoch", "split", "loss_task", "loss_importance", "accuracy",
              "macro_f1"] + [f"expert_load_{k}" for k in range(expert_count)]
    lines = [",".join(header)]
    for r in rows:
        cells = [str(r["epoch"]), r["split"], repr(float(r["loss_task"])),
                 repr(float(r["loss_importance"])), repr(float(r["accuracy"])),
                 repr(float(r["macro_f1"]))]
        cells += [repr(float(x)) for x in r["expert_load"]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- checkpointing --------------------------------------------------------------

CHECKPOINT_VERSION = 3


def save_checkpoint(path: str, model: MoseModel, state: dict,
                    train_cfg: TrainConfig, data_hash: str):
    groups = {"param": state["params"], "adam_m": state["adam_m"],
              "adam_v": state["adam_v"], "best": state["best"]["snapshot"] or {}}
    arrays = {f"{g}/{k}": v for g, group in groups.items() for k, v in group.items()}
    meta = {
        "version": CHECKPOINT_VERSION,
        "seed": model.seed,
        "adam_t": state["adam_t"],
        "epoch_next": state["epoch_next"],
        "rows": state["rows"],
        "best_metric": state["best"]["metric"],
        "best_epoch": state["best"]["epoch"],
        "model_config": asdict(model.cfg),
        "kernel_config": asdict(model.kernel_cfg),
        "train_config": asdict(train_cfg),
        "dataset_hash": data_hash,
    }
    # a file object, so np.savez writes exactly ``path`` (given a name, it adds ".npz")
    with atomic_write(path, binary=True) as f:
        np.savez(f, meta=json.dumps(meta, default=float), **arrays)


def load_checkpoint(path: str):
    """(model, state, TrainConfig, dataset hash) from a save_checkpoint file;
    any other file raises FormatError naming ``path``, and a member that does
    not fit the model it describes is named too."""
    try:
        return _read_checkpoint(path)
    except (FileNotFoundError, FormatError):
        raise
    except KeyError as e:
        raise FormatError(f"{path}: not a mose checkpoint: missing {e}") from None
    except (OSError, ValueError, TypeError, zipfile.BadZipFile) as e:
        raise FormatError(f"{path}: not a mose checkpoint: {e}") from None


# the meta record as save_checkpoint writes it: each key's JSON type is int,
# float (any number) or str, never a bool; (list, t) is a list of t, a dict
# of keys an object, and a config dataclass an object whose fields take the
# _FIELD_TYPES of their annotations (KernelConfig.lambdas holds numbers,
# ModelConfig.sizes integers)
_ROW = {"epoch": int, "split": str, "loss_task": float, "loss_importance": float,
        "accuracy": float, "macro_f1": float, "expert_load": (list, float)}
_META = {"model_config": ModelConfig, "kernel_config": KernelConfig, "seed": int,
         "adam_t": int, "epoch_next": int, "rows": (list, _ROW), "best_metric": float,
         "best_epoch": int, "train_config": TrainConfig, "dataset_hash": str}
_FIELD_TYPES = {"int": int, "float": float, "str": str, "tuple": (list, float),
                "tuple | None": (list, int)}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object"}


def _defect(value, kind, path: str = "") -> str | None:
    """The first thing that keeps ``value`` from being of JSON type ``kind``,
    named by its path (``rows[0].split``; a list of non-objects by the list's),
    if any. A key missing from the top-level record raises KeyError."""
    if is_dataclass(kind):
        kind = {f.name: _FIELD_TYPES[f.type] for f in fields(kind)}
    base = dict if isinstance(kind, dict) else list if isinstance(kind, tuple) else kind
    if not isinstance(value, (int, float) if base is float else base) \
            or isinstance(value, bool):
        return f"{path} must be {_TYPE_NAMES[base]}, got {value!r}"
    if base is list:
        for i, item in enumerate(value):
            inner = f"{path}[{i}]" if isinstance(kind[1], dict) else path
            if (why := _defect(item, kind[1], inner)):
                return why
    for key, item_kind in kind.items() if base is dict else ():
        if path and key not in value:
            return f"{path}.{key} is missing"
        if (why := _defect(value[key], item_kind, f"{path}.{key}" if path else key)):
            return why
    return None


def _read_checkpoint(path: str):
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (EOFError, ValueError, zipfile.BadZipFile):
        raise ValueError("not an npz archive") from None
    if "meta" not in arrays:
        raise ValueError("no meta record")
    text = arrays.pop("meta")
    if text.dtype.kind != "U" or text.shape != ():
        raise FormatError(f"{path}: meta: {text.dtype} array of shape {text.shape}, "
                          "expected one string")
    meta = json.loads(str(text))
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta: must be an object, got {meta!r}")
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported version {meta['version']}")
    if (why := _defect(meta, _META)):
        raise FormatError(f"{path}: meta: {why}")
    model = new_model(ModelConfig(**meta["model_config"]),
                      KernelConfig(**meta["kernel_config"]), seed=meta["seed"])
    # every member's shape: Adam's moments exist once it has stepped, the best
    # snapshot once a validation pass has set it, and each holds every parameter
    groups = ["param"] + ["adam_m", "adam_v"] * (meta["adam_t"] > 0) \
        + ["best"] * (meta["best_epoch"] >= 0)
    shapes = {f"{g}/{k}": v.shape for g in groups for k, v in model.parameters().items()}
    for member, arr in arrays.items():
        if member not in shapes:
            raise FormatError(f"{path}: {member}: not a member of this model's checkpoint")
        if arr.dtype.kind != "f" or arr.shape != shapes[member]:
            raise FormatError(f"{path}: {member}: {arr.dtype} array of shape {arr.shape}, "
                              f"expected floats of shape {shapes[member]}")
    for member in shapes:
        if member not in arrays:
            raise FormatError(f"{path}: {member}: missing")

    def group(name):
        return {k[len(name) + 1:]: v for k, v in arrays.items() if k.startswith(name + "/")}

    params = group("param")
    model.load_snapshot(params)
    state = {
        "params": params,
        "adam_t": meta["adam_t"],
        "adam_m": group("adam_m"),
        "adam_v": group("adam_v"),
        "epoch_next": meta["epoch_next"],
        "rows": meta["rows"],
        "best": {"metric": meta["best_metric"], "epoch": meta["best_epoch"],
                 "snapshot": group("best") or None},
    }
    tcfg = TrainConfig(**meta["train_config"])
    return model, state, tcfg, meta["dataset_hash"]


# -- gradient checking ----------------------------------------------------------

def frozen_loss(model: MoseModel, data: Dataset, cache: SubgraphCache,
                item_ids, cfg: TrainConfig, rng, grads: dict | None,
                train_mode: bool = True, keep: list | None = None):
    """Loss (and, given ``grads``, its gradients) for a fixed batch: every
    unit draws its routing noise and dropout masks in turn from the one ``rng``.
    ``keep`` receives the units' state (``_loss_pass``).

    Returns (loss, picks) where picks records the top-k selections so
    callers can detect selection flips under perturbation.
    """
    dropout = cfg.dropout_rate if train_mode else 0.0
    logits, truth, stash = _loss_pass(model, data, cache, item_ids,
                                      (lambda key: rng) if train_mode else None,
                                      dropout, grads, keep=keep)
    imp, _ = _apply_importance(stash, cfg.beta, grads)
    picks = [idx for idx, _ in stash.items]
    return total_loss(_mean_ce(logits, truth), imp, cfg.beta), picks


def _staged_loss(model: MoseModel, units: list, truth: np.ndarray, name: str,
                 beta: float, imp: float, pooled: bool) -> float | None:
    """The loss of a ``frozen_loss`` pass after a change to parameter ``name``
    alone, rerunning from the ``units`` a base pass kept only the stages that
    read it: ``head.*`` the head; ``combine.*`` also the combine step;
    ``expert{m}.mlp.*`` also expert m's MLP, and ``expert{m}.W``/``.Z`` its
    kernel values too, on the units routed to m; ``gating.*`` the gate, the
    combine step, the head and the balance penalty, which is ``imp`` for any
    other name. The stages replay the base pass's noise and masks, which a
    full rerun draws again as long as no unit's picks change; None when the
    gate picks other experts in a unit.
    """
    stage = name.split(".")[0]
    stash = _RouteStash(model.expert_count, maps=False)
    logits = []
    for run, (head_acts, head_masks), out, _ in units:
        zeta, outputs = run.zeta, {m: c[2] for m, c in run.expert_caches.items()}
        if stage == "gating":
            idx, zeta, _ = gate(model, run.eta, run.eps)
            if not np.array_equal(idx, run.idx):
                return None
            stash.items.append((idx, zeta))
        elif stage.startswith("expert"):
            m = int(stage[len("expert"):])
            if m not in outputs:
                logits.append(out)
                continue
            _, (acts, masks), _ = run.expert_caches[m]
            if name.startswith(stage + ".mlp."):
                outputs[m] = model.bank.experts[m].transform.forward(acts[0], masks=masks)[0]
            else:
                outputs[m] = expert_forward(model, m, run.group, run.moments,
                                            run.expert_rows[m][0], masks=masks)[2]
        x = head_acts[0]
        if stage != "head":
            h = combine(model, zeta, run.expert_rows, outputs)[0]
            x = pool_rows(h, model.cfg.readout_mode)[0] if pooled else h
        logits.append(model.head.forward(x, masks=head_masks)[0])
    if stage == "gating":
        imp = _cv_squared(stash.totals())
    return total_loss(_mean_ce(np.concatenate(logits), truth), imp, beta)


def grad_check(model: MoseModel, data: Dataset, cache: SubgraphCache,
               item_ids, cfg: TrainConfig, step: float = 1e-5,
               train_mode: bool = True) -> float:
    """Compare analytic gradients against central finite differences.

    One base pass (``frozen_loss``) keys its routing noise and dropout from
    ``substream(seed, 500)`` and keeps every unit's state; each perturbed
    evaluation reruns from it only the stages downstream of the perturbed
    tensor (``_staged_loss``), with the base pass's draws. A unit draws the
    noise (B x E), then one mask per routed expert in expert-id order, then
    the head's mask, so the shapes depend only on the top-k picks: a full
    rerun with the base picks draws the base values, and the staged loss is
    the full rerun's bit for bit. If a perturbation flips a top-k selection
    the step shrinks, and a persistent flip is an error. Returns the max
    relative error over every entry of every parameter tensor, NaN if any
    entry's is NaN. ``step`` must be finite and > 0.
    """
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    rng = substream(cfg.seed, 500) if train_mode else None
    grads, units = model.zero_grads(), []
    base_loss, _ = frozen_loss(model, data, cache, item_ids, cfg, rng, grads, train_mode,
                               keep=units)
    if not np.isfinite(base_loss):
        raise NonFiniteLossError(0, 0, _param_norms(model))
    truth = np.concatenate([y for *_, y in units])
    base = _RouteStash(model.expert_count, maps=False)
    for run, *_ in units:
        base.add(run)
    imp = _cv_squared(base.totals())
    pooled = data.task == "graph"
    params = model.parameters()
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            h = step
            for _attempt in range(3):
                try:
                    arr[ix] = orig + h
                    lp = _staged_loss(model, units, truth, name, cfg.beta, imp, pooled)
                    arr[ix] = orig - h
                    lm = _staged_loss(model, units, truth, name, cfg.beta, imp, pooled)
                finally:
                    arr[ix] = orig
                if lp is not None and lm is not None:
                    break
                h /= 10.0
            else:
                raise RuntimeError(f"top-k selection keeps flipping at {name}{ix}")
            numeric = (lp - lm) / (2 * h)
            analytic = grads[name][ix]
            scale = max(abs(numeric), abs(analytic), 1.0)
            worst = np.maximum(worst, abs(numeric - analytic) / scale)   # keeps a NaN
    return float(worst)
