"""Command-line surface: gen, extract, train, verify, export-hidden.

Configuration precedence is defaults < config file < flags; the config
file is plain ``key=value`` lines (hyphens and underscores both accepted),
and unknown keys are rejected. Exit codes: 0 ok, 1 verification failure,
2 runtime/numeric failure (any unexpected exception included), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .datasets import (Dataset, gen_graph_cycle, gen_graph_five, load_tu_dataset,
                       make_folds, make_node_splits, save_tu_dataset)
from .kernel import KernelConfig, hidden_graph_to_dot
from .moe import ModelConfig, new_model
from .trainer import (NonFiniteLossError, TrainConfig, load_checkpoint, metrics_csv,
                      save_checkpoint, train)
from .util import (BudgetError, FormatError, atomic_write, hash_arrays, read_text_lines,
                   write_manifest)
from .verify import SUITES, run_suite
from .walks import SubgraphCache, WalkConfig, extract_dataset, load_cache, save_cache

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


DEFAULTS = {
    "seed": 0,
    "walk_length": 8,
    "walks_per_node": 20,
    "k_walk": 5,
    "subgraph_cap": 64,
    "steps": 3,
    "step_mode": "concat-over-p",
    "experts": 5,
    "hidden_graphs": 8,
    "k_ept": 2,
    "embed_dim": 32,
    "combine_mode": "weighted-sum",
    "readout_mode": "mean",
    "gate_activation": "relu",
    "beta": 0.1,
    "epochs": 100,
    "lr": 1e-3,
    "dropout": 0.2,
    "batch_size": 32,
    "patience": 25,
    "val_fraction": 0.1,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
    "folds": 10,
    "fold_index": 0,
    "threads": 1,
    "lambda_decay": 1.0,
}


def _parse_config_file(path: str) -> dict:
    """The typed settings of a ``key=value`` file. Over the defaults they must
    build every config, or the line where they stop doing so is a usage error."""
    typed = []
    for ln, line in enumerate(read_text_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        kind = type(DEFAULTS[key])
        try:
            typed.append((ln, key, kind(value)))
        except ValueError:
            article = "an" if kind is int else "a"
            raise UsageError(f"{path}:{ln}: {key} must be {article} "
                             f"{kind.__name__}, got {value!r}") from None
    out = {key: value for _, key, value in typed}
    if _settings_error(DEFAULTS | out):
        settings = dict(DEFAULTS)
        for ln, key, value in typed:
            settings[key] = value
            if error := _settings_error(settings):
                raise UsageError(f"{path}:{ln}: {error}")
    return out


def _settings_error(cfg: dict) -> str | None:
    """The message of the first config the settings cannot build, if any."""
    try:
        _walk_config(cfg)
        _kernel_config(cfg)
        _train_config(cfg)
        _model_config(cfg, feature_dim=1, class_count=2)
    except ValueError as e:
        return str(e)
    if not 0 <= cfg["fold_index"] < cfg["folds"]:
        return (f"fold_index must lie in 0..{cfg['folds'] - 1} (folds = {cfg['folds']}), "
                f"got {cfg['fold_index']}")
    return None


def _merged_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_parse_config_file(args.config))
    for key in DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
    return cfg


def _add_shared_flags(p: Parser):
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--dataset", dest="dataset")
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--walk-length", type=int, dest="walk_length")
    p.add_argument("--walks-per-node", type=int, dest="walks_per_node")
    p.add_argument("--k-walk", type=int, dest="k_walk")
    p.add_argument("--subgraph-cap", type=int, dest="subgraph_cap")
    p.add_argument("--steps", type=int, dest="steps")
    p.add_argument("--step-mode", dest="step_mode",
                   choices=["single-p", "sum-over-p", "concat-over-p"])
    p.add_argument("--experts", type=int, dest="experts")
    p.add_argument("--hidden-graphs", type=int, dest="hidden_graphs")
    p.add_argument("--k-ept", type=int, dest="k_ept")
    p.add_argument("--beta", type=float, dest="beta")
    p.add_argument("--epochs", type=int, dest="epochs")
    p.add_argument("--lr", type=float, dest="lr")
    p.add_argument("--dropout", type=float, dest="dropout")
    p.add_argument("--folds", type=int, dest="folds")
    p.add_argument("--threads", type=int, dest="threads")
    p.add_argument("--out-dir", dest="out_dir", default="mose-out")
    p.add_argument("--config", dest="config")


def _walk_config(cfg) -> WalkConfig:
    return WalkConfig(walk_length=cfg["walk_length"],
                      walks_per_node=cfg["walks_per_node"],
                      pattern_budget=cfg["k_walk"],
                      subgraph_cap=cfg["subgraph_cap"],
                      seed=cfg["seed"])


def _kernel_config(cfg) -> KernelConfig:
    if cfg["lambda_decay"] == 1.0:
        return KernelConfig(max_step=cfg["steps"], step_mode=cfg["step_mode"])
    return KernelConfig.geometric(cfg["steps"], cfg["lambda_decay"], cfg["step_mode"])


def _train_config(cfg) -> TrainConfig:
    return TrainConfig(epochs=cfg["epochs"], learning_rate=cfg["lr"],
                       beta=cfg["beta"], batch_size=cfg["batch_size"],
                       k_ept=cfg["k_ept"], adam_beta1=cfg["adam_beta1"],
                       adam_beta2=cfg["adam_beta2"], adam_eps=cfg["adam_eps"],
                       dropout_rate=cfg["dropout"], seed=cfg["seed"],
                       patience=cfg["patience"], val_fraction=cfg["val_fraction"])


def dataset_hash(data: Dataset) -> str:
    arrays = []
    for g in data.graphs:
        arrays.extend([g.offsets, g.neighbors, g.features])
        arrays.append(np.array([-1 if g.graph_label is None else g.graph_label]))
        if g.node_labels is not None:
            arrays.append(g.node_labels)
    return hash_arrays(arrays)


def _load_dataset(cfg, args) -> Dataset:
    if not args.data_dir or not args.dataset:
        raise UsageError("--data-dir and --dataset are required")
    return load_tu_dataset(os.path.join(args.data_dir, args.dataset), args.dataset)


def _model_config(cfg, feature_dim: int, class_count: int, task="graph") -> ModelConfig:
    return ModelConfig(feature_dim=feature_dim, class_count=class_count,
                       experts=cfg["experts"], hidden_per_expert=cfg["hidden_graphs"],
                       embed_dim=cfg["embed_dim"], k_ept=cfg["k_ept"],
                       combine_mode=cfg["combine_mode"],
                       readout_mode=cfg["readout_mode"],
                       gate_activation=cfg["gate_activation"], task=task)


def _differences(built: dict, wanted: dict) -> list[str]:
    return [f"{k}={built[k]} (run: {wanted[k]})" for k in wanted if built[k] != wanted[k]]


def _check_cache(cache: SubgraphCache, path: str, data: Dataset, wcfg: WalkConfig):
    """Refuse a cache built with other settings (usage error) or for graphs
    other than the loaded dataset's (format error)."""
    diff = _differences({"dataset": cache.dataset_name} | asdict(cache.cfg),
                        {"dataset": data.name} | asdict(wcfg))
    if diff:
        raise UsageError(f"{path}: cache was built with other settings: "
                         + ", ".join(diff) + "; rerun mose extract")
    if len(cache.records) != len(data.graphs):
        raise FormatError(f"{path}: cache has {len(cache.records)} graphs, "
                          f"dataset {data.name} has {len(data.graphs)}")
    for gi, (recs, g) in enumerate(zip(cache.records, data.graphs)):
        if len(recs) != g.node_count:
            raise FormatError(f"{path}: graph {gi} has {len(recs)} cached nodes, "
                              f"dataset {data.name} has {g.node_count}")


def _check_checkpoint(model, path: str, mcfg: ModelConfig, kcfg: KernelConfig):
    """Refuse to resume a checkpoint whose model or kernel differs from the run's."""
    diff = _differences(asdict(model.cfg) | asdict(model.kernel_cfg),
                        asdict(mcfg) | asdict(kcfg))
    if diff:
        raise UsageError(f"{path}: checkpoint was trained with other settings: "
                         + ", ".join(diff) + "; use another --out-dir to start afresh")


# -- commands -----------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = _merged_config(args)
    if not args.dataset or args.dataset not in ("GraphCycle", "GraphFive"):
        raise UsageError("--dataset must be GraphCycle or GraphFive")
    gen = gen_graph_cycle if args.dataset == "GraphCycle" else gen_graph_five
    data = gen(args.count, cfg["seed"])
    out = os.path.join(args.out_dir, args.dataset)
    save_tu_dataset(data, out)
    write_manifest(args.out_dir, "gen", cfg | {"count": args.count,
                                               "dataset": args.dataset},
                   cfg["seed"], dataset_hash(data))
    print(f"wrote {len(data.graphs)} graphs ({data.class_count} classes) to {out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    cfg = _merged_config(args)
    data = _load_dataset(cfg, args)
    wcfg = _walk_config(cfg)
    cache_path = args.cache_out or os.path.join(args.out_dir, f"{args.dataset}.cache")
    if os.path.exists(cache_path):
        try:
            _check_cache(load_cache(cache_path), cache_path, data, wcfg)
        except (UsageError, FormatError) as problem:
            print(f"recomputing: {problem}")
        else:
            print(f"cache {cache_path} is up to date; skipping recompute")
            write_manifest(args.out_dir, "extract", cfg, cfg["seed"],
                           dataset_hash(data))
            return EXIT_OK
    cache = extract_dataset(data.graphs, args.dataset, wcfg,
                            threads=cfg["threads"])
    save_cache(cache_path, cache)
    write_manifest(args.out_dir, "extract", cfg, cfg["seed"], dataset_hash(data))
    totals = {}
    for table in cache.pattern_tables:
        for pat, cnt in table:
            totals[pat] = totals.get(pat, 0) + cnt
    singletons = sum(1 for recs in cache.records for r in recs if len(r) == 1)
    print(f"extracted {sum(len(r) for r in cache.records)} subgraphs "
          f"({singletons} singleton fallbacks) -> {cache_path}")
    print("pattern, count")
    for pat, cnt in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{'-'.join(str(x) for x in pat)}, {cnt}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    if not 0 <= cfg["fold_index"] < cfg["folds"]:
        raise UsageError(f"--fold-index must lie in 0..{cfg['folds'] - 1} "
                         f"(--folds {cfg['folds']}), got {cfg['fold_index']}")
    data = _load_dataset(cfg, args)
    wcfg = _walk_config(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    cache_path = args.cache or os.path.join(args.out_dir, f"{args.dataset}.cache")
    if os.path.exists(cache_path):
        cache = load_cache(cache_path)
        _check_cache(cache, cache_path, data, wcfg)
    else:
        cache = extract_dataset(data.graphs, args.dataset, wcfg,
                                threads=cfg["threads"])
        save_cache(cache_path, cache)
    kcfg = _kernel_config(cfg)
    tcfg = _train_config(cfg)
    mcfg = _model_config(cfg, data.feature_dim, data.class_count, data.task)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.npz")
    start_state = None
    if os.path.exists(ckpt_path):
        model, start_state, _ = load_checkpoint(ckpt_path)
        _check_checkpoint(model, ckpt_path, mcfg, kcfg)
        print(f"resuming from {ckpt_path} at epoch {start_state['epoch_next']}")
    else:
        model = new_model(mcfg, kcfg, seed=cfg["seed"])

    if data.task == "graph":
        plan = make_folds(data, cfg["folds"], cfg["seed"])
        split = plan.folds[cfg["fold_index"]]
    else:
        plan = make_node_splits(data, (0.6, 0.2, 0.2), cfg["seed"])
        split = plan.masks

    if start_state is not None and start_state["epoch_next"] >= tcfg.epochs:
        rows = start_state["rows"]
        print("checkpoint already covers the requested epochs; outputs rewritten")
    else:
        try:
            model, _, state = train(model, data, cache, split, tcfg,
                                    start_state=start_state)
        except NonFiniteLossError as e:
            os.makedirs(args.out_dir, exist_ok=True)
            with atomic_write(os.path.join(args.out_dir, "failure-dump.json")) as f:
                json.dump(e.dump(), f, indent=2)
            print(f"numeric failure: {e}", file=sys.stderr)
            return EXIT_RUNTIME
        save_checkpoint(ckpt_path, model, state, tcfg)
        rows = state["rows"]
    os.makedirs(args.out_dir, exist_ok=True)
    with atomic_write(os.path.join(args.out_dir, "metrics.csv")) as f:
        f.write(metrics_csv(rows, model.expert_count))
    write_manifest(args.out_dir, "train", cfg, cfg["seed"], dataset_hash(data))
    test_rows = [r for r in rows if r["split"] == "test"]
    if test_rows:
        print(f"test accuracy {test_rows[-1]['accuracy']:.4f} "
              f"macro-f1 {test_rows[-1]['macro_f1']:.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _merged_config(args)
    suites = [args.suite] if args.suite else sorted(SUITES)
    all_ok = True
    os.makedirs(args.out_dir, exist_ok=True)
    report_lines = []
    for name in suites:
        kwargs = {"seed": cfg["seed"]}
        if name == "kernel-oracle":
            kwargs.update(max_nodes=args.max_nodes, max_p=args.max_p)
        rep = run_suite(name, **kwargs)
        for line in rep.lines():
            print(line)
            report_lines.append(line)
        all_ok = all_ok and rep.ok
    with atomic_write(os.path.join(args.out_dir, "verify-report.txt")) as f:
        f.write("\n".join(report_lines) + "\n")
    write_manifest(args.out_dir, "verify", cfg | {"suites": suites}, cfg["seed"])
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_export_hidden(args) -> int:
    cfg = _merged_config(args)
    model, _, _ = load_checkpoint(args.checkpoint)
    os.makedirs(args.out_dir, exist_ok=True)
    count = 0
    for k, expert in enumerate(model.bank.experts):
        for i, hg in enumerate(expert.hidden):
            path = os.path.join(args.out_dir, f"expert{k}_hg{i}.dot")
            with atomic_write(path) as f:
                f.write(hidden_graph_to_dot(hg, name=f"expert{k}_hg{i}",
                                            prune_threshold=args.prune_threshold))
            count += 1
    write_manifest(args.out_dir, "export-hidden",
                   cfg | {"checkpoint": args.checkpoint,
                          "prune_threshold": args.prune_threshold}, cfg["seed"])
    print(f"wrote {count} DOT files to {args.out_dir}")
    return EXIT_OK


def build_parser() -> Parser:
    parser = Parser(prog="mose",
                    description="Subgraph-expert graph learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset in TU layout")
    _add_shared_flags(p_gen)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.set_defaults(fn=cmd_gen)

    p_ext = sub.add_parser("extract", help="extract walk-based subgraphs to a cache")
    _add_shared_flags(p_ext)
    p_ext.add_argument("--cache-out", dest="cache_out")
    p_ext.set_defaults(fn=cmd_extract)

    p_tr = sub.add_parser("train", help="train a model on one split")
    _add_shared_flags(p_tr)
    p_tr.add_argument("--cache", dest="cache")
    p_tr.add_argument("--fold-index", type=int, dest="fold_index", default=None)
    p_tr.set_defaults(fn=cmd_train)

    p_ver = sub.add_parser("verify", help="run verification suites")
    _add_shared_flags(p_ver)
    p_ver.add_argument("--suite", choices=sorted(SUITES))
    p_ver.add_argument("--max-nodes", type=int, dest="max_nodes", default=6)
    p_ver.add_argument("--max-p", type=int, dest="max_p", default=4)
    p_ver.set_defaults(fn=cmd_verify)

    p_exp = sub.add_parser("export-hidden", help="export hidden graphs as DOT")
    _add_shared_flags(p_exp)
    p_exp.add_argument("--checkpoint", required=True)
    p_exp.add_argument("--prune-threshold", type=float, dest="prune_threshold",
                       default=0.01)
    p_exp.set_defaults(fn=cmd_export_hidden)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetError, FormatError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:
        # exit 1 means a verification failed, so a fault never exits with it
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
