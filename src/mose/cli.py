"""Command-line surface: gen, extract, train, verify, export-hidden.

Each setting is declared once, in ``SETTINGS``, and checked before a command
reads or writes any file. Precedence is defaults < config file (``key=value``
lines, hyphens or underscores, unknown keys rejected) < flags; the first config
line (named ``path:line``) or flag from which the settings stop building every
config is a usage error. Exit codes: 0 ok, 1 verification failure, 2
runtime/numeric failure (any unexpected exception included), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .datasets import (SHAPE_LAYOUTS, Dataset, gen_graph_cycle, gen_graph_five,
                       load_tu_dataset, make_folds, make_node_splits, save_tu_dataset)
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


# Every setting once. A key that configures the library names the dataclass
# fields it sets, whose default (the first field's) and type it takes; a
# CLI-only key gives its default here.
SETTINGS = {
    "seed": ("WalkConfig.seed", "TrainConfig.seed"),
    "walk_length": ("WalkConfig.walk_length",),
    "walks_per_node": ("WalkConfig.walks_per_node",),
    "k_walk": ("WalkConfig.pattern_budget",),
    "subgraph_cap": ("WalkConfig.subgraph_cap",),
    "steps": ("KernelConfig.max_step",),
    "step_mode": ("KernelConfig.step_mode",),
    "experts": ("ModelConfig.experts",),
    "hidden_graphs": ("ModelConfig.hidden_per_expert",),
    "k_ept": ("ModelConfig.k_ept", "TrainConfig.k_ept"),
    "embed_dim": ("ModelConfig.embed_dim",),
    "combine_mode": ("ModelConfig.combine_mode",),
    "readout_mode": ("ModelConfig.readout_mode",),
    "gate_activation": ("ModelConfig.gate_activation",),
    "beta": ("TrainConfig.beta",),
    "epochs": ("TrainConfig.epochs",),
    "lr": ("TrainConfig.learning_rate",),
    "dropout": ("TrainConfig.dropout_rate",),
    "batch_size": ("TrainConfig.batch_size",),
    "patience": ("TrainConfig.patience",),
    "val_fraction": ("TrainConfig.val_fraction",),
    "adam_beta1": ("TrainConfig.adam_beta1",),
    "adam_beta2": ("TrainConfig.adam_beta2",),
    "adam_eps": ("TrainConfig.adam_eps",),
    "folds": 10,
    "fold_index": 0,
    "threads": 1,
    "lambda_decay": 1.0,     # KernelConfig.geometric's decay
}
CONFIGS = {cls.__name__: cls for cls in (WalkConfig, KernelConfig, ModelConfig, TrainConfig)}
# (config class, field, key) for every dataclass field a setting sets
TARGETS = [(CONFIGS[cls], field, key) for key, specs in SETTINGS.items()
           if isinstance(specs, tuple) for cls, field in (s.split(".") for s in specs)]
DEFAULTS = {key: next((getattr(cls, field) for cls, field, k in TARGETS if k == key), specs)
            for key, specs in SETTINGS.items()}
# the settings every command takes as a flag; train adds --fold-index
FLAGGED = ("seed", "walk_length", "walks_per_node", "k_walk", "subgraph_cap", "steps",
           "step_mode", "experts", "hidden_graphs", "k_ept", "beta", "epochs", "lr",
           "dropout", "folds", "threads")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _config(cls, cfg: dict, **data):
    """The ``cls`` config of the settings ``cfg``; ``data`` gives ModelConfig's dataset fields."""
    if cls is KernelConfig and cfg["lambda_decay"] != 1.0:
        return KernelConfig.geometric(cfg["steps"], cfg["lambda_decay"], cfg["step_mode"])
    return cls(**{field: cfg[key] for c, field, key in TARGETS if c is cls}, **data)


def _settings_error(cfg: dict, as_flags: bool = False) -> str | None:
    """Why the settings cannot run, if they cannot: the first config they do not
    build, or a CLI-only key out of range (named as a flag or a config key)."""
    try:
        for cls in (WalkConfig, KernelConfig, TrainConfig):
            _config(cls, cfg)
        _config(ModelConfig, cfg, feature_dim=1, class_count=2)
    except ValueError as e:
        return str(e)
    name, eq = (_flag, " ") if as_flags else (str, " = ")
    folds, fold_index, threads = cfg["folds"], cfg["fold_index"], cfg["threads"]
    if folds < 2:
        return f"{name('folds')} must be >= 2, got {folds}"
    if not 0 <= fold_index < folds:
        return (f"{name('fold_index')} must lie in 0..{folds - 1} "
                f"({name('folds')}{eq}{folds}), got {fold_index}")
    if threads < 1:
        return f"{name('threads')} must be >= 1, got {threads}"
    return None


def _apply(cfg: dict, changes: list, as_flags: bool) -> dict:
    """``cfg`` with ``changes`` [(where, key, value)] applied in order. When
    the result does not run, the first change from which it stops is a usage
    error named by its ``where`` (unless the message already names the flags)."""
    out = cfg | {key: value for _, key, value in changes}
    if _settings_error(out, as_flags):
        step = dict(cfg)
        for where, key, value in changes:
            step[key] = value
            if error := _settings_error(step, as_flags):
                raise UsageError(error if error.startswith("--") else f"{where}: {error}")
    return out


def _config_lines(path: str) -> list:
    """The typed (path:line, key, value) settings of a ``key=value`` file."""
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
            typed.append((f"{path}:{ln}", key, kind(value)))
        except ValueError:
            article = "an" if kind is int else "a"
            raise UsageError(f"{path}:{ln}: {key} must be {article} "
                             f"{kind.__name__}, got {value!r}") from None
    return typed


def _merged_config(args) -> dict:
    """Defaults < config file < flags, the file checked over the defaults and the
    flags over both, before the command does any work."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg = _apply(cfg, _config_lines(args.config), as_flags=False)
    flags = [(f"{_flag(key)} {value}", key, value) for key in SETTINGS
             if (value := getattr(args, key, None)) is not None]
    return _apply(cfg, flags, as_flags=True)


def _add_shared_flags(p: Parser):
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--dataset", dest="dataset")
    for key in FLAGGED:
        p.add_argument(_flag(key), type=type(DEFAULTS[key]), dest=key)
    p.add_argument("--out-dir", dest="out_dir", default="mose-out")
    p.add_argument("--config", dest="config")


def dataset_hash(data: Dataset) -> str:
    arrays = []
    for g in data.graphs:
        arrays.extend([g.offsets, g.neighbors, g.features])
        arrays.append(np.array([-1 if g.graph_label is None else g.graph_label]))
        if g.node_labels is not None:
            arrays.append(g.node_labels)
    return hash_arrays(arrays)


def _load_dataset(args) -> Dataset:
    if not args.data_dir or not args.dataset:
        raise UsageError("--data-dir and --dataset are required")
    return load_tu_dataset(os.path.join(args.data_dir, args.dataset), args.dataset)


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
    if args.dataset not in SHAPE_LAYOUTS:
        raise UsageError("--dataset must be GraphCycle or GraphFive")
    classes = len(SHAPE_LAYOUTS[args.dataset])
    if args.count < classes:
        raise UsageError(f"--count must be >= {classes}, one graph per {args.dataset} "
                         f"class, got {args.count}")
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
    data = _load_dataset(args)
    wcfg = _config(WalkConfig, cfg)
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


def _graph_fold(data: Dataset, cfg: dict):
    """The run's (train, test) fold of a graph dataset. A fold with an empty part
    is a usage error, raised before any file is written."""
    folds, fold_index = cfg["folds"], cfg["fold_index"]
    split = make_folds(data, folds, cfg["seed"]).folds[fold_index]
    for part, ids in zip(("train", "test"), split):
        if len(ids) == 0:
            raise UsageError(f"--folds {folds} --fold-index {fold_index}: the {part} part "
                             f"is empty ({data.name} has {len(data.graphs)} graphs)")
    return split


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    data = _load_dataset(args)
    # node masks are drawn after extraction: drawn before it, they raised the
    # node-wide benchmark's peak RSS by 3 MB through the heap layout
    split = _graph_fold(data, cfg) if data.task == "graph" else None
    wcfg = _config(WalkConfig, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    cache_path = args.cache or os.path.join(args.out_dir, f"{args.dataset}.cache")
    if os.path.exists(cache_path):
        cache = load_cache(cache_path)
        _check_cache(cache, cache_path, data, wcfg)
    else:
        cache = extract_dataset(data.graphs, args.dataset, wcfg,
                                threads=cfg["threads"])
        save_cache(cache_path, cache)
    kcfg = _config(KernelConfig, cfg)
    tcfg = _config(TrainConfig, cfg)
    mcfg = _config(ModelConfig, cfg, feature_dim=data.feature_dim,
                   class_count=data.class_count, task=data.task)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.npz")
    start_state = None
    if os.path.exists(ckpt_path):
        model, start_state, _ = load_checkpoint(ckpt_path)
        _check_checkpoint(model, ckpt_path, mcfg, kcfg)
        print(f"resuming from {ckpt_path} at epoch {start_state['epoch_next']}")
    else:
        model = new_model(mcfg, kcfg, seed=cfg["seed"])

    if split is None:
        split = make_node_splits(data, (0.6, 0.2, 0.2), cfg["seed"]).masks
    if start_state is not None and start_state["epoch_next"] >= tcfg.epochs:
        rows = start_state["rows"]
        print("checkpoint already covers the requested epochs; outputs rewritten")
    else:
        try:
            model, _, state = train(model, data, cache, split, tcfg,
                                    start_state=start_state)
        except NonFiniteLossError as e:
            with atomic_write(os.path.join(args.out_dir, "failure-dump.json")) as f:
                json.dump(e.dump(), f, indent=2)
            print(f"numeric failure: {e}", file=sys.stderr)
            return EXIT_RUNTIME
        save_checkpoint(ckpt_path, model, state, tcfg)
        rows = state["rows"]
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
    for flag, value, low in (("--max-nodes", args.max_nodes, 2), ("--max-p", args.max_p, 1)):
        if value < low:
            raise UsageError(f"{flag} must be >= {low}, got {value}")
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
    p_tr.add_argument("--fold-index", type=int, dest="fold_index")
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
