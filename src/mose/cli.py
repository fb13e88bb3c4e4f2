"""Command-line surface: gen, extract, train, verify, export-hidden.

Each setting is declared once, in ``SETTINGS``; a command takes flags only for
those it reads (``READS``), and its manifest records just those. Precedence is
defaults < config file (``key=value`` lines, hyphens or underscores, unknown
keys rejected) < flags. Before a command reads or writes any file, the first
config line (named ``path:line``) or flag from which the settings stop building
every config is a usage error, as is a flag the command does not take. Exit
codes: 0 ok, 1 verification failure, 2 runtime/numeric failure (any unexpected
exception included), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

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
    "k_ept": ("ModelConfig.k_ept",),
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
# the settings a flag can set; the others only a config line
FLAGGED = ("seed", "walk_length", "walks_per_node", "k_walk", "subgraph_cap", "steps",
           "step_mode", "experts", "hidden_graphs", "k_ept", "beta", "epochs", "lr",
           "dropout", "folds", "fold_index", "threads")
# the settings each command reads: it takes the flagged ones as flags, and its
# manifest records them all
READS = {
    "gen": ("seed",),
    "extract": (*(key for cls, _, key in TARGETS if cls is WalkConfig), "threads"),
    "train": tuple(SETTINGS),
    "verify": ("seed",),
    "export-hidden": (),
}


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
    """The settings ``args.command`` reads: defaults < config file < flags, the whole
    file checked over the defaults and the flags over both, before any work."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg = _apply(cfg, _config_lines(args.config), as_flags=False)
    flags = [(f"{_flag(key)} {value}", key, value) for key in SETTINGS
             if (value := getattr(args, key, None)) is not None]
    cfg = _apply(cfg, flags, as_flags=True)
    return {key: cfg[key] for key in READS[args.command]}


def dataset_hash(data: Dataset) -> str:
    arrays = []
    for g in data.graphs:
        arrays.extend([g.offsets, g.neighbors, g.features])
        arrays.append(np.array([-1 if g.graph_label is None else g.graph_label]))
        if g.node_labels is not None:
            arrays.append(g.node_labels)
    return hash_arrays(arrays)


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


def _train_configs(cfg: dict, data: Dataset):
    """The (kernel, training, model) configs of a train run on ``data``."""
    return (_config(KernelConfig, cfg), _config(TrainConfig, cfg),
            _config(ModelConfig, cfg, feature_dim=data.feature_dim,
                    class_count=data.class_count, task=data.task))


def _resume(path: str, cfg: dict, data: Dataset, data_hash: str):
    """(model, state) of the checkpoint at ``path``; other model, kernel or training
    settings (the epoch count aside) or other data (``data_hash``, the run's
    dataset_hash) than the run's are a usage error."""
    kcfg, tcfg, mcfg = _train_configs(cfg, data)
    model, state, saved_tcfg, saved_hash = load_checkpoint(path)
    diff = _differences(asdict(model.cfg) | asdict(model.kernel_cfg) | asdict(saved_tcfg)
                        | {"dataset_hash": saved_hash},
                        asdict(mcfg) | asdict(kcfg)
                        | asdict(replace(tcfg, epochs=saved_tcfg.epochs))
                        | {"dataset_hash": data_hash})
    if diff:
        raise UsageError(f"{path}: checkpoint was trained with other settings: "
                         + ", ".join(diff) + "; use another --out-dir to start afresh")
    print(f"resuming from {path} at epoch {state['epoch_next']}")
    return model, state


# -- commands -----------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = _merged_config(args)
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
    data = load_tu_dataset(os.path.join(args.data_dir, args.dataset), args.dataset)
    wcfg = _config(WalkConfig, cfg)
    cache_path = args.cache_out or os.path.join(args.out_dir, f"{args.dataset}.cache")
    if os.path.exists(cache_path):
        try:
            _check_cache(load_cache(cache_path), cache_path, data, wcfg)
        except (UsageError, FormatError) as problem:
            print(f"recomputing: {problem}")
        else:
            print(f"cache {cache_path} is up to date; skipping recompute")
            write_manifest(args.out_dir, "extract", cfg, cfg["seed"], dataset_hash(data))
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
    data = load_tu_dataset(os.path.join(args.data_dir, args.dataset), args.dataset)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.npz")
    # hashed once per run: here when a checkpoint is checked, else after training
    data_hash = dataset_hash(data) if os.path.exists(ckpt_path) else None
    resume = _resume(ckpt_path, cfg, data, data_hash) if data_hash else None
    # the configs and node masks are built after extraction: built before it,
    # each raised the node-wide benchmark's peak RSS by 3 MB through the heap layout
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
    kcfg, tcfg, mcfg = _train_configs(cfg, data)
    model, start_state = resume or (new_model(mcfg, kcfg, seed=cfg["seed"]), None)

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
        data_hash = data_hash or dataset_hash(data)
        save_checkpoint(ckpt_path, model, state, tcfg, data_hash)
        rows = state["rows"]
    with atomic_write(os.path.join(args.out_dir, "metrics.csv")) as f:
        f.write(metrics_csv(rows, model.expert_count))
    write_manifest(args.out_dir, "train", cfg, cfg["seed"], data_hash)
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
    write_manifest(args.out_dir, "verify", cfg | {"suites": suites, "max_nodes": args.max_nodes,
                                                  "max_p": args.max_p}, cfg["seed"])
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_export_hidden(args) -> int:
    model, _, _, data_hash = load_checkpoint(args.checkpoint)
    os.makedirs(args.out_dir, exist_ok=True)
    count = 0
    for k, expert in enumerate(model.bank.experts):
        for i, hg in enumerate(expert.hidden):
            path = os.path.join(args.out_dir, f"expert{k}_hg{i}.dot")
            with atomic_write(path) as f:
                f.write(hidden_graph_to_dot(hg, name=f"expert{k}_hg{i}",
                                            prune_threshold=args.prune_threshold))
            count += 1
    write_manifest(args.out_dir, "export-hidden", {"checkpoint": args.checkpoint,
                                                   "prune_threshold": args.prune_threshold},
                   model.seed, data_hash)
    print(f"wrote {count} DOT files to {args.out_dir}")
    return EXIT_OK


def build_parser() -> Parser:
    parser = Parser(prog="mose",
                    description="Subgraph-expert graph learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help):
        # abbreviations off: a command accepts exactly the flags it lists
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    p_gen = add("gen", cmd_gen, "generate a synthetic dataset in TU layout")
    p_gen.add_argument("--dataset", required=True, choices=sorted(SHAPE_LAYOUTS))
    p_gen.add_argument("--count", type=int, required=True)

    p_ext = add("extract", cmd_extract, "extract walk-based subgraphs to a cache")
    p_ext.add_argument("--cache-out")

    p_tr = add("train", cmd_train, "train a model on one split")
    p_tr.add_argument("--cache")
    for p in (p_ext, p_tr):
        p.add_argument("--data-dir", required=True)
        p.add_argument("--dataset", required=True)

    p_ver = add("verify", cmd_verify, "run verification suites")
    p_ver.add_argument("--suite", choices=sorted(SUITES))
    p_ver.add_argument("--max-nodes", type=int, default=6)
    p_ver.add_argument("--max-p", type=int, default=4)

    p_exp = add("export-hidden", cmd_export_hidden, "export hidden graphs as DOT")
    p_exp.add_argument("--checkpoint", required=True)
    p_exp.add_argument("--prune-threshold", type=float, default=0.01)

    for name, p in sub.choices.items():
        for key in (key for key in READS[name] if key in FLAGGED):
            p.add_argument(_flag(key), type=type(DEFAULTS[key]))
        if READS[name]:
            p.add_argument("--config")
        p.add_argument("--out-dir", default="mose-out")
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
