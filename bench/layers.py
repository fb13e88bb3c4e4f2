"""The traced entry points of every mose module, and the counts computed at them.

Each ``Layer`` names the metric stem it feeds: ``<name>_s`` is the summed
self time of its spans (whole duration for the command and suite
containers) and ``<name>.calls`` their number. The observers turn
arguments and results seen at the boundary into counts that need no
timing and repeat exactly for a seed: kernel FLOPs from group shapes and
the model config, padding fill and bytes, rows routed to each expert,
and the size of extracted subgraphs.
"""

from __future__ import annotations

from spans import Layer

EXPERT_SLOTS = 5       # the CLI default expert count


def _add(counts: dict, key: str, value: float):
    counts[key] = counts.get(key, 0.0) + value


def _extracted(counts, args, kwargs, cache):
    sizes = [len(nodes) for recs in cache.records for nodes in recs]
    _add(counts, "walks.subgraphs", len(sizes))
    _add(counts, "walks.subgraph_nodes", sum(sizes))
    _add(counts, "walks.singletons", sum(1 for k in sizes if k == 1))


def _grouped(counts, args, kwargs, group):
    b, nmax = group.adj.shape[:2]
    _add(counts, "moe.real_cells", float((group.sizes.astype(float) ** 2).sum()))
    _add(counts, "moe.padded_cells", float(b * nmax * nmax))
    _add(counts, "moe.padded_bytes", float(group.adj.nbytes + group.feats.nbytes))


def _expert_blocks(run):
    """(expert, rows B, hidden graphs N, hidden size s, nmax n, width f, steps p)."""
    n, f = run.group.adj.shape[1], run.group.feats.shape[2]
    p = run.model.kernel_cfg.max_step
    for m, (rows, _) in sorted(run.expert_rows.items()):
        e = run.model.bank.experts[m]
        yield m, len(rows), e.hidden_count, e.size, n, f, p


def _forwarded(counts, args, kwargs, run):
    # T = Z X^T, p products with A, then R^q applied and contracted per step;
    # the R powers are built once per call.
    for m, b, N, s, n, f, p in _expert_blocks(run):
        _add(counts, f"moe.expert_rows.{m}", b)
        per_row = 2 * N * s * f * n + 2 * N * s * n * n * p + p * (2 * N * s * s * n
                                                                   + 2 * N * s * n)
        _add(counts, "kernel.fwd_flop", b * per_row + 2 * p * N * s ** 3)


def _backwarded(counts, args, kwargs, result):
    # per step: R^q V again, V T^T, the dT update and the batch sum of C;
    # then dZ = dT X; the R-power chain costs 2 s^3 matmuls per (q, k).
    for m, b, N, s, n, f, p in _expert_blocks(args[0]):
        per_row = p * (4 * N * s * s * n + 2 * N * s * n + 2 * N * s * s) + 2 * N * s * n * f
        _add(counts, "kernel.bwd_flop", b * per_row + 2 * p * (p + 1) * N * s ** 3)


LAYERS = [
    Layer("cli.gen", "mose.cli:cmd_gen", inclusive=True),
    Layer("cli.extract", "mose.cli:cmd_extract", inclusive=True),
    Layer("cli.train", "mose.cli:cmd_train", inclusive=True),
    Layer("cli.verify", "mose.cli:cmd_verify", inclusive=True),
    Layer("verify.kernel-oracle", "mose.verify:kernel_oracle_suite", inclusive=True),
    Layer("verify.grad", "mose.verify:grad_suite", inclusive=True),
    Layer("verify.walks", "mose.verify:walks_suite", inclusive=True),
    Layer("verify.wl", "mose.verify:wl_suite", inclusive=True),
    Layer("datasets.gen", "mose.datasets:gen_graph_cycle"),
    Layer("datasets.gen", "mose.datasets:gen_graph_five"),
    Layer("datasets.save_tu", "mose.datasets:save_tu_dataset"),
    Layer("datasets.load_tu", "mose.datasets:load_tu_dataset"),
    Layer("walks.extract", "mose.walks:extract_dataset", _extracted),
    Layer("walks.sample_walks", "mose.walks:sample_walks"),
    Layer("walks.to_anonymous", "mose.walks:to_anonymous"),
    Layer("walks.top_patterns", "mose.walks:top_patterns"),
    Layer("walks.enumerate", "mose.walks:enumerate_anonymous_walks"),
    Layer("walks.save_cache", "mose.walks:save_cache"),
    Layer("walks.load_cache", "mose.walks:load_cache"),
    Layer("moe.build_group", "mose.moe:build_group", _grouped),
    Layer("moe.group_forward", "mose.moe:group_forward", _forwarded),
    Layer("moe.backward", "mose.moe:GroupRun.backward", _backwarded),
    Layer("nn.mlp_forward", "mose.nn:Mlp.forward"),
    Layer("nn.mlp_backward", "mose.nn:Mlp.backward"),
    Layer("nn.adam_step", "mose.nn:Adam.step"),
    Layer("trainer.train", "mose.trainer:train"),
    Layer("trainer.evaluate", "mose.trainer:evaluate"),
    Layer("trainer.grad_check", "mose.trainer:grad_check"),
    Layer("kernel.rwk_discrete", "mose.kernel:rwk_discrete"),
    Layer("kernel.rwk_hidden", "mose.kernel:rwk_hidden"),
    Layer("kernel.rwk_hidden_grad", "mose.kernel:rwk_hidden_grad"),
    # verify calls the enumeration behind rwk_oracle directly
    Layer("kernel.rwk_oracle", "mose.kernel:_oracle_counts"),
    Layer("wl.canonical_form", "mose.wl:canonical_form"),
    Layer("wl.refine", "mose.wl:wl1_refine_many"),
    Layer("wl.refine", "mose.wl:swl_refine_many"),
    Layer("wl.node_sets", "mose.wl:EgoPolicy.node_sets"),
    Layer("wl.embed_graph", "mose.wl:embed_graph"),
    Layer("graph.with_features", "mose.graph:Graph.with_features"),
    Layer("graph.induced_subgraph", "mose.graph:induced_subgraph"),
]

INCLUSIVE = frozenset(layer.name for layer in LAYERS if layer.inclusive)

TIME_METRICS = list(dict.fromkeys(f"{layer.name}_s" for layer in LAYERS))
CALL_METRICS = list(dict.fromkeys(f"{layer.name}.calls" for layer in LAYERS
                                  if not layer.inclusive))
COUNT_METRICS = {
    "kernel.fwd_gflop": "GFLOP",
    "kernel.bwd_gflop": "GFLOP",
    "moe.pad_fill": "ratio",
    "moe.padded_mb": "MB",
    **{f"moe.expert_rows.{m}": "count" for m in range(EXPERT_SLOTS)},
    "walks.subgraph_nodes_mean": "nodes",
    "walks.singleton_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived_counts(counts: dict) -> dict:
    """The reported count metrics from the raw sums the observers kept."""
    out = {
        "kernel.fwd_gflop": counts.get("kernel.fwd_flop", 0.0) / 1e9,
        "kernel.bwd_gflop": counts.get("kernel.bwd_flop", 0.0) / 1e9,
        "moe.pad_fill": _ratio(counts.get("moe.real_cells", 0.0),
                               counts.get("moe.padded_cells", 0.0)),
        "moe.padded_mb": counts.get("moe.padded_bytes", 0.0) / 1e6,
        "walks.subgraph_nodes_mean": _ratio(counts.get("walks.subgraph_nodes", 0.0),
                                            counts.get("walks.subgraphs", 0.0)),
        "walks.singleton_share": _ratio(counts.get("walks.singletons", 0.0),
                                        counts.get("walks.subgraphs", 0.0)),
    }
    for m in range(EXPERT_SLOTS):
        out[f"moe.expert_rows.{m}"] = counts.get(f"moe.expert_rows.{m}", 0.0)
    return out


def layer_metrics(summary: dict) -> dict:
    """``{metric: value}`` for every time and call metric, 0 for layers not hit."""
    out = {}
    for metric in TIME_METRICS:
        out[metric] = summary.get(metric[:-2], (0.0, 0))[0]
    for metric in CALL_METRICS:
        out[metric] = float(summary.get(metric[:-len(".calls")], (0.0, 0))[1])
    return out
