"""The benchmark's tracer over in-process commands: every observer in
bench/layers.py reads what the traced calls return (a cache's records, a
group's ``adj``, ``feats`` and ``sizes``, a run's routed rows) and must keep
working, for graph tasks, node tasks and verify."""

import collections
import dataclasses
import os
import sys

import numpy as np
import pytest

from mose import Dataset, Graph, save_tu_dataset
from mose.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from layers import LAYERS  # noqa: E402
from spans import Tracer  # noqa: E402


def _watched(ran: collections.Counter):
    """LAYERS with each observer counting its completed calls in ``ran``."""
    def watch(layer):
        def observe(counts, args, kwargs, result):
            layer.observe(counts, args, kwargs, result)
            ran[layer.name] += 1
        return dataclasses.replace(layer, observe=observe)
    return [watch(layer) if layer.observe else layer for layer in LAYERS]


OBSERVED = {layer.name for layer in LAYERS if layer.observe}


def _wide_node_task(path):
    """A small node task with features far wider than its subgraphs, as the
    benchmark's node-wide workload: 120 nodes in 3 communities, 64 features."""
    rng = np.random.default_rng(5)
    labels = np.sort(np.arange(120) % 3)
    edges = [(int(i), int(j)) for c in range(3) for i in np.flatnonzero(labels == c)[1:]
             for j in rng.choice(np.flatnonzero(labels[:i] == c), 2)]
    features = (rng.random((120, 64)) < 0.2).astype(float)
    g = Graph.from_edges(120, edges, features=features, graph_label=0, node_labels=labels)
    save_tu_dataset(Dataset(graphs=[g], task="node", class_count=3, name="Wide"),
                    str(path / "Wide"))


@pytest.mark.parametrize("command", ["train", "verify-grad", "train-node"])
def test_every_observer_runs_without_raising(command, tmp_path):
    assert main(["gen", "--dataset", "GraphCycle", "--count", "6", "--seed", "3",
                 "--out-dir", str(tmp_path / "data")]) == 0
    _wide_node_task(tmp_path / "data")
    argv = {"train": ["train", "--data-dir", str(tmp_path / "data"), "--dataset",
                      "GraphCycle", "--seed", "3", "--epochs", "2", "--folds", "3",
                      "--threads", "1", "--out-dir", str(tmp_path / "out")],
            "verify-grad": ["verify", "--suite", "grad", "--out-dir", str(tmp_path / "out")],
            # the padded kernel order, node chunks and the cache's CSR records
            "train-node": ["train", "--data-dir", str(tmp_path / "data"), "--dataset", "Wide",
                           "--seed", "3", "--epochs", "2", "--threads", "1",
                           "--out-dir", str(tmp_path / "out")]}
    ran = collections.Counter()
    with Tracer("mose").install(_watched(ran)) as tracer:
        assert main(argv[command]) == 0
    assert set(ran) == OBSERVED
    for key in ("walks.subgraphs", "moe.real_cells", "moe.padded_cells", "moe.padded_bytes",
                "kernel.fwd_flop", "kernel.bwd_flop"):
        assert tracer.counts[key] > 0, key
    assert tracer.counts["moe.real_cells"] <= tracer.counts["moe.padded_cells"]
