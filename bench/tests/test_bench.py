"""The benchmark's own tests: span arithmetic, wrapper hygiene, the node-wide
fixture, and a tiny smoke run of every workload in both modes.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import functools
import json
import os
import sys

import numpy as np
import pytest

import mose.cli  # noqa: F401  (loads every mose module)
import mose.verify as mv
from mose import load_tu_dataset, save_tu_dataset

import fixture
import workloads
from layers import LAYERS
from spans import Tracer, self_times

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_self_time_is_duration_minus_direct_children():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_nested_spans_partition_the_root():
    tracer = Tracer("none")

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap("leaf", leaf)

    def mid():
        return traced_leaf() + traced_leaf()

    traced_mid = tracer.wrap("mid", mid)
    root = tracer.wrap("root", lambda: [traced_mid() for _ in range(3)])
    root()
    _, start, end, parent = tracer.arrays()
    assert parent.tolist() == [-1, 0, 1, 1, 0, 4, 4, 0, 7, 7]
    assert list(tracer.run) == [0] * 10
    summary = tracer.summary(inclusive=frozenset({"root"}))
    assert summary["leaf"][1] == 6 and summary["mid"][1] == 3
    own = self_times(start, end, parent)
    assert np.isclose(own.sum(), end[0] - start[0], rtol=0, atol=1e-12)
    assert summary["root"][0] == end[0] - start[0]
    assert (own >= 0).all()


def _bindings():
    """Every function reachable from mose modules, class dicts and module dicts."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mose" or name.startswith("mose.")):
            continue
        for key, value in vars(mod).items():
            if callable(value):
                seen[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
            if isinstance(value, dict) and key != "__builtins__":
                for dkey, dval in value.items():
                    seen[(name, key, "[]", dkey)] = dval
    return seen


def test_wrappers_reach_every_import_site_and_restore_the_originals():
    before = _bindings()
    with Tracer("mose").install(LAYERS) as tracer:
        assert mose.cli.extract_dataset is mose.walks.extract_dataset
        assert mose.cli.extract_dataset is not before[("mose.walks", "extract_dataset")]
        assert mose.trainer.build_group is mose.wl.build_group is mose.moe.build_group
        assert mv.SUITES["wl"] is mv.wl_suite
        assert mv.SUITES["wl"] is not before[("mose.verify", "wl_suite")]
        during = _bindings()
        assert len(tracer._patches) > len(LAYERS)
    after = _bindings()
    assert set(after) == set(before)
    assert all(after[k] is before[k] for k in before)
    assert any(during[k] is not before[k] for k in before)


def test_node_wide_fixture_is_deterministic_and_labelled_by_community(tmp_path):
    for k in range(2):
        save_tu_dataset(fixture.node_wide_dataset(3), str(tmp_path / f"b{k}" / fixture.NAME))
    assert (workloads.sha256_dir(str(tmp_path / "b0" / fixture.NAME))
            == workloads.sha256_dir(str(tmp_path / "b1" / fixture.NAME)))
    other = tmp_path / "other" / fixture.NAME
    save_tu_dataset(fixture.node_wide_dataset(4), str(other))
    assert workloads.sha256_dir(str(other)) != workloads.sha256_dir(
        str(tmp_path / "b0" / fixture.NAME))
    data = load_tu_dataset(str(tmp_path / "b0" / fixture.NAME), fixture.NAME)
    g = data.graphs[0]
    assert data.task == "node" and data.class_count == fixture.CLASSES
    assert g.node_count == fixture.NODES and g.feature_dim == fixture.WIDTH
    src = np.repeat(np.arange(g.node_count), g.degrees)
    same = g.node_labels[src] == g.node_labels[g.neighbors]
    assert same.mean() > 0.8     # communities are the labels


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so one pass takes about a second."""
    monkeypatch.setattr(workloads.GraphCycle, "COUNT", 10)
    monkeypatch.setattr(workloads.WORKLOADS["graph-cycle"], "epochs", 1)
    monkeypatch.setattr(workloads.WORKLOADS["node-wide"], "epochs", 1)
    monkeypatch.setattr(fixture, "NODES", 120)

    def small_wl(**kwargs):
        # the 6-cycle witness needs the 6-node corpus, which takes ~20 s
        rep = mv.wl_suite(inits=1, required=1, max_n=5, **kwargs)
        rep.cases = [c for c in rep.cases if "6-cycle" not in c.name]
        return rep

    small = {
        "kernel-oracle": functools.partial(mv.kernel_oracle_suite, random_pairs=5,
                                           identity_instances=5),
        "grad": functools.partial(mv.grad_suite, instances=3),
        "walks": functools.partial(mv.walks_suite, fuzz_walks=50, perm_pairs=20,
                                   count_graphs=5, rooted_pairs=5),
        "wl": small_wl,
    }

    def small_suite(name, **kwargs):
        if name == "kernel-oracle":
            kwargs.update(max_nodes=4, max_p=2)
        return small[name](**kwargs)

    monkeypatch.setattr(mv, "run_suite", small_suite)
    monkeypatch.setattr(mose.cli, "run_suite", small_suite)
    return tmp_path


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", ["graph-cycle", "node-wide", "verify"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(tiny, workload, trace):
    result, report, record = workloads.run(workload, seed=1, seconds=0, trace=trace,
                                           time_imports=lambda: [0.1], root=str(tiny),
                                           results_dir=str(tiny))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _benchmark_json()
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(wanted)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert np.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in wanted)
    assert not os.path.exists(os.path.join(str(tiny), ".bench_work",
                                           f"{workload}-s1-p{os.getpid()}"))
