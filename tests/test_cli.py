import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mose import cli, verify
from mose.cli import main
from mose.graph import walk_counts
from mose.trainer import CHECKPOINT_VERSION, load_checkpoint
import reference


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    assert run(["gen", "--dataset", "GraphCycle", "--count", "6", "--seed", "3",
                "--out-dir", str(root / "data")]) == 0
    return root


WALKS_REPORT_SHA256 = "b3df4a3a646c984c54f57c1a4b5744d8e648b3072292a38d46f28496f74d8471"
KERNEL_ORACLE_REPORT_SHA256 = "002abb4fce31cd9e054d38b55df3567edd018ea8486e67e9564cfbfa0dd5aea5"
WL_REPORT_SHA256 = "da7ae9b7fbf8ad1a0d5e9f4b810104a28e53227badbff8a0d99395500647d6be"
GRAD_REPORT_SHA256 = "46584c054bc16dfdda605630df2de6e3303b5092e24c9c1623d26de76f66c8e0"

BASE = ["--walk-length", "4", "--walks-per-node", "5", "--k-walk", "3",
        "--subgraph-cap", "12", "--seed", "3"]


class TestGen:
    def test_writes_tu_layout(self, workspace):
        d = workspace / "data" / "GraphCycle"
        for suffix in ("A", "graph_indicator", "graph_labels"):
            assert (d / f"GraphCycle_{suffix}.txt").exists()
        assert (workspace / "data" / "manifest.json").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        assert run(["gen", "--dataset", "GraphCycle", "--count", "6", "--seed", "3",
                    "--out-dir", str(tmp_path)]) == 0
        a = (workspace / "data" / "GraphCycle" / "GraphCycle_A.txt").read_bytes()
        b = (tmp_path / "GraphCycle" / "GraphCycle_A.txt").read_bytes()
        assert a == b

    def test_bad_dataset_name_is_usage_error(self):
        assert run(["gen", "--dataset", "Nope", "--count", "3"]) == 64


class TestExtract:
    def test_extract_and_reuse(self, workspace, capsys):
        out = workspace / "ext"
        args = ["extract", "--data-dir", str(workspace / "data"),
                "--dataset", "GraphCycle", *BASE, "--out-dir", str(out)]
        assert run(args) == 0
        printed = capsys.readouterr().out
        assert "pattern, count" in printed
        assert (out / "GraphCycle.cache").exists()
        # second run reuses the cache
        assert run(args) == 0
        assert "up to date" in capsys.readouterr().out

    def test_cache_of_regenerated_dataset_is_recomputed(self, tmp_path, capsys):
        # same name and settings, but the set was regenerated with another seed
        data, fresh = tmp_path / "data", tmp_path / "fresh"
        args = ["extract", "--data-dir", str(data), "--dataset", "GraphCycle", *BASE]
        printed = []
        for seed, out in (("3", tmp_path / "ext"), ("4", tmp_path / "ext"), ("4", fresh)):
            assert run(["gen", "--dataset", "GraphCycle", "--count", "6", "--seed", seed,
                        "--out-dir", str(data)]) == 0
            capsys.readouterr()
            assert run([*args, "--out-dir", str(out)]) == 0
            printed.append(capsys.readouterr().out)
        assert "up to date" not in printed[1] and "recomputing" in printed[1]
        # the second extract into ext recomputed: its cache is a fresh one
        assert (tmp_path / "ext" / "GraphCycle.cache").read_bytes() == \
            (fresh / "GraphCycle.cache").read_bytes()

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        assert run(["extract", "--data-dir", str(tmp_path), "--dataset", "Gone",
                    "--out-dir", str(tmp_path)]) == 2


class TestTrain:
    def train_args(self, workspace, out, extra=()):
        return ["train", "--data-dir", str(workspace / "data"),
                "--dataset", "GraphCycle", *BASE,
                "--epochs", "2", "--folds", "3", "--experts", "3",
                "--hidden-graphs", "2", "--out-dir", str(out), *extra]

    def test_train_writes_outputs(self, workspace):
        out = workspace / "t1"
        assert run(self.train_args(workspace, out)) == 0
        assert (out / "checkpoint.npz").exists()
        csv = (out / "metrics.csv").read_text()
        header = csv.splitlines()[0]
        assert header.startswith("epoch,split,loss_task,loss_importance,"
                                 "accuracy,macro_f1,expert_load_0")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "dataset_hash" in manifest

    def test_rerun_bit_identical_across_threads(self, workspace):
        a, b = workspace / "tA", workspace / "tB"
        assert run(self.train_args(workspace, a, ["--threads", "1"])) == 0
        assert run(self.train_args(workspace, b, ["--threads", "4"])) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_config_file_and_flag_precedence(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nexperts=2\nhidden-graphs=2\n")
        out = workspace / "t2"
        args = ["train", "--data-dir", str(workspace / "data"),
                "--dataset", "GraphCycle", *BASE, "--folds", "3",
                "--config", str(cfg), "--epochs", "2",
                "--out-dir", str(out)]
        assert run(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2     # flag beats file
        assert manifest["config"]["experts"] == 2    # file beats default

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus-key=1\n")
        assert run(["train", "--data-dir", str(workspace / "data"),
                    "--dataset", "GraphCycle", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out")]) == 64

    @pytest.mark.parametrize("body", ["experts = 1\nk_ept = 1\n", "k_ept = 1\nexperts = 1\n"])
    def test_config_values_are_checked_together(self, workspace, tmp_path, body):
        # experts = 1 next to the default k_ept = 2 is invalid; the file as a whole is not
        cfg = tmp_path / "one.cfg"
        cfg.write_text(body)
        assert run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                    *BASE, "--epochs", "1", "--folds", "3", "--hidden-graphs", "2",
                    "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert (manifest["config"]["experts"], manifest["config"]["k_ept"]) == (1, 1)

    @pytest.mark.parametrize("fold_index", ["-1", "10"])
    def test_fold_index_out_of_range_is_usage_error(self, workspace, tmp_path, capsys,
                                                    fold_index):
        out = tmp_path / "t"
        capsys.readouterr()
        code = run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                    *BASE, "--folds", "10", "--fold-index", fold_index,
                    "--out-dir", str(out)])
        assert code == 64
        assert capsys.readouterr().err == ("usage error: --fold-index must lie in 0..9 "
                                           f"(--folds 10), got {fold_index}\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:class . has fewer members")
    def test_fold_with_an_empty_part_is_usage_error_before_extraction(self, workspace,
                                                                     tmp_path, capsys):
        # 6 graphs fill only 6 of 20 folds
        out = tmp_path / "t"
        capsys.readouterr()
        code = run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                    *BASE, "--folds", "20", "--fold-index", "12", "--out-dir", str(out)])
        assert code == 64
        assert capsys.readouterr().err == ("usage error: --folds 20 --fold-index 12: the test "
                                           "part is empty (GraphCycle has 6 graphs)\n")
        assert not (out / "GraphCycle.cache").exists()
        assert not out.exists()

    @pytest.mark.parametrize("graphs, line, value", [(1, 7, "nan"), (2, 13, "-inf")])
    def test_non_finite_attribute_is_refused_before_extraction(self, tmp_path, capsys,
                                                               graphs, line, value):
        # 20 nodes in rings of 20 / 10: one graph with node labels is a node task,
        # two graphs a graph task whose second graph holds the named line
        data, out = tmp_path / "data" / "ring", tmp_path / "out"
        data.mkdir(parents=True)
        n = 20 // graphs
        edges = [f"{g * n + i + 1}, {g * n + (i + 1) % n + 1}"
                 for g in range(graphs) for i in range(n)]
        attrs = [f"{i % 3}, 0.5" for i in range(20)]
        attrs[line - 1] = f"1, {value}"
        for suffix, lines in (("A", edges),
                              ("graph_indicator", [str(i // n + 1) for i in range(20)]),
                              ("graph_labels", [str(g) for g in range(graphs)]),
                              ("node_labels", [str(i % 2) for i in range(20)]),
                              ("node_attributes", attrs)):
            (data / f"ring_{suffix}.txt").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["train", "--data-dir", str(data.parent), "--dataset", "ring", *BASE,
                    "--epochs", "1", "--folds", "2", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {data / 'ring_node_attributes.txt'}:{line}: "
                                           f"non-finite attribute {value}\n")
        assert not out.exists()

    def test_cache_built_with_other_settings_is_usage_error(self, workspace, tmp_path,
                                                            capsys):
        ext = tmp_path / "ext"
        assert run(["extract", "--data-dir", str(workspace / "data"),
                    "--dataset", "GraphCycle", *BASE, "--out-dir", str(ext)]) == 0
        cache = ext / "GraphCycle.cache"
        capsys.readouterr()
        code = run(self.train_args(workspace, tmp_path / "t",
                                   ["--cache", str(cache), "--walk-length", "8"]))
        assert code == 64
        err = capsys.readouterr().err
        assert str(cache) in err and "walk_length=4 (run: 8)" in err
        assert not (tmp_path / "t" / "checkpoint.npz").exists()

    def test_cache_of_other_graphs_is_format_error(self, workspace, tmp_path, capsys):
        # same name and settings, other graphs: 4 graphs, then 6 of other sizes
        for count, seed in (("4", "3"), ("6", "4")):
            data = tmp_path / f"data{count}"
            assert run(["gen", "--dataset", "GraphCycle", "--count", count,
                        "--seed", seed, "--out-dir", str(data)]) == 0
            ext = tmp_path / f"ext{count}"
            assert run(["extract", "--data-dir", str(data), "--dataset", "GraphCycle",
                        *BASE, "--out-dir", str(ext)]) == 0
            cache = ext / "GraphCycle.cache"
            capsys.readouterr()
            code = run(self.train_args(workspace, tmp_path / f"t{count}",
                                       ["--cache", str(cache)]))
            assert code == 2
            assert str(cache) in capsys.readouterr().err

    def test_checkpoint_with_other_settings_is_usage_error(self, workspace, tmp_path,
                                                           capsys):
        out = tmp_path / "t"
        assert run(self.train_args(workspace, out)) == 0
        ckpt = out / "checkpoint.npz"
        before = ckpt.read_bytes()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=2\n")
        capsys.readouterr()
        code = run(self.train_args(workspace, out, ["--epochs", "4", "--experts", "4",
                                                    "--config", str(cfg)]))
        assert code == 64
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert "experts=3 (run: 4)" in err and "max_step=3 (run: 2)" in err
        assert ckpt.read_bytes() == before

    @pytest.mark.parametrize("body", [
        "",
        "dataset=GraphCycle seed=3\n",
        "dataset=GraphCycle seed=3 walk_length=4 walks_per_node=5 pattern_budget=3 "
        "cap=12\nv 0 1\n",
    ], ids=["magic-only", "partial-header", "record-before-graph"])
    def test_malformed_cache_is_format_error(self, workspace, tmp_path, capsys, body):
        cache = tmp_path / "bad.cache"
        cache.write_text("mose-subgraphs v1\n" + body)
        capsys.readouterr()
        code = run(self.train_args(workspace, tmp_path / "t", ["--cache", str(cache)]))
        assert code == 2
        assert f"error: {cache}:" in capsys.readouterr().err

    def test_dataset_name_with_a_space_round_trips_the_cache(self, workspace, tmp_path,
                                                             capsys):
        name = "Graph Cycle"
        (tmp_path / name).mkdir()
        for src in (workspace / "data" / "GraphCycle").iterdir():
            shutil.copy(src, tmp_path / name / src.name.replace("GraphCycle", name))
        common = ["--data-dir", str(tmp_path), "--dataset", name, *BASE,
                  "--out-dir", str(tmp_path / "out")]
        assert run(["extract", *common]) == 0
        cache = tmp_path / "out" / f"{name}.cache"
        before = cache.read_bytes()
        # train reads the cache back and refuses it (exit 64) unless its name matches
        assert run(["train", *common, "--epochs", "1", "--folds", "3", "--experts", "3",
                    "--hidden-graphs", "2"]) == 0
        assert cache.read_bytes() == before
        capsys.readouterr()
        assert run(["extract", *common]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_version_1_checkpoint_is_refused(self, workspace, tmp_path, capsys):
        out = tmp_path / "t"
        assert run(self.train_args(workspace, out)) == 0
        # a version 1 file: its train_config still carries k_ept
        ckpt = out / "checkpoint.npz"
        with np.load(ckpt) as f:
            arrays = {k: f[k] for k in f.files}
        meta = json.loads(str(arrays["meta"]))
        meta["version"] = 1
        meta["train_config"]["k_ept"] = 2
        arrays["meta"] = json.dumps(meta)
        ckpt.write_bytes(_npz(**arrays))
        for args in (self.train_args(workspace, out, ["--epochs", "4"]),
                     ["export-hidden", "--checkpoint", str(ckpt), "--out-dir", str(out)]):
            capsys.readouterr()
            assert run(args) == 2
            assert capsys.readouterr().err == \
                f"error: {ckpt}: not a mose checkpoint: unsupported version 1\n"

    def test_version_2_checkpoint_is_refused(self, workspace, tmp_path, capsys):
        out = tmp_path / "t"
        assert run(self.train_args(workspace, out)) == 0
        # a version 2 file does not record the data it was trained on
        ckpt = out / "checkpoint.npz"
        with np.load(ckpt) as f:
            arrays = {k: f[k] for k in f.files}
        meta = json.loads(str(arrays["meta"]))
        meta["version"] = 2
        del meta["dataset_hash"]
        arrays["meta"] = json.dumps(meta)
        ckpt.write_bytes(_npz(**arrays))
        for args in (self.train_args(workspace, out, ["--epochs", "4"]),
                     ["export-hidden", "--checkpoint", str(ckpt), "--out-dir", str(out)]):
            capsys.readouterr()
            assert run(args) == 2
            assert capsys.readouterr().err == \
                f"error: {ckpt}: not a mose checkpoint: unsupported version 2\n"

    @staticmethod
    def files(root):
        return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def test_resume_with_other_training_settings_is_refused(self, workspace, tmp_path,
                                                            capsys):
        out = tmp_path / "t"
        assert run(self.train_args(workspace, out, ["--epochs", "1"])) == 0
        before = self.files(tmp_path)
        capsys.readouterr()
        code = run(self.train_args(workspace, out, ["--epochs", "2", "--lr", "0.5",
                                                    "--dropout", "0.6"]))
        assert code == 64
        err = capsys.readouterr().err
        assert str(out / "checkpoint.npz") in err
        assert "learning_rate=0.001 (run: 0.5)" in err and "dropout_rate=0.2 (run: 0.6)" in err
        assert "epochs" not in err
        assert self.files(tmp_path) == before

    def test_resume_on_other_data_is_refused_before_any_work(self, workspace, tmp_path,
                                                             capsys):
        out = tmp_path / "t"
        assert run(self.train_args(workspace, out, ["--epochs", "1"])) == 0
        # six other graphs with the workspace's feature width (21)
        assert run(["gen", "--dataset", "GraphCycle", "--count", "6", "--seed", "17",
                    "--out-dir", str(tmp_path / "other")]) == 0
        before = self.files(tmp_path)
        cache = tmp_path / "other.cache"
        args = self.train_args(workspace, out, ["--epochs", "2", "--cache", str(cache)])
        args[args.index("--data-dir") + 1] = str(tmp_path / "other")
        capsys.readouterr()
        assert run(args) == 64
        err = capsys.readouterr().err
        assert str(out / "checkpoint.npz") in err and "dataset_hash=" in err
        assert "feature_dim" not in err
        assert self.files(tmp_path) == before     # no cache extracted, nothing rewritten

    def test_dataset_is_hashed_once_per_run(self, workspace, tmp_path, monkeypatch):
        # a fresh run, a resume, and a rerun the checkpoint already covers
        calls = []

        def counted(data):
            calls.append(data.name)
            return dataset_hash(data)

        dataset_hash = cli.dataset_hash
        monkeypatch.setattr(cli, "dataset_hash", counted)
        out = tmp_path / "t"
        for epochs in ("1", "2", "2"):
            calls.clear()
            assert run(self.train_args(workspace, out, ["--epochs", epochs])) == 0
            assert calls == ["GraphCycle"], epochs
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["dataset_hash"] == load_checkpoint(str(out / "checkpoint.npz"))[3]

    def test_cache_with_non_integer_field_names_path_and_line(self, workspace, tmp_path,
                                                               capsys):
        cache = tmp_path / "bad.cache"
        cache.write_text("mose-subgraphs v1\ndataset=GraphCycle seed=3 walk_length=4 "
                         "walks_per_node=5 pattern_budget=3 cap=12\ng 0\nv 0 x\n")
        capsys.readouterr()
        code = run(self.train_args(workspace, tmp_path / "t", ["--cache", str(cache)]))
        assert code == 2
        assert f"error: {cache}:4: malformed 'v' line" in capsys.readouterr().err

    def test_nan_checkpoint_resume_gives_numeric_failure(self, workspace, tmp_path):
        out = workspace / "t3"
        assert run(self.train_args(workspace, out)) == 0
        # poison the checkpoint params, then ask for more epochs
        import mose.trainer as tr
        model, state, cfg, data_hash = tr.load_checkpoint(str(out / "checkpoint.npz"))
        state["params"]["head.W0"][0, 0] = np.nan
        tr.save_checkpoint(str(out / "checkpoint.npz"), model, state, cfg, data_hash)
        code = run(self.train_args(workspace, out, ["--epochs", "4"]))
        assert code == 2
        dump = json.loads((out / "failure-dump.json").read_text())
        assert "param_norms" in dump


# (command line after the command's own data flags, what stderr says)
BAD_FLAGS = {
    "experts": (["train", "--experts", "0"],
                "usage error: --experts 0: k_ept must lie in 1..experts\n"),
    "steps": (["train", "--steps", "0"], "usage error: --steps 0: max_step must be >= 1\n"),
    "walk-length": (["train", "--walk-length", "0"],
                    "usage error: --walk-length 0: walk_length must be >= 1\n"),
    "epochs": (["train", "--epochs", "-1"], "usage error: --epochs -1: epochs must be >= 0\n"),
    "lr": (["train", "--lr", "0"], "usage error: --lr 0.0: learning_rate must be > 0\n"),
    "folds": (["train", "--folds", "1"], "usage error: --folds must be >= 2, got 1\n"),
    "dropout": (["train", "--dropout", "1.5"],
                "usage error: --dropout 1.5: dropout_rate must lie in [0, 1)\n"),
    "threads": (["train", "--threads", "0"], "usage error: --threads must be >= 1, got 0\n"),
    "step-mode": (["train", "--step-mode", "bogus"], "usage error: --step-mode bogus: "
                  "step_mode must be one of ('single-p', 'sum-over-p', 'concat-over-p')\n"),
    # --experts 2 runs with the default k_ept = 2; --k-ept 3 is where it stops
    "k-ept": (["train", "--k-ept", "3", "--experts", "2"],
              "usage error: --k-ept 3: k_ept must lie in 1..experts\n"),
    "max-p": (["verify", "--suite", "kernel-oracle", "--max-p", "0"],
              "usage error: --max-p must be >= 1, got 0\n"),
    "max-nodes": (["verify", "--suite", "kernel-oracle", "--max-nodes", "1"],
                  "usage error: --max-nodes must be >= 2, got 1\n"),
    # K5 x K5 has 25 * (1 + 16 + ... + 16^5) walk pairs up to p = 5
    "max-p-budget": (["verify", "--suite", "kernel-oracle", "--max-p", "5"],
                     "usage error: --max-p 5: the exhaustive kernel-oracle case would enumerate "
                     "27962025 walk pairs by p = 5, over the budget of 10000000\n"),
    "count": (["gen", "--dataset", "GraphCycle", "--count", "1"],
              "usage error: --count must be >= 2, one graph per GraphCycle class, got 1\n"),
    "seed": (["train", "--seed", "-1"], "usage error: --seed -1: seed must be >= 0\n"),
    "hidden-graphs": (["train", "--hidden-graphs", "0"],
                      "usage error: --hidden-graphs 0: hidden_per_expert must be >= 1\n"),
    # settings without a flag go through a config file, written to {cfg}
    "embed-dim": (["train", "--config", "embed_dim = 0"],
                  "usage error: {cfg}:1: embed_dim must be >= 1\n"),
    "adam-eps": (["train", "--config", "adam_eps = 0"],
                 "usage error: {cfg}:1: adam_eps must be > 0\n"),
    "adam-beta1": (["train", "--config", "adam_beta1 = 1.5"],
                   "usage error: {cfg}:1: adam_beta1 must lie in [0, 1)\n"),
    "adam-beta2": (["train", "--config", "adam_beta2 = -0.1"],
                   "usage error: {cfg}:1: adam_beta2 must lie in [0, 1)\n"),
    "patience": (["train", "--config", "patience = -3"],
                 "usage error: {cfg}:1: patience must be >= 0\n"),
    "lambda-decay-nan": (["train", "--config", "lambda_decay = nan"],
                         "usage error: {cfg}:1: lambdas must be finite and non-negative\n"),
    # 1e200 ** 3 overflows the float range
    "lambda-decay-overflow": (["train", "--config", "lambda_decay = 1e200"],
                              "usage error: {cfg}:1: lambdas must be finite and non-negative\n"),
    # checked before the checkpoint is read, so no file need exist
    "prune-threshold-nan": (["export-hidden", "--checkpoint", "x.npz", "--prune-threshold",
                             "nan"],
                            "usage error: --prune-threshold must be finite and >= 0, "
                            "got nan\n"),
    # flags of settings the command does not read
    "gen-data-dir": (["gen", "--dataset", "GraphCycle", "--count", "6", "--data-dir", "x"],
                     "usage error: unrecognized arguments: --data-dir x\n"),
    "gen-lr": (["gen", "--dataset", "GraphCycle", "--count", "6", "--lr", "9"],
               "usage error: unrecognized arguments: --lr 9\n"),
    "extract-epochs": (["extract", "--epochs", "7"],
                       "usage error: unrecognized arguments: --epochs 7\n"),
    "verify-lr": (["verify", "--lr", "9"], "usage error: unrecognized arguments: --lr 9\n"),
    "verify-data-dir": (["verify", "--data-dir", "nowhere"],
                        "usage error: unrecognized arguments: --data-dir nowhere\n"),
    "export-hidden-seed": (["export-hidden", "--checkpoint", "x.npz", "--seed", "3"],
                           "usage error: unrecognized arguments: --seed 3\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flag_is_usage_error_before_any_work(workspace, tmp_path, capsys, case):
    argv, message = BAD_FLAGS[case]
    out = tmp_path / "out"
    data = ["--data-dir", str(workspace / "data"), "--dataset", "GraphCycle"]
    cfg = tmp_path / "run.cfg"
    if "--config" in argv:
        at = argv.index("--config") + 1
        cfg.write_text(argv[at] + "\n")
        argv = [*argv[:at], str(cfg), *argv[at + 1:]]
    capsys.readouterr()
    needs_data = argv[0] in ("extract", "train")
    assert run([*argv, *(data if needs_data else []), "--out-dir", str(out)]) == 64
    assert capsys.readouterr().err == message.replace("{cfg}", str(cfg))
    assert not out.exists()     # no cache, checkpoint, manifest or report


def test_flags_are_checked_together(workspace, tmp_path):
    # --experts 1 next to the default k_ept = 2 is invalid; the flags as a whole are not
    assert run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                *BASE, "--epochs", "1", "--folds", "3", "--hidden-graphs", "2",
                "--experts", "1", "--k-ept", "1", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["config"]["experts"], manifest["config"]["k_ept"]) == (1, 1)


def test_flags_are_checked_over_the_config_file(workspace, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experts = 2\n")
    capsys.readouterr()
    assert run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                "--config", str(cfg), "--k-ept", "3", "--out-dir", str(tmp_path / "o")]) == 64
    assert capsys.readouterr().err == "usage error: --k-ept 3: k_ept must lie in 1..experts\n"


def test_settings_sharing_a_key_share_its_default():
    for key, specs in cli.SETTINGS.items():
        defaults = {getattr(cls, field) for cls, field, k in cli.TARGETS if k == key}
        assert defaults == ({cli.DEFAULTS[key]} if isinstance(specs, tuple) else set()), key


@pytest.mark.filterwarnings("ignore:class . has fewer members")
def test_default_train_manifest_config_is_pinned(workspace, tmp_path):
    assert run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == {
        "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-08, "batch_size": 32,
        "beta": 0.1, "combine_mode": "weighted-sum", "dropout": 0.2, "embed_dim": 32,
        "epochs": 100, "experts": 5, "fold_index": 0, "folds": 10,
        "gate_activation": "relu", "hidden_graphs": 8, "k_ept": 2, "k_walk": 5,
        "lambda_decay": 1.0, "lr": 0.001, "patience": 25, "readout_mode": "mean",
        "seed": 0, "step_mode": "concat-over-p", "steps": 3, "subgraph_cap": 64,
        "threads": 1, "val_fraction": 0.1, "walk_length": 8, "walks_per_node": 20}


# every option string each command takes: the flags of the settings it reads
OPTIONS = {
    "gen": {"--dataset", "--count", "--seed", "--out-dir", "--config"},
    "extract": {"--data-dir", "--dataset", "--cache-out", "--out-dir", "--config", "--seed",
                "--walk-length", "--walks-per-node", "--k-walk", "--subgraph-cap",
                "--threads"},
    "train": {"--data-dir", "--dataset", "--cache", "--out-dir", "--config", "--seed",
              "--walk-length", "--walks-per-node", "--k-walk", "--subgraph-cap", "--steps",
              "--step-mode", "--experts", "--hidden-graphs", "--k-ept", "--beta", "--epochs",
              "--lr", "--dropout", "--folds", "--fold-index", "--threads"},
    "verify": {"--seed", "--suite", "--max-nodes", "--max-p", "--out-dir", "--config"},
    "export-hidden": {"--checkpoint", "--prune-threshold", "--out-dir"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_command_takes_only_the_flags_it_reads(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sub.choices.keys() == OPTIONS.keys()
    taken = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert taken - {"-h", "--help"} == OPTIONS[command]


@pytest.fixture(scope="module")
def seed3_checkpoint(workspace):
    out = workspace / "seed3"
    assert run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                *BASE, "--epochs", "1", "--folds", "3", "--experts", "3",
                "--hidden-graphs", "2", "--out-dir", str(out)]) == 0
    return out / "checkpoint.npz"


# a non-train command's manifest config: the settings it read and its own arguments
MANIFEST_KEYS = {
    "gen": {"seed", "count", "dataset"},
    "extract": {"seed", "walk_length", "walks_per_node", "k_walk", "subgraph_cap", "threads"},
    "verify": {"seed", "suites", "max_nodes", "max_p"},
    "export-hidden": {"checkpoint", "prune_threshold"},
}


@pytest.mark.parametrize("command", sorted(MANIFEST_KEYS))
def test_manifest_records_only_the_settings_read(workspace, seed3_checkpoint, tmp_path,
                                                 command):
    # one config file serves every command that takes one, seed 3 included;
    # export-hidden records its checkpoint's seed (3), not the default (0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nwalk_length = 4\nepochs = 7\nexperts = 3\n")
    argv = {"gen": ["gen", "--dataset", "GraphCycle", "--count", "6"],
            "extract": ["extract", "--data-dir", str(workspace / "data"),
                        "--dataset", "GraphCycle", "--walks-per-node", "5"],
            "verify": ["verify", "--suite", "kernel-oracle", "--max-nodes", "3",
                       "--max-p", "1"],
            "export-hidden": ["export-hidden", "--checkpoint", str(seed3_checkpoint)]}[command]
    config = [] if command == "export-hidden" else ["--config", str(cfg)]
    assert run([*argv, *config, "--out-dir", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest["config"]) == MANIFEST_KEYS[command]
    assert manifest["seed"] == 3


def test_export_hidden_records_the_checkpoint_data(seed3_checkpoint, tmp_path):
    assert run(["export-hidden", "--checkpoint", str(seed3_checkpoint),
                "--out-dir", str(tmp_path)]) == 0
    trained = json.loads((seed3_checkpoint.parent / "manifest.json").read_text())
    exported = json.loads((tmp_path / "manifest.json").read_text())
    assert exported["dataset_hash"] == trained["dataset_hash"]


class TestVerifyAndExport:
    def test_verify_kernel_suite(self, workspace, capsys):
        code = run(["verify", "--suite", "kernel-oracle", "--max-nodes", "4",
                    "--max-p", "2", "--seed", "0",
                    "--out-dir", str(workspace / "v")])
        printed = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in printed
        assert (workspace / "v" / "verify-report.txt").exists()

    def test_exhaustive_case_is_bounded_by_max_nodes(self, tmp_path):
        # K4 x K4 has 1,062,880 walk pairs up to p = 5, within the budget, and the
        # case names the corpus's real bound; other suites ignore --max-p
        assert run(["verify", "--suite", "kernel-oracle", "--max-nodes", "4", "--max-p", "5",
                    "--out-dir", str(tmp_path / "k")]) == 0
        report = (tmp_path / "k" / "verify-report.txt").read_text()
        assert report.startswith("[PASS] kernel-oracle/exhaustive <=4-node pairs, p=1..5  (")
        assert run(["verify", "--suite", "wl", "--max-p", "5",
                    "--out-dir", str(tmp_path / "w")]) == 0

    @pytest.mark.parametrize("max_nodes", range(2, 9))
    def test_exhaustive_pairs_match_the_closed_form(self, max_nodes):
        for max_p in range(41):
            assert verify.exhaustive_walk_pairs(max_nodes, max_p) == \
                reference.exhaustive_walk_pairs(max_nodes, max_p)

    @pytest.mark.parametrize("max_nodes", range(3, 9))
    def test_huge_max_p_walks_a_few_levels(self, max_nodes):
        levels = []

        def counted(g, cap=None):
            for ends in walk_counts(g, cap):
                levels.append(ends)
                yield ends
        with mock.patch.object(verify, "walk_counts", counted):
            pairs, by = verify.exhaustive_walk_pairs(max_nodes, 10**6)
        assert (pairs, by) == reference.exhaustive_walk_pairs(max_nodes, 10**6)
        # K3 x K3 has 9 * 4^p pairs at length p, past the budget by p = 10
        assert pairs > verify.BUDGET and len(levels) == by + 1 <= 11

    def test_verify_walks_suite_report_is_pinned(self, tmp_path):
        # the full walks suite at seed 0: every check's verdict and detail,
        # including the rooted-pair line "distinguished (193/200)"
        assert run(["verify", "--suite", "walks", "--seed", "0",
                    "--out-dir", str(tmp_path)]) == 0
        report = (tmp_path / "verify-report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == WALKS_REPORT_SHA256

    @pytest.mark.parametrize("suite, digest", [
        # the oracles' check counts and mismatches, and the worst pair's
        # count of separating inits "(100/100)"
        ("kernel-oracle", KERNEL_ORACLE_REPORT_SHA256),
        ("wl", WL_REPORT_SHA256),
        # the worst relative errors of the kernel and end-to-end gradients
        ("grad", GRAD_REPORT_SHA256)])
    def test_verify_oracle_suite_report_is_pinned(self, tmp_path, suite, digest):
        assert run(["verify", "--suite", suite, "--seed", "0",
                    "--out-dir", str(tmp_path)]) == 0
        report = (tmp_path / "verify-report.txt").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest

    @pytest.mark.parametrize("suite, target, case", [
        ("grad", "trainer.frozen_loss", "end-to-end graph-task gradients"),
        ("grad", "verify.rwk_hidden_grad", "kernel gradients on 120 instances"),
        ("kernel-oracle", "verify.rwk_hidden", "hidden-graph identity on 500 instances")])
    def test_nan_error_fails_its_case(self, tmp_path, monkeypatch, suite, target, case):
        # a NaN error is the worst error: the case fails and verify exits 1
        import mose.trainer
        import mose.verify
        module, name = target.split(".")
        module = {"trainer": mose.trainer, "verify": mose.verify}[module]
        real = getattr(module, name)

        def nan_loss_grads(*args, **kwargs):
            out = real(*args, **kwargs)
            if args[6] is not None:         # the analytic pass's gradients
                args[6]["head.b1"][0] = np.nan
            return out

        def nan_kernel_grad(*args):
            out = real(*args)
            out.d_W[0, 0] = np.nan
            return out

        patched = {"frozen_loss": nan_loss_grads, "rwk_hidden_grad": nan_kernel_grad,
                   "rwk_hidden": lambda *args: float("nan")}[name]
        monkeypatch.setattr(module, name, patched)
        assert run(["verify", "--suite", suite, "--max-nodes", "3", "--max-p", "2",
                    "--out-dir", str(tmp_path)]) == 1
        lines = (tmp_path / "verify-report.txt").read_text().splitlines()
        assert f"[FAIL] {suite}/{case}  (max rel " in "\n".join(lines)
        assert [line for line in lines if case in line][0].endswith(" nan)")

    def test_nan_embedding_fails_the_wl_case(self, tmp_path, monkeypatch):
        # one graph's NaN embedding separates none of its pairs in any init
        import mose.verify
        real = mose.verify.embed_group

        def nan_last_graph(*args, **kwargs):
            out = real(*args, **kwargs)
            out[-1] = np.nan
            return out

        monkeypatch.setattr(mose.verify, "embed_group", nan_last_graph)
        assert run(["verify", "--suite", "wl", "--out-dir", str(tmp_path)]) == 1
        lines = (tmp_path / "verify-report.txt").read_text().splitlines()
        assert lines[-1].startswith("[FAIL] wl/random-init embeddings separate ")
        assert lines[-1].endswith("(worst pair separated in 0/100 inits)")

    def test_export_hidden(self, workspace):
        out = workspace / "t1"
        dots = workspace / "dots"
        assert run(["export-hidden", "--checkpoint", str(out / "checkpoint.npz"),
                    "--out-dir", str(dots), "--prune-threshold", "0.05"]) == 0
        files = sorted(os.listdir(dots))
        assert "expert0_hg0.dot" in files
        assert "expert2_hg1.dot" in files
        text = (dots / "expert0_hg0.dot").read_text()
        assert text.startswith("graph expert0_hg0")

    def test_missing_checkpoint(self, tmp_path):
        assert run(["export-hidden", "--checkpoint", str(tmp_path / "no.npz"),
                    "--out-dir", str(tmp_path)]) == 2


def _npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _npz_edit(body: bytes, drop=(), meta=None, **arrays) -> bytes:
    """An npz archive's bytes with members dropped or replaced, and keys of its
    meta record set to new values."""
    with np.load(io.BytesIO(body)) as data:
        members = {k: data[k] for k in data.files if k not in drop}
    if meta:
        members["meta"] = json.dumps(json.loads(str(members["meta"])) | meta)
    return _npz(**(members | arrays))


CACHE_HEAD = (b"mose-subgraphs v1\ndataset=GraphCycle seed=3 walk_length=4 "
              b"walks_per_node=5 pattern_budget=3 cap=12\n")
NO_META = _npz(x=np.zeros(2))

# (file the run reads, its bytes or an edit of them, exit code, what stderr says
# after the path)
FAILURES = {
    "config-int": ("config", b"epochs = x\n", 64, ":1: epochs must be an int, got 'x'"),
    "config-float": ("config", b"seed=3\nlr = fast\n", 64,
                     ":2: lr must be a float, got 'fast'"),
    "config-bytes": ("config", b"epochs=2\nseed=\xff\n", 2, ":2: not UTF-8 text"),
    "config-choice": ("config", b"step_mode = bogus\n", 64,
                      ":1: step_mode must be one of ('single-p', 'sum-over-p', 'concat-over-p')"),
    "config-range": ("config", b"seed=3\nexperts = 0\n", 64,
                     ":2: k_ept must lie in 1..experts"),
    "config-fold": ("config", b"folds = 3\nfold_index = -1\n", 64,
                    ":2: fold_index must lie in 0..2 (folds = 3), got -1"),
    "tu-field": ("tu-A", b"1, 2\n2, x\n", 2, ":2: expected 'i, j', got '2, x'"),
    "tu-bytes": ("tu-labels", b"0\n1\xff\n", 2, ":2: not UTF-8 text"),
    # graph 2's nodes moved to graph 1, so its edges stay inside one graph
    "tu-empty-graph": ("tu-indicator", lambda ind: re.sub(rb"(?m)^2$", b"1", ind), 2,
                       ": graph 2 has no nodes"),
    # one 4-node graph of two classes: the per-class floors leave the test part no node
    "tu-node-split": ("tu-node-labels", b"0\n0\n1\n1\n", 64,
                      ": the test part of the 0.6/0.2/0.2 node split is empty "
                      "(GraphCycle has [2, 2] nodes per class)"),
    "cache-bytes": ("cache", CACHE_HEAD + b"g 0\nv 0 \xff\n", 2, ":4: not UTF-8 text"),
    # node 0's record in graph 0 of the cache extracted for the data, replaced
    "cache-record-range": ("cache", lambda c: re.sub(rb"(?m)^v .*$", b"v 0 99999", c, count=1),
                           2, ": graph 0 node 0: record holds 99999, outside 0.."),
    "cache-record-start": ("cache", lambda c: re.sub(rb"(?m)^v .*$", b"v 5 1 2", c, count=1),
                           2, ": graph 0 node 0: record starts with 5, not 0"),
    "cache-record-repeat": ("cache", lambda c: re.sub(rb"(?m)^v .*$", b"v 0 1 1 2", c, count=1),
                            2, ": graph 0 node 0: record repeats 1"),
    "cache-id-overflow": ("cache", CACHE_HEAD + b"g 0\nv 0 99999999999999999999\n", 2,
                          ":4: malformed 'v' line 'v 0 99999999999999999999'"),
    "resume-no-meta": ("checkpoint", NO_META, 2, ": not a mose checkpoint: no meta record"),
    # a member of the checkpoint the run resumes, edited: a 0-d parameter would
    # broadcast, a missing Adam moment would restart at zero
    "resume-param-0d": ("checkpoint", lambda c: _npz_edit(c, **{"param/gating.W_g": 0.5}),
                        2, ": param/gating.W_g: float64 array of shape (), expected floats "
                           "of shape (21, 3)"),
    "resume-adam-missing": ("checkpoint", lambda c: _npz_edit(c, drop=["adam_m/head.b1"]),
                            2, ": adam_m/head.b1: missing"),
    "resume-adam-shape": ("checkpoint", lambda c: _npz_edit(c, **{"adam_m/head.b1": np.ones(5)}),
                          2, ": adam_m/head.b1: float64 array of shape (5,), expected floats "
                             "of shape (2,)"),
    "resume-adam-t": ("checkpoint", lambda c: _npz_edit(c, meta={"adam_t": "3"}), 2,
                      ": meta: adam_t must be an integer, got '3'"),
    "export-no-meta": ("export", NO_META, 2, ": not a mose checkpoint: no meta record"),
    "export-junk": ("export", b"junk\n", 2, ": not a mose checkpoint: not an npz archive"),
    "export-meta-not-json": ("export", _npz(meta="{version"), 2,
                             ": not a mose checkpoint: Expecting property name"),
    "export-meta-lacks-key": ("export",
                              _npz(meta=json.dumps({"version": CHECKPOINT_VERSION})), 2,
                              ": not a mose checkpoint: missing 'model_config'"),
    "export-version": ("export", _npz(meta=json.dumps({"version": 99})), 2,
                       ": not a mose checkpoint: unsupported version 99"),
}


@pytest.fixture(scope="module")
def extracted_cache(workspace):
    out = workspace / "extracted"
    assert run(["extract", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                *BASE, "--out-dir", str(out)]) == 0
    return out / "GraphCycle.cache"


@pytest.fixture(scope="module")
def resumable_checkpoint(workspace):
    """The checkpoint of a finished 1-epoch run with the settings of the run below."""
    out = workspace / "resumable"
    assert run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                *BASE, "--epochs", "1", "--folds", "3", "--experts", "3",
                "--hidden-graphs", "2", "--out-dir", str(out)]) == 0
    return out / "checkpoint.npz"


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_malformed_input_exit_code_names_file(workspace, extracted_cache, tmp_path, capsys,
                                              request, case):
    target, body, code, message = FAILURES[case]
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(workspace / "data" / "GraphCycle", data / "GraphCycle")
    args = ["train", "--data-dir", str(data), "--dataset", "GraphCycle", *BASE,
            "--epochs", "1", "--folds", "3", "--experts", "3", "--hidden-graphs", "2",
            "--out-dir", str(out)]
    path = {"config": tmp_path / "run.cfg",
            "tu-A": data / "GraphCycle" / "GraphCycle_A.txt",
            "tu-labels": data / "GraphCycle" / "GraphCycle_graph_labels.txt",
            "tu-indicator": data / "GraphCycle" / "GraphCycle_graph_indicator.txt",
            "tu-node-labels": data / "GraphCycle" / "GraphCycle_node_labels.txt",
            "cache": tmp_path / "bad.cache",
            "checkpoint": out / "checkpoint.npz",
            "export": tmp_path / "bad.npz"}[target]
    path.parent.mkdir(parents=True, exist_ok=True)
    if target == "tu-node-labels":      # the data becomes a node task on a 4-cycle
        for suffix, text in (("A", "1, 2\n2, 3\n3, 4\n4, 1\n"),
                             ("graph_indicator", "1\n1\n1\n1\n"), ("graph_labels", "0\n")):
            (path.parent / f"GraphCycle_{suffix}.txt").write_text(text)
    if target == "cache":
        shutil.copyfile(extracted_cache, path)
    elif target == "checkpoint" and callable(body):
        shutil.copyfile(request.getfixturevalue("resumable_checkpoint"), path)
    path.write_bytes(body(path.read_bytes()) if callable(body) else body)
    if target == "config":
        args += ["--config", str(path)]
    elif target == "cache":
        args += ["--cache", str(path)]
    elif target == "export":
        args = ["export-hidden", "--checkpoint", str(path), "--out-dir", str(out)]
    capsys.readouterr()
    assert run(args) == code
    prefix = "usage error: " if code == 64 else "error: "
    assert capsys.readouterr().err.startswith(f"{prefix}{path}{message}")
    assert not (out / "manifest.json").exists() and not (out / "metrics.csv").exists()


def _checkpoint_edits(body: bytes) -> list:
    """(op, where, name) for every edit the fuzz below makes to a checkpoint:
    each member dropped, reshaped or retyped, and each field of its meta record
    (each config's fields, each row's fields and their list entries too)
    dropped or retyped; ``name`` is what the refusal must name."""
    with np.load(io.BytesIO(body)) as data:
        members = list(data.files)
        meta = json.loads(str(data["meta"]))
    edits = [(op, ("member", m), m) for m in members for op in ("drop", "reshape", "retype")]

    def fields(value, where, name):
        if isinstance(value, dict):
            for key, item in value.items():
                inner = f"{name}.{key}" if name else key
                edits.append(("drop", where + (key,), inner))
                edits.append(("retype", where + (key,), inner))
                fields(item, where + (key,), inner)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                inner = f"{name}[{i}]" if isinstance(item, dict) else name
                if not isinstance(item, dict):
                    edits.append(("retype", where + (i,), inner))
                fields(item, where + (i,), inner)

    fields(meta, ("meta",), "")
    return edits


def _retyped(value, choice: int):
    """A JSON value of another type than ``value``: not a number for a float,
    not an integer for an int."""
    options = ["x", 1.5, [1], {"a": 1}, None, True]
    options = [o for o in options if type(o) is not type(value)
               and not (isinstance(value, float) and isinstance(o, float))]
    return options[choice % len(options)]


def _edit_checkpoint(body: bytes, op: str, where: tuple, choice: int) -> bytes:
    with np.load(io.BytesIO(body)) as data:
        members = {k: data[k] for k in data.files}
    if where[0] == "member":
        name = where[1]
        arr = members.pop(name)
        if op == "reshape":
            members[name] = arr[None]
        elif op == "retype":
            kinds = [np.int64, np.bool_, np.str_, np.bytes_] if arr.dtype.kind == "f" else [
                np.float64, np.int64, np.bytes_]
            kind = kinds[choice % len(kinds)]
            members[name] = (arr.astype(kind) if kind in (np.str_, np.bytes_)
                             or arr.dtype.kind == "f" else np.zeros(arr.shape, kind))
        return _npz(**members)
    meta = json.loads(str(members["meta"]))
    parent = meta
    for key in where[1:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[where[-1]]
    else:
        parent[where[-1]] = _retyped(parent[where[-1]], choice)
    members["meta"] = json.dumps(meta)
    return _npz(**members)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_checkpoint_edits_are_refused_naming_the_member(workspace, resumable_checkpoint,
                                                        tmp_path_factory, data):
    # a resumed run's checkpoint with one member or meta field dropped, reshaped
    # or retyped: the run stops with a FormatError naming the path and what was
    # edited, exit 2, before it writes anything
    body = resumable_checkpoint.read_bytes()
    op, where, name = data.draw(st.sampled_from(_checkpoint_edits(body)))
    edited = _edit_checkpoint(body, op, where, data.draw(st.integers(0, 5)))
    out = tmp_path_factory.mktemp("fuzz")
    (out / "checkpoint.npz").write_bytes(edited)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(["train", "--data-dir", str(workspace / "data"), "--dataset", "GraphCycle",
                    *BASE, "--epochs", "2", "--folds", "3", "--experts", "3",
                    "--hidden-graphs", "2", "--out-dir", str(out)])
    message = err.getvalue()
    assert code == 2, message
    assert message.startswith(f"error: {out / 'checkpoint.npz'}: ") and name in message, \
        (op, where, message)
    assert os.listdir(out) == ["checkpoint.npz"]
    assert (out / "checkpoint.npz").read_bytes() == edited


def test_unexpected_exception_is_runtime_error(monkeypatch, capsys):
    def broken(args):
        raise KeyError("walk_length")

    monkeypatch.setattr(cli, "cmd_gen", broken)
    assert run(["gen", "--dataset", "GraphCycle", "--count", "2"]) == 2
    assert capsys.readouterr().err == "internal error: KeyError: 'walk_length'\n"
