import json
import os

import numpy as np
import pytest

from mose.cli import main


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    assert run(["gen", "--dataset", "GraphCycle", "--count", "6", "--seed", "3",
                "--out-dir", str(root / "data")]) == 0
    return root


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

    def test_nan_checkpoint_resume_gives_numeric_failure(self, workspace, tmp_path):
        out = workspace / "t3"
        assert run(self.train_args(workspace, out)) == 0
        # poison the checkpoint params, then ask for more epochs
        import mose.trainer as tr
        model, state, cfg = tr.load_checkpoint(str(out / "checkpoint.npz"))
        state["params"]["head.W0"][0, 0] = np.nan
        tr.save_checkpoint(str(out / "checkpoint.npz"), model, state, cfg)
        code = run(self.train_args(workspace, out, ["--epochs", "4"]))
        assert code == 2
        dump = json.loads((out / "failure-dump.json").read_text())
        assert "param_norms" in dump


class TestVerifyAndExport:
    def test_verify_kernel_suite(self, workspace, capsys):
        code = run(["verify", "--suite", "kernel-oracle", "--max-nodes", "4",
                    "--max-p", "2", "--seed", "0",
                    "--out-dir", str(workspace / "v")])
        printed = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in printed
        assert (workspace / "v" / "verify-report.txt").exists()

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
