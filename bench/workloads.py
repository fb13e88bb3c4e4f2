"""The benchmark's workloads, each a single closed-loop client of the mose CLI.

A run sets its inputs up a few times, then repeats passes of user commands
(each waiting for the last, each pass in a fresh out-dir) until the
measuring time is spent. Every command goes through ``mose.cli.main`` in
this process. Outputs are digested after every pass and checked: commands
exit 0, passes repeat each other exactly, and for the reference seed the
digests match ``references.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

from mose import load_tu_dataset, make_folds, make_node_splits, save_tu_dataset
from mose.cli import main as mose_main

import fixture
from layers import (CALL_METRICS, COUNT_METRICS, INCLUSIVE, LAYERS, derived_counts,
                    layer_metrics)
from spans import Tracer, wrapper_cost_s

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
REFERENCE_SEED = 0
SETUPS = 3                 # set-ups per untraced run; setup_s takes their median
LOSS_RTOL = 1e-6           # final test loss against the reference
PARAM_RTOL = 1e-6          # per-tensor parameter norms against the reference
SUITES = ["grad", "kernel-oracle", "walks", "wl"]


class Ledger:
    """Commands and output checks attempted, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.failed += not ok
        self.lines.append(f"{'PASS' if ok else 'FAIL'} {name}"
                          + (f" ({detail})" if detail else ""))
        return ok


class Session:
    """Runs mose commands in process, with their output sent to a log file."""

    def __init__(self, work: str, ledger: Ledger):
        self.ledger = ledger
        self.log = os.path.join(work, "commands.log")

    def mose(self, *argv: str) -> float:
        """Run one command; return its wall time. A non-zero exit is a failed op."""
        with open(self.log, "a") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            print("$ mose " + " ".join(argv))
            t0 = time.perf_counter()
            try:
                rc = mose_main(list(argv))
            except Exception:          # a traceback is a failed command, not a crash
                traceback.print_exc()
                rc = "exception"
            wall = time.perf_counter() - t0
        self.ledger.check(f"mose {argv[0]} exits 0", rc == 0, f"exit {rc}")
        return wall

    def guarded(self, name: str, fn, *args):
        """Run a benchmark-side step as a check that fails if it raises."""
        try:
            out = fn(*args)
        except Exception as e:
            self.ledger.check(name, False, f"{type(e).__name__}: {e}")
            return None
        self.ledger.check(name, True)
        return out


# -- digests ----------------------------------------------------------------------

def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        h.update(sha256_file(os.path.join(path, name)).encode())
    return h.hexdigest()


def read_manifest(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json")) as f:
        return json.load(f)


def training_digest(run_dir: str, dataset: str) -> dict:
    """Cache bytes, final test loss and accuracy, and the trained parameters."""
    with open(os.path.join(run_dir, "metrics.csv")) as f:
        header, *rows = [line.split(",") for line in f.read().splitlines()]
    test = dict(zip(header, [r for r in rows if r[1] == "test"][-1]))
    with np.load(os.path.join(run_dir, "checkpoint.npz")) as ckpt:
        names = sorted(k for k in ckpt.files if k.startswith("param/"))
        params = {k[len("param/"):]: ckpt[k] for k in names}
    h = hashlib.sha256()
    for name, value in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return {
        "cache_sha256": sha256_file(os.path.join(run_dir, f"{dataset}.cache")),
        "test_loss": float(test["loss_task"]),
        "test_accuracy": float(test["accuracy"]),
        "param_sha256": h.hexdigest(),
        "param_norms": {k: float(np.linalg.norm(v)) for k, v in params.items()},
    }


def verify_digest(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "verify-report.txt")) as f:
        lines = f.read().splitlines()
    suites = sorted({line.split("] ", 1)[1].split("/", 1)[0] for line in lines})
    return {"suites": suites, "cases": len(lines),
            "failed_cases": [line for line in lines if not line.startswith("[PASS]")],
            "report_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def check_training_reference(ledger: Ledger, got: dict, ref: dict):
    ledger.check("cache sha256 matches the reference",
                 got["cache_sha256"] == ref["cache_sha256"])
    ledger.check("test accuracy matches the reference",
                 got["test_accuracy"] == ref["test_accuracy"],
                 f"{got['test_accuracy']} vs {ref['test_accuracy']}")
    ledger.check(f"test loss within {LOSS_RTOL:g} of the reference",
                 bool(np.isclose(got["test_loss"], ref["test_loss"], rtol=LOSS_RTOL, atol=0)),
                 f"{got['test_loss']!r} vs {ref['test_loss']!r}")
    names = sorted(ref["param_norms"])
    ok = sorted(got["param_norms"]) == names and all(
        np.isclose(got["param_norms"][k], ref["param_norms"][k], rtol=PARAM_RTOL, atol=0)
        for k in names)
    ledger.check(f"parameter norms within {PARAM_RTOL:g} of the reference", ok)


# -- workloads --------------------------------------------------------------------

class Training:
    """gen or fixture -> TU files, then passes of ``mose extract`` + ``mose train``."""

    kind = "training"

    def __init__(self, name: str, dataset: str, epochs: int, train_flags: tuple):
        self.name = name
        self.dataset = dataset
        self.epochs = epochs
        self.train_flags = train_flags

    def build(self, session: Session, seed: int, dest: str):
        raise NotImplementedError

    def train_items(self, data, seed: int) -> int:
        raise NotImplementedError

    def run_pass(self, session: Session, seed: int, data_dir: str, run_dir: str) -> dict:
        common = ("--data-dir", data_dir, "--dataset", self.dataset, "--seed", str(seed),
                  "--threads", "1", "--out-dir", run_dir)
        extract_s = session.mose("extract", *common)
        manifests = {"extract": session.guarded("extract manifest", read_manifest, run_dir)}
        train_s = session.mose("train", *common, "--epochs", str(self.epochs),
                               "--cache", os.path.join(run_dir, f"{self.dataset}.cache"),
                               *self.train_flags)
        manifests["train"] = session.guarded("train manifest", read_manifest, run_dir)
        digest = session.guarded("training outputs readable", training_digest,
                                 run_dir, self.dataset)
        return {"wall_s": extract_s + train_s, "extract_s": extract_s,
                "train_s": train_s, "digest": digest, "manifests": manifests}


class GraphCycle(Training):
    COUNT = 60
    FOLDS = 5

    def __init__(self):
        super().__init__("graph-cycle", "GraphCycle", epochs=2,
                         train_flags=("--folds", str(self.FOLDS), "--fold-index", "0"))

    def build(self, session, seed, dest):
        session.mose("gen", "--dataset", self.dataset, "--count", str(self.COUNT),
                     "--seed", str(seed), "--out-dir", dest)

    def train_items(self, data, seed):
        # graphs of training fold 0, before train carves its validation share
        return len(make_folds(data, self.FOLDS, seed).folds[0][0]) * self.epochs


class NodeWide(Training):
    def __init__(self):
        super().__init__("node-wide", fixture.NAME, epochs=2, train_flags=())

    def build(self, session, seed, dest):
        session.guarded("node-wide fixture written", save_tu_dataset,
                        fixture.node_wide_dataset(seed), os.path.join(dest, self.dataset))

    def train_items(self, data, seed):
        return int(make_node_splits(data, (0.6, 0.2, 0.2), seed).masks[0].sum()) * self.epochs


class Verify:
    """``mose verify`` with no flags: all four suites, as CI runs it.

    The suites draw their cases from the CLI's default seed, not from the
    benchmark seed: the walks suite's exhaustive enumerations cost 3-13 s
    depending on the seed, which put the spread of ``pipeline_s`` across
    ten seeds at 0.215 against its bound of 0.25.
    """

    kind = "verify"
    name = "verify"

    def build(self, session, seed, dest):
        os.makedirs(dest, exist_ok=True)

    def run_pass(self, session, seed, data_dir, run_dir):
        wall = session.mose("verify", "--out-dir", run_dir)
        manifests = {"verify": session.guarded("verify manifest", read_manifest, run_dir)}
        digest = session.guarded("verify report readable", verify_digest, run_dir)
        return {"wall_s": wall, "digest": digest, "manifests": manifests}


WORKLOADS = {w.name: w for w in (GraphCycle(), NodeWide(), Verify())}


# -- one run ----------------------------------------------------------------------

def _median(xs):
    return float(statistics.median(xs))


def run(workload: str, seed: int, seconds: float, trace: bool, time_imports,
        root: str, results_dir: str):
    """One benchmark run; returns (result line dict, report lines, full record).

    ``time_imports()`` times a few fresh-interpreter imports of numpy and mose.
    It is called, and the first input is built, before the passes; the other
    builds and imports come after them. The host's speed drifts over tens of
    seconds, so set-up samples spread over the run give a steadier median.
    """
    wl = WORKLOADS[workload]
    ledger = Ledger()
    work = os.path.join(root, ".bench_work", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    session = Session(work, ledger)
    tracer = Tracer("mose").install(LAYERS) if trace else None
    setups, tu_digests = [], []

    def set_up(k: int):
        dest = os.path.join(work, f"data{k}")
        t0 = time.perf_counter()
        wl.build(session, seed, dest)
        setups.append(time.perf_counter() - t0)
        if wl.kind == "training":
            tu_digests.append(session.guarded("TU files readable", sha256_dir,
                                              os.path.join(dest, wl.dataset)))

    import_runs = time_imports()
    with tracer or contextlib.nullcontext():
        set_up(0)
        data_dir = os.path.join(work, "data0")
        passes = []
        measure_start = time.perf_counter()
        while not passes or (not trace and time.perf_counter() - measure_start < seconds):
            run_dir = os.path.join(work, f"run{len(passes)}")
            passes.append(wl.run_pass(session, seed, data_dir, run_dir))
        for k in range(1, 1 if trace else SETUPS):
            set_up(k)
    if not trace:
        import_runs += time_imports()
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "setup_runs_s": setups, "import_runs_s": import_runs,
              "passes": [{k: v for k, v in p.items() if k != "manifests"} for p in passes],
              "manifests": passes[0]["manifests"]}
    if wl.kind == "training" and os.path.exists(os.path.join(work, "data0", "manifest.json")):
        record["manifests"]["gen"] = read_manifest(os.path.join(work, "data0"))

    # output checks
    if len(tu_digests) > 1:
        ledger.check("every set-up writes byte-identical TU files",
                     None not in tu_digests and len(set(tu_digests)) == 1)
    digests = [p["digest"] for p in passes]
    for i, d in enumerate(digests[1:], start=1):
        ledger.check(f"pass {i} repeats the outputs of pass 0 exactly", d == digests[0])
    if wl.kind == "verify" and digests[0] is not None:
        ledger.check("all four verify suites ran", digests[0]["suites"] == SUITES,
                     ",".join(digests[0]["suites"]))
        ledger.check("every verify case passes", not digests[0]["failed_cases"],
                     "; ".join(digests[0]["failed_cases"])[:300])
    if seed == REFERENCE_SEED and wl.kind == "training" and digests[0] is not None:
        ref = _load_references().get(workload)
        if ledger.check("reference digests recorded for this workload", ref is not None):
            ledger.check("TU files match the reference", tu_digests[0] == ref["tu_sha256"])
            check_training_reference(ledger, digests[0], ref["outputs"])
    record["digests"] = {"tu_sha256": tu_digests[0] if tu_digests else None,
                         "outputs": digests[0]}

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p["wall_s"] for p in passes]
    report = [f"workload {workload}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
              f"set-ups {len(setups)}"]
    named = {"setup_s": (_median(import_runs) + _median(setups), "s"),
             "pipeline_s": (_median(walls), "s"),
             "peak_rss_mb": (peak_rss_mb, "MB")}
    data = None
    if wl.kind == "training":
        data = session.guarded("dataset loads for the item counts", load_tu_dataset,
                               os.path.join(data_dir, wl.dataset), wl.dataset)
    if data is not None:
        nodes = sum(g.node_count for g in data.graphs)
        items = wl.train_items(data, seed)
        named["extract_nodes_per_s"] = (nodes / _median([p["extract_s"] for p in passes]), "1/s")
        named["train_items_per_s"] = (items / _median([p["train_s"] for p in passes]), "1/s")
        record["nodes"], record["train_items"] = nodes, items
    if wl.kind == "verify":
        named["verify_s"] = named["pipeline_s"]
    named["ops_failed_share"] = (ledger.failed / max(1, ledger.attempted), "ratio")
    for key, (value, unit) in named.items():
        report.append(f"{key} = {value:.6g} {unit}")
    report.append(f"ops attempted {ledger.attempted}, failed {ledger.failed}")
    report.extend(ledger.lines)
    record["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    record["checks"] = ledger.lines

    if trace:
        metrics = _trace_metrics(tracer, walls[0])
        tracer.save(os.path.join(results_dir, f"spans-{workload}-s{seed}.npz"))
    else:
        metrics = {key: {"value": named[key][0], "unit": named[key][1]}
                   for key in ("setup_s", "pipeline_s", "peak_rss_mb")}
    if ledger.failed:
        report.append(f"kept {work} for inspection; commands.log holds the command output")
    else:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, report, record


def _trace_metrics(tracer, traced_wall_s: float) -> dict:
    values = layer_metrics(tracer.summary(INCLUSIVE))
    out = {k: {"value": v, "unit": "count" if k in CALL_METRICS else "s"}
           for k, v in values.items()}
    for k, v in derived_counts(tracer.counts).items():
        out[k] = {"value": v, "unit": COUNT_METRICS[k]}
    spans = len(tracer.start)
    out["trace.pipeline_s"] = {"value": traced_wall_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": spans * wrapper_cost_s() + tracer.observe_s,
                               "unit": "s"}
    out["trace.spans"] = {"value": float(spans), "unit": "count"}
    return out


def _load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)
