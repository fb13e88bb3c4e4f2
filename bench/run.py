"""mose benchmark: one closed-loop client running the user's mose commands.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload graph-cycle --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one traced
pass and prints the per-layer metrics. The last line of standard output is
the JSON result; the lines before it name every end-to-end metric with its
unit, list each output check, and give the environment record. The full
record is written under ``.bench_work/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1    # small matrices: more BLAS threads only add noise here
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_RUNS = 3     # fresh interpreters timed per call of time_imports


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["graph-cycle", "node-wide", "verify"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def time_imports(runs: int = IMPORT_RUNS) -> list[float]:
    """Wall times of fresh interpreters that start and import numpy and mose.

    Each is process start to imports done, the first part of ``setup_s``;
    timing fresh processes, rather than the one import this process made,
    lets the run take a median of several.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds times up to ~50 ms steps
        subprocess.run([sys.executable, "-c", "import numpy, mose.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    try:
        import mose.cli  # loads every mose module
    except ImportError as e:
        print(f"cannot import mose from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(mose.cli.__file__).startswith(SRC + os.sep):
        print(f"mose was imported from {mose.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    results_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    result, report, record = workloads.run(args.workload, args.seed, args.seconds,
                                           bool(args.trace), time_imports, ROOT, results_dir)
    record["environment"] = environment()
    record["result"] = result
    path = os.path.join(results_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    for line in report:
        print(line)
    print("digests " + json.dumps(record["digests"], sort_keys=True))
    print("manifests " + json.dumps(record["manifests"], sort_keys=True))
    print("env " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
