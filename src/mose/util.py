"""Shared plumbing: errors, seeded substreams, hashing, run manifests."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable

import numpy as np


class BudgetError(RuntimeError):
    """Raised when an exhaustive computation would exceed its work budget."""


class FormatError(ValueError):
    """Raised on malformed dataset files; message carries file and line."""


def read_text_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file; an undecodable byte raises FormatError
    naming ``path:line``."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key) so workers never share state.

    The same (seed, key) always yields the same stream, regardless of how
    many other streams were created in between.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def hash_arrays(arrays: Iterable[np.ndarray]) -> str:
    """Stable content hash over an ordered collection of arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def write_manifest(out_dir: str, command: str, config: dict, seed: int,
                   dataset_hash: str | None = None) -> str:
    """Write the effective run configuration next to the command's outputs."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    payload = {
        "command": command,
        "seed": seed,
        "config": {k: _jsonable(v) for k, v in sorted(config.items())},
    }
    if dataset_hash is not None:
        payload["dataset_hash"] = dataset_hash
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, tuple):
        return list(v)
    return v
