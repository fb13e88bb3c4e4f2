"""Shared plumbing: errors, seeded substreams, hashing, run manifests."""

from __future__ import annotations

import contextlib
import functools
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


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Open a temporary file beside ``path`` for writing; it replaces ``path``
    (``os.replace``) when the block exits cleanly and is removed when it
    raises, so ``path`` holds either its old bytes or all of the new ones."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key) so workers never share state.

    The same (seed, key) always yields the same stream, regardless of how
    many other streams were created in between.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(const: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's first ``count`` hash constants, which do not depend on
    the data: each hash's (old, new) pair, as a (2, count) uint32 array."""
    pairs = []
    for _ in range(count):
        pairs.append((const, const * mult & _MASK32))
        const = pairs[-1][1]
    return np.array(pairs, dtype=np.uint32).reshape(count, 2).T


def _hash(values: np.ndarray, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 ``values`` with constants (old, new)."""
    v = (values ^ old) * new
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of pool words ``x`` with hashed words ``y``."""
    v = _MIX_L * x - _MIX_R * y
    return v ^ (v >> np.uint32(16))


@functools.lru_cache(maxsize=8)
def _pcg_jumps(count: int) -> tuple[np.ndarray, ...]:
    """(A_lo, A_hi, C_lo, C_hi), read-only (count,) uint64 words of the A_k and
    C_k that give PCG64's state before output k (k = 1..count) as
    A_k * s + C_k * inc mod 2^128 after ``srandom(s, inc)``."""
    a, c, jumps = _PCG_MULT, _PCG_MULT + 1, []
    for _ in range(count):
        a, c = a * _PCG_MULT % 2**128, (c * _PCG_MULT + 1) % 2**128
        jumps.append([a & 2**64 - 1, a >> 64, c & 2**64 - 1, c >> 64])
    words = np.array(jumps, dtype=np.uint64).reshape(count, 4).T.copy()
    words.setflags(write=False)
    return tuple(words)


def _mul128(a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray):
    """(low, high) uint64 words of (a_hi 2^64 + a_lo)(b_hi 2^64 + b_lo) mod 2^128;
    the high word of a_lo * b_lo comes from 32-bit partial products."""
    low, half = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a_lo & low, a_lo >> half, b_lo & low, b_lo >> half
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> half) + (p01 & low) + (p10 & low)
    hi = a1 * b1 + (p01 >> half) + (p10 >> half) + (mid >> half) + a_hi * b_lo + a_lo * b_hi
    return a_lo * b_lo, hi


def substream_words(seed: int, keys: np.ndarray, count: int) -> np.ndarray:
    """``substream(seed, *key).bit_generator.random_raw(count)`` for every row
    ``key`` of the (m, k) integer array ``keys`` (k >= 1), as (m, count) uint64.

    It mixes each key's words into the pool ``SeedSequence(seed)`` holds, runs
    ``generate_state(4, uint64)`` on it, then PCG64's seeding and ``count``
    XSL-RR outputs, in uint32 and uint64 array passes over all rows at once.
    A key outside [0, 2^32) raises ValueError: SeedSequence would take it as
    several entropy words.
    """
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] < 1:
        raise ValueError(f"keys must be an (m, k) array with k >= 1, got shape {keys.shape}")
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("substream keys must lie in [0, 2**32)")
    # SeedSequence(seed) mixes the seed's words as a spawned one does before its
    # key (a pool word past the seed's is hashed as 0 either way); the key's
    # words then take the next hash constants, one per pool word, and the
    # pool's words are mixed independently of each other
    seed_words = max(1, -(-int(seed).bit_length() // 32))
    skip = _POOL * _POOL + _POOL * max(0, seed_words - _POOL)
    consts = _hash_consts(_INIT_A, _MULT_A, skip + _POOL * keys.shape[1])
    old, new = consts[:, skip:].reshape(2, -1, _POOL, 1)
    pool = np.random.SeedSequence(seed).pool[:, None]             # (4, 1), then (4, m)
    for word, o, n in zip(keys.astype(np.uint32).T, old, new):
        pool = _mix(pool, _hash(word, o, n))
    # generate_state(4, uint64): the pool twice over, hashed word by word
    old, new = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)[..., None]
    state = _hash(np.concatenate([pool, pool]), old, new).astype(np.uint64)
    # PCG64 seeds from the words (s_hi, s_lo, inc_hi, inc_lo), little-endian pairs
    s_hi, s_lo, i_hi, i_lo = state[0::2] | state[1::2] << np.uint64(32)
    inc_hi = i_hi << np.uint64(1) | i_lo >> np.uint64(63)
    inc_lo = i_lo << np.uint64(1) | np.uint64(1)
    a_lo, a_hi, c_lo, c_hi = _pcg_jumps(count)
    lo, hi = _mul128(a_lo, a_hi, s_lo[:, None], s_hi[:, None])
    lo2, hi2 = _mul128(c_lo, c_hi, inc_lo[:, None], inc_hi[:, None])
    lo += lo2
    hi += hi2 + (lo < lo2)
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return x >> rot | x << (-rot & np.uint64(63))


def unique(values, return_index: bool = False, return_inverse: bool = False,
           return_counts: bool = False):
    """``np.unique`` of the flattened integer or void ``values``: the same
    arrays, in the same order and dtypes, from one sort.

    numpy 2.x answers a plain ``np.unique`` through a hash table and one with
    ``return_index`` through a stable argsort, each several times slower than
    one sort of int64 keys. Here plain keys take one ``np.sort``; with an index
    or an inverse they take one argsort (void keys sort by their bytes either
    way), and a key's first index is the least position in its run of equal
    keys, so the argsort need not be stable.
    """
    values = np.asarray(values)
    flat = values.ravel()
    if return_index or return_inverse:
        order = np.argsort(flat)
        keys = flat[order]
    else:
        keys = np.sort(flat)
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    out = [keys[starts]]
    if return_index:
        out.append(np.minimum.reduceat(order, starts) if len(starts) else starts)
    if return_inverse:
        inverse = np.empty(len(flat), dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        out.append(inverse.reshape(values.shape))
    if return_counts:
        out.append(np.diff(np.append(starts, len(keys))))
    return out[0] if len(out) == 1 else tuple(out)


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
    """Write the effective run configuration next to the command's outputs;
    a config value JSON cannot hold raises TypeError and writes nothing."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    payload = {"command": command, "seed": seed, "config": config}
    if dataset_hash is not None:
        payload["dataset_hash"] = dataset_hash
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path

